import tempfile

import pytest

from finsemi.catalog import boolean_semiring, make_B, make_product
from finsemi.core import SemimoduleTable, validate_semimodule, validate_semiring


@pytest.fixture(scope="session")
def B():
    return boolean_semiring()


@pytest.fixture(scope="session")
def Z2():
    return make_B(2, 0)


@pytest.fixture(scope="session")
def B31():
    return make_B(3, 1)


@pytest.fixture(scope="session")
def B32():
    return make_B(3, 2)


@pytest.fixture(scope="session")
def B43():
    return make_B(4, 3)


@pytest.fixture(scope="session")
def BxB(B):
    return make_product([B, B])


def _relabelled(s, pi):
    """The semiring, or the semimodule, isomorphic to s under x -> pi[x]."""
    inv = [0] * s.order
    for old, new in enumerate(pi):
        inv[new] = old
    rng = range(s.order)
    if isinstance(s, SemimoduleTable):
        return validate_semimodule(s.base, [[pi[s.add[inv[a]][inv[b]]] for b in rng] for a in rng],
                                   [[pi[row[inv[a]]] for a in rng] for row in s.act],
                                   zero=pi[s.zero])
    return validate_semiring([[pi[s.add[inv[a]][inv[b]]] for b in rng] for a in rng],
                             [[pi[s.mul[inv[a]][inv[b]]] for b in rng] for a in rng],
                             zero=pi[s.zero], one=pi[s.one])


@pytest.fixture(scope="session")
def relabelled():
    return _relabelled


@pytest.fixture(scope="session")
def catalog_fixtures():
    """The eight named fixtures the auditor runs, as (name, table) pairs."""
    from finsemi.auditor import _catalog_fixtures

    return _catalog_fixtures()


def pytest_configure(config):
    """Keep hypothesis's caches (it stores the constants it reads from the
    source while collecting) in a temporary directory that the run removes,
    instead of ``.hypothesis/`` in the checkout."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
