"""Property tests, drawn by ``hypothesis``: the generator gate of the
axiom check, and closures and simplicity verdicts under relabelling.

Each test runs derandomized and without the example database, so the suite
stays deterministic; ``conftest.py`` keeps hypothesis's caches out of the
checkout.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from finsemi.auditor import enumerate_semirings
from finsemi.catalog import (
    boolean_semiring,
    chain_lattice,
    make_B,
    make_end_semiring,
    make_product,
    pentagon_n5,
)
from finsemi.core import (
    _closure_mask,
    _holds_on_additive_generators,
    bits,
    congruence_closure,
    enumerate_congruences,
    enumerate_subsemimodules,
    generated_subsemimodule,
    mask_of,
    semiring_violations,
)
from finsemi.errors import Violation
from finsemi.semisimple import (
    is_module_congruence_simple,
    is_module_ideal_simple,
    semiring_simplicity_profile,
)


@pytest.fixture(scope="module")
def gate_tables():
    b = boolean_semiring()
    return {"E(C4)": make_end_semiring(chain_lattice(4)),
            "E(N5)-top": make_end_semiring(pentagon_n5(), top_preserving=True),
            "B(4,3)": make_B(4, 3),
            "BxBxB": make_product([b, b, b])}


def _triple_violations(add, mul):
    """The laws on triples, checked over all of them, in the engine's order."""
    rng = range(len(add))
    out = []
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    out.append(Violation("additive-associativity", (a, b, c)))
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    out.append(Violation("multiplicative-associativity", (a, b, c)))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    out.append(Violation("left-distributivity", (a, b, c)))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    out.append(Violation("right-distributivity", (a, b, c)))
    return out


def _relabelled(data, add, mul, zero, one):
    """The tables under a drawn permutation of the carrier, as lists."""
    n = len(add)
    pi = data.draw(st.permutations(range(n)))
    inv = [0] * n
    for old, new in enumerate(pi):
        inv[new] = old
    return ([[pi[add[inv[a]][inv[b]]] for b in range(n)] for a in range(n)],
            [[pi[mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)],
            pi[zero], pi[one])


@pytest.mark.parametrize("name", ["E(C4)", "E(N5)-top", "B(4,3)", "BxBxB"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_generator_gate_against_all_triples(gate_tables, name, data):
    # a relabelled copy, with a few cells changed off the rows and columns of
    # zero (and of one, in mul) and add kept symmetric: the quadratic axioms
    # still hold, so the violation list comes from the triples alone
    s = gate_tables[name]
    n = s.order
    add, mul, zero, one = _relabelled(data, s.add, s.mul, s.zero, s.one)
    off_zero = st.sampled_from([x for x in range(n) if x != zero])
    off_both = st.sampled_from([x for x in range(n) if x not in (zero, one)])
    value = st.integers(0, n - 1)
    for x, y, v in data.draw(st.lists(st.tuples(off_zero, off_zero, value), max_size=2)):
        add[x][y] = add[y][x] = v
    for x, y, v in data.draw(st.lists(st.tuples(off_both, off_both, value), max_size=2)):
        mul[x][y] = v
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
    want = _triple_violations(add, mul)
    assert semiring_violations(add, mul, zero, one) == want
    assert _holds_on_additive_generators(add, mul, zero) == (not want)


def _maps_of_the_three_chain(opposite):
    """The 9 maps fixing 0 on the join chain 0 < 1 < 2, added pointwise and
    multiplied by composition, (fg)(x) = f(g(x)): (f+g)h = fh+gh always
    holds, f(g+h) = fg+fh only for join maps.  ``opposite`` multiplies the
    other way round, which swaps the two laws."""
    maps = [(0, a, b) for a in range(3) for b in range(3)]
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple(max(f[x], g[x]) for x in range(3))] for g in maps] for f in maps]
    mul = [[index[tuple(f[g[x]] for x in range(3))] for g in maps] for f in maps]
    if opposite:
        mul = [list(col) for col in zip(*mul)]
    return add, mul, index[(0, 0, 0)], index[(0, 1, 2)]


def _nonassociative_gf2_algebra():
    """GF(2)³ with basis 1, e, f (bits 0, 1, 2 of an element) and products
    ef = e, ee = ff = fe = 0, extended bilinearly: + is a group and both
    distributive laws hold, but (ef)f = e while e(ff) = 0."""
    products = {(1, 1): 0, (1, 2): 0b010, (2, 1): 0, (2, 2): 0}

    def times(a, b):
        out = 0
        for i in range(3):
            for j in range(3):
                if a >> i & 1 and b >> j & 1:
                    out ^= 1 << (i + j) if 0 in (i, j) else products[i, j]
        return out
    rng = range(8)
    return [[a ^ b for b in rng] for a in rng], [[times(a, b) for b in rng] for a in rng], 0, 1


# each fails exactly the named law
_ONE_LAW_TABLES = {
    "additive-associativity": lambda: (((0, 1, 2), (1, 0, 0), (2, 0, 0)),
                                       ((0, 0, 0), (0, 1, 2), (0, 2, 2)), 0, 1),
    "left-distributivity": lambda: _maps_of_the_three_chain(False),
    "right-distributivity": lambda: _maps_of_the_three_chain(True),
    "multiplicative-associativity": _nonassociative_gf2_algebra,
}


@pytest.mark.parametrize("law", list(_ONE_LAW_TABLES))
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_generator_gate_sees_each_law_alone(law, data):
    add, mul, zero, one = _relabelled(data, *_ONE_LAW_TABLES[law]())
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
    want = _triple_violations(add, mul)
    assert {v.law for v in want} == {law}
    assert not _holds_on_additive_generators(add, mul, zero)
    assert semiring_violations(add, mul, zero, one) == want


@pytest.fixture(scope="module")
def relabel_sources(catalog_fixtures):
    """The semirings of order at most 4 and the catalog fixtures of order at
    most 8."""
    corpus = [(f"sr{s.order}, index {k}", s)
              for k, s in enumerate(s for order in (2, 3, 4) for s in enumerate_semirings(order))]
    return corpus + [(name, s) for name, s in catalog_fixtures if s.order <= 8]


def _moved(class_of, pi):
    """A normalized class map carried along x -> pi[x], normalized again."""
    moved = [0] * len(pi)
    for x, c in enumerate(class_of):
        moved[pi[x]] = c
    remap = {}
    return tuple(remap.setdefault(c, len(remap)) for c in moved)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_closures_and_verdicts_commute_with_relabelling(relabel_sources, relabelled, data):
    # the generating translations are chosen greedily in index order, so a
    # relabelled copy closes under other generators; every principal
    # congruence, principal subsemimodule or two-sided ideal, the three
    # lattices of the join-closure walk and both simplicity verdicts must
    # still follow the relabelling
    name, s = data.draw(st.sampled_from(relabel_sources))
    pi = data.draw(st.permutations(range(s.order)))
    r = relabelled(s, pi)
    for parent, image in ((s, r), (s.left_module(), r.left_module())):
        for a, b in combinations(range(s.order), 2):
            want = _moved(congruence_closure(parent, [(a, b)]).class_of, pi)
            assert congruence_closure(image, [(pi[a], pi[b])]).class_of == want, (name, a, b)
        for x in range(s.order):
            want = mask_of(pi[y] for y in bits(_closure_mask(parent, 1 << x)))
            assert _closure_mask(image, 1 << pi[x]) == want, (name, x)
    m, mr = s.left_module(), r.left_module()
    for x in range(s.order):
        want = mask_of(pi[y] for y in bits(generated_subsemimodule(m, [x]).members))
        assert generated_subsemimodule(mr, [pi[x]]).members == want, (name, x)
    for subtractive_only in (False, True):
        want = sorted(mask_of(pi[y] for y in bits(t.members))
                      for t in enumerate_subsemimodules(m, subtractive_only=subtractive_only))
        got = enumerate_subsemimodules(mr, subtractive_only=subtractive_only)
        assert [t.members for t in got] == want, (name, subtractive_only)
    want = sorted(_moved(rho.class_of, pi) for rho in enumerate_congruences(m))
    assert [rho.class_of for rho in enumerate_congruences(mr)] == want, name
    assert is_module_ideal_simple(mr)[0] == is_module_ideal_simple(m)[0], name
    assert is_module_congruence_simple(mr)[0] == is_module_congruence_simple(m)[0], name
    prof, prof_r = semiring_simplicity_profile(s), semiring_simplicity_profile(r)
    assert (prof_r.ideal_simple, prof_r.congruence_simple) == \
        (prof.ideal_simple, prof.congruence_simple), name
