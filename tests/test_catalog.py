"""Constructors for the named families, checked against independent builds."""

import re

import pytest

from finsemi.catalog import (
    chain_lattice,
    diamond_m3,
    distributivity_witness,
    lattice_from_leq,
    make_B,
    make_end_semiring,
    make_lattice_semiring,
    make_matrix_semiring,
    make_product,
    pentagon_n5,
)
from finsemi import catalog
from finsemi.core import Limits, v_and_k_sets
from finsemi.errors import (
    DegenerateStructure,
    InvalidParameters,
    LimitExceeded,
    NotDistributive,
    ShapeError,
)


def _zn_tables(n):
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    return add, mul


def test_b21_is_boolean_exactly(B):
    s = make_B(2, 1)
    assert (s.add, s.mul, s.zero, s.one) == (B.add, B.mul, B.zero, B.one)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bn0_is_zn_exactly(n):
    s = make_B(n, 0)
    assert (s.add, s.mul) == _zn_tables(n)


def test_b31_add_row(B31):
    assert B31.add[1] == (1, 2, 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_wrap_lands_in_window(n):
    for i in range(n):
        s = make_B(n, i)  # validation re-checks every axiom
        for a in range(n):
            for b in range(n):
                if a + b >= n:
                    assert i <= s.add[a][b] < n
                if a * b >= n:
                    assert i <= s.mul[a][b] < n


def test_make_b_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        make_B(1, 0)
    with pytest.raises(InvalidParameters):
        make_B(3, 3)


# ---------------------------------------------------------------------------
# lattices


def test_two_chain_gives_boolean(B):
    s = make_lattice_semiring(chain_lattice(2))
    assert (s.add, s.mul) == (B.add, B.mul)


def test_four_chain_is_a_semiring():
    s = make_lattice_semiring(chain_lattice(4))
    assert s.commutative and s.zerosumfree


def test_m3_is_not_distributive():
    lat = diamond_m3()
    witness = distributivity_witness(lat)
    assert witness is not None
    a, b, c = witness
    assert lat.meet[a][lat.join[b][c]] != lat.join[lat.meet[a][b]][lat.meet[a][c]]
    with pytest.raises(NotDistributive):
        make_lattice_semiring(lat)


def test_pentagon_shape():
    lat = pentagon_n5()
    assert lat.join[1][2] == 4 and lat.join[1][3] == 3
    assert distributivity_witness(lat) is not None


@pytest.mark.parametrize("join, bottom, top, meet, message", [
    ([[0, 1], [1, 1]], -2, 1, [[0, 0], [0, 1]], "bottom/top index out of range"),
    ([[0, 1], [1, 1]], 0, 5, None, "bottom/top index out of range"),
    ([[0, 1], [1, 1]], False, 1, None, "bottom/top index out of range"),
    ([[0, 1], [1, 7]], 0, 1, None, "join[1][1] = 7 out of range 0..1"),
    ([[0, 1], [1, -1]], 0, 1, None, "join[1][1] = -1 is not a valid index"),
    ([[0, 1], [1, 1]], 0, 1, [[0, 0], [0, 2]], "meet[1][1] = 2 out of range 0..1"),
    ([[0, 1], [1, 1]], 0, 1, [[0, 0]], "meet: expected 2 rows, got 1"),
])
def test_validate_lattice_rejects_indices_outside_the_carrier(join, bottom, top, meet, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        catalog.validate_lattice(join, bottom, top, meet)


def test_lattice_from_leq_rejects_joinless_posets():
    # two incomparable maximal elements have no join
    leq = [[True, True, True], [False, True, False], [False, False, True]]
    with pytest.raises(InvalidParameters):
        lattice_from_leq(leq)


# ---------------------------------------------------------------------------
# endomorphism semirings


def test_end_of_two_chain_is_boolean(B):
    e = make_end_semiring(chain_lattice(2))
    assert e.order == 2
    assert (e.add, e.mul) == (B.add, B.mul)


@pytest.mark.parametrize("top_preserving", [False, True])
def test_end_of_one_element_lattice_is_degenerate(top_preserving):
    # its only endomorphism is both the zero map and the identity
    with pytest.raises(DegenerateStructure):
        make_end_semiring(chain_lattice(1), top_preserving=top_preserving)


def test_end_m3_carrier_sizes():
    assert make_end_semiring(diamond_m3()).order == 50
    assert make_end_semiring(diamond_m3(), top_preserving=True).order == 38


def test_end_n5_carrier_sizes():
    assert make_end_semiring(pentagon_n5()).order == 43
    assert make_end_semiring(pentagon_n5(), top_preserving=True).order == 27


def test_end_carrier_limit_counts_the_returned_carrier():
    # the top-preserving carrier of E(M3) is 37 maps plus zero, of 50 in all
    assert make_end_semiring(diamond_m3(), True, Limits(max_carrier=40)).order == 38
    assert make_end_semiring(diamond_m3(), True, Limits(max_carrier=38)).order == 38
    with pytest.raises(LimitExceeded):
        make_end_semiring(diamond_m3(), True, Limits(max_carrier=37))
    with pytest.raises(LimitExceeded):
        make_end_semiring(diamond_m3(), limits=Limits(max_carrier=49))


@pytest.mark.parametrize("top_preserving", [False, True])
def test_end_carrier_limit_raises_before_any_table(monkeypatch, top_preserving):
    def no_tables(*args):
        raise AssertionError("End tables built for a carrier over the limit")

    monkeypatch.setattr(catalog, "end_semiring", no_tables)
    with pytest.raises(LimitExceeded):
        make_end_semiring(diamond_m3(), top_preserving, Limits(max_carrier=30))


def test_end_m3_not_commutative():
    assert not make_end_semiring(diamond_m3()).commutative


# ---------------------------------------------------------------------------
# matrices and products


def test_matrix_1x1_is_same_semiring(B31):
    s = make_matrix_semiring(B31, 1)
    assert (s.add, s.mul) == (B31.add, B31.mul)


def test_matrix_2x2_boolean(B):
    s = make_matrix_semiring(B, 2)
    assert s.order == 16
    assert not s.commutative


def test_matrix_2x2_b31(B31):
    s = make_matrix_semiring(B31, 2)
    assert s.order == 81


def test_product_of_booleans(B, BxB):
    assert BxB.order == 4
    assert BxB.commutative and BxB.zerosumfree


def test_product_boolean_z2_not_zerosumfree(B, Z2):
    s = make_product([B, Z2])
    assert s.order == 4
    assert not s.zerosumfree
    v, _ = v_and_k_sets(s)
    assert v != 1 << s.zero  # (0, 1) + (0, 1) = (0, 0)


def test_product_singleton(B31):
    assert make_product([B31]) is B31


def test_product_of_simple_factors_is_semisimple(B, Z2):
    from finsemi.semisimple import semisimplicity_profile

    for factors in ([B, B], [B, Z2], [Z2, Z2]):
        assert semisimplicity_profile(make_product(factors)).ideal_semisimple
