"""Simplicity, semisimplicity, condition profiles, comsum certificates."""

import pytest

from finsemi import semisimple
from finsemi.auditor import enumerate_semirings
from finsemi.catalog import (
    boolean_semiring,
    chain_lattice,
    diamond_m3,
    make_B,
    make_end_semiring,
    make_product,
    pentagon_n5,
)
from finsemi.core import (
    Limits,
    SubStructure,
    bits,
    congruence_closure,
    enumerate_subsemimodules,
    full_mask,
    sub_module,
)
from finsemi.errors import HypothesisUnmet, LimitExceeded
from finsemi.semisimple import (
    comsum_check,
    condition_profile,
    is_module_congruence_simple,
    is_module_ideal_simple,
    module_test_family,
    semiring_simplicity_profile,
    semisimplicity_profile,
    simplicity_profile,
)


def test_boolean_is_simple_both_ways(B):
    rep = simplicity_profile(B.left_module())
    assert rep.ideal_simple and rep.congruence_simple
    assert rep.crosschecked


def test_truncated_hom_search_is_not_a_crosscheck_failure():
    # the map characterizations need every hom: a cut list raises instead
    # of reporting the routes as disagreeing
    m = make_B(3, 1).left_module()
    with pytest.raises(LimitExceeded, match="^hom enumeration truncated$"):
        simplicity_profile(m, Limits(max_hom_nodes=1))


def test_b31_is_simple_neither_way(B31):
    rep = simplicity_profile(B31.left_module())
    assert not rep.ideal_simple and not rep.congruence_simple
    assert sorted(bits(rep.ideal_witness.members)) == [0, 2]
    assert rep.congruence_witness is not None
    assert not rep.congruence_witness.is_discrete()
    assert not rep.congruence_witness.is_universal()


def test_zero_module_is_not_simple(B31):
    from finsemi.core import zero_module

    rep = simplicity_profile(zero_module(B31))
    assert not rep.ideal_simple and not rep.congruence_simple


def test_two_element_modules_are_simple_both_ways(B31):
    m = B31.left_module()
    imod = sub_module(SubStructure(m, 0b101))[0]
    assert is_module_ideal_simple(imod)[0]
    assert is_module_congruence_simple(imod)[0]


def test_congruence_simple_implies_trivial_subtractive(B, B31, B43, BxB):
    for s in (B, B31, B43, BxB):
        for mod in module_test_family(s.left_module()):
            if is_module_congruence_simple(mod)[0]:
                subt = enumerate_subsemimodules(mod, subtractive_only=True)
                assert [t.members for t in subt] == [1 << mod.zero, full_mask(mod.order)]


def test_endomorphism_semiring_fixture_simplicities():
    # semiring-level notions: two-sided ideals, two-sided congruences
    for lat in (diamond_m3(), pentagon_n5()):
        rep = semiring_simplicity_profile(make_end_semiring(lat))
        assert rep.congruence_simple
        assert not rep.ideal_simple
        assert rep.ideal_witness_mask is not None


def test_commutative_semiring_simplicity_matches_module_level(B31, B43):
    for s in (B31, B43):
        sr = semiring_simplicity_profile(s)
        mod = simplicity_profile(s.left_module())
        assert sr.ideal_simple == mod.ideal_simple
        assert sr.congruence_simple == mod.congruence_simple


# ---------------------------------------------------------------------------
# congruence-simplicity through translations of known universal pairs


def _congruence_simple_by_every_pair(m):
    """Reference route: close every pair (a, b), a < b, in order, and stop
    at the first congruence that is not universal."""
    if m.order == 1:
        return False, None
    for a in range(m.order):
        for b in range(a + 1, m.order):
            rho = congruence_closure(m, [(a, b)])
            if not rho.is_universal():
                return False, rho
    return True, None


def _simplicity_sweep():
    """Every semiring of order at most 4, every B(n, i) with n <= 5, and
    both variants of E(M3), E(N5) and E(C4), each with its left module."""
    semirings = [(f"sr{s.order}, index {k}", s)
                 for k, s in enumerate(s for order in (2, 3, 4)
                                       for s in enumerate_semirings(order))]
    semirings += [(f"B({n},{i})", make_B(n, i)) for n in range(2, 6) for i in range(n)]
    for lname, lat in (("M3", diamond_m3()), ("N5", pentagon_n5()), ("C4", chain_lattice(4))):
        for top in (False, True):
            semirings.append((f"E({lname}){' top' if top else ''}",
                              make_end_semiring(lat, top_preserving=top)))
    for name, s in semirings:
        yield name, s
        yield f"{name} left module", s.left_module()


def test_congruence_simplicity_matches_closing_every_pair():
    simple = set()
    for name, parent in _simplicity_sweep():
        got, witness = is_module_congruence_simple(parent)
        want, want_witness = _congruence_simple_by_every_pair(parent)
        assert got == want, name
        if want:
            assert witness is None, name
            simple.add(name)
        else:
            assert witness.class_of == want_witness.class_of, name
    # the sweep holds simple and non-simple cases of order above 20
    assert {"E(M3)", "E(N5)", "E(C4)"} <= simple
    assert not {"E(M3) top", "E(N5) top", "E(C4) top"} & simple


def test_end_m3_congruence_simplicity_takes_one_closure(monkeypatch):
    calls = []

    def counting(parent, pairs):
        calls.append(pairs)
        return congruence_closure(parent, pairs)

    monkeypatch.setattr(semisimple, "congruence_closure", counting)
    assert is_module_congruence_simple(make_end_semiring(diamond_m3())) == (True, None)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the subtractive lattice of a subtractive N <= M is that of M inside N


def test_inner_subtractive_lattices_are_read_off_the_outer_one():
    b = boolean_semiring()
    fixtures = [make_B(3, 1), make_B(3, 2), make_B(4, 3), make_B(6, 5),
                make_product([b, b]), make_product([b, b, b]),
                make_end_semiring(diamond_m3()), make_end_semiring(pentagon_n5())]
    semirings = [s for order in (2, 3, 4) for s in enumerate_semirings(order)] + fixtures
    checked = 0
    for s in semirings:
        m = s.left_module()
        outer = [t.members for t in enumerate_subsemimodules(m, subtractive_only=True)]
        for big in outer:
            inner, to_parent = sub_module(SubStructure(m, big))
            got = [sum(1 << to_parent[i] for i in bits(t.members))
                   for t in enumerate_subsemimodules(inner, subtractive_only=True)]
            assert got == [t for t in outer if t & ~big == 0], (s, sorted(bits(big)))
            checked += 1
    assert checked > 2 * len(semirings)


# ---------------------------------------------------------------------------
# semisimplicity


def test_product_semisimple_both_ways(BxB):
    rep = semisimplicity_profile(BxB)
    assert rep.ideal_semisimple and rep.congruence_semisimple
    assert rep.ideal_parts == (0b0011, 0b0101)


def test_b31_not_semisimple(B31):
    rep = semisimplicity_profile(B31)
    assert not rep.ideal_semisimple and not rep.congruence_semisimple
    assert rep.ideal_parts is None


@pytest.mark.parametrize("p", [3, 5])
def test_bp1p_not_semisimple(p):
    rep = semisimplicity_profile(make_B(p + 1, p))
    assert not rep.ideal_semisimple and not rep.congruence_semisimple


def test_simple_parts_are_irreducible_summands(BxB):
    from finsemi.summands import is_irreducible_summand

    rep = semisimplicity_profile(BxB)
    m = BxB.left_module()
    for mask in rep.ideal_parts:
        assert is_irreducible_summand(sub_module(SubStructure(m, mask))[0])


# ---------------------------------------------------------------------------
# C1 / C2 / C2'


def test_condition_profile_b32(B32):
    cp = condition_profile(B32)
    assert (cp.c1, cp.c2, cp.c2prime) == (True, False, False)
    assert cp.c2_witness is not None


def test_condition_profile_b31(B31):
    cp = condition_profile(B31)
    assert (cp.c1, cp.c2) == (False, True)
    assert cp.c1_witness == 0b101
    assert cp.c2prime  # both quotients along maximal subtractive chains are simple


def test_condition_profile_b43(B43):
    cp = condition_profile(B43)
    assert (cp.c1, cp.c2, cp.c2prime) == (True, False, False)


def test_condition_profile_endomorphism_fixtures():
    # computed truth on the default carrier (all join endomorphisms):
    # C2' holds and, against the external claim, C2 holds as well
    for lat in (diamond_m3(), pentagon_n5()):
        cp = condition_profile(make_end_semiring(lat))
        assert cp.c2prime
        assert cp.c2
    # the top-preserving variant does satisfy (C2' and not C2), but it is
    # not a congruence-simple semiring, so no variant matches every claim
    for lat in (diamond_m3(), pentagon_n5()):
        cp = condition_profile(make_end_semiring(lat, top_preserving=True))
        assert not cp.c2 and cp.c2prime
        rep = semiring_simplicity_profile(make_end_semiring(lat, top_preserving=True))
        assert not rep.congruence_simple


# ---------------------------------------------------------------------------
# comsum


def test_comsum_product(BxB):
    certs = comsum_check(BxB)
    assert len(certs) == 4
    assert all(c.equals_sub_sum and c.is_summand for c in certs)


def test_comsum_check_raises_on_a_truncated_subtractive_lattice(BxB):
    # B x B has four subtractive ideals; two of them are not the answer
    with pytest.raises(LimitExceeded, match="^subtractive ideal enumeration truncated$"):
        comsum_check(BxB, Limits(max_results=2))


def test_comsum_boolean_trivial(B):
    certs = comsum_check(B)
    assert len(certs) == 2


def test_comsum_triple_product(B):
    certs = comsum_check(make_product([B, B, B]))
    assert len(certs) == 8
    assert all(c.equals_sub_sum and c.is_summand for c in certs)


def test_comsum_requires_semisimple(B31):
    with pytest.raises(HypothesisUnmet):
        comsum_check(B31)


def test_comsum_requires_commutative():
    with pytest.raises(HypothesisUnmet):
        comsum_check(make_end_semiring(diamond_m3()))
