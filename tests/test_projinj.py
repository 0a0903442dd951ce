"""The four homological deciders relative to a fixed module."""

from itertools import combinations_with_replacement

import pytest

from finsemi.auditor import enumerate_semirings
from finsemi.catalog import make_B
from finsemi.core import (
    Limits,
    SubStructure,
    bourne_congruence,
    inclusion_map,
    product_module,
    quotient_by_congruence,
    zero_module,
)
from finsemi.errors import HypothesisUnmet, LimitExceeded
from finsemi.projinj import (
    bounded_family,
    hom_monoid,
    is_e_injective,
    is_e_projective,
    is_i_injective,
    is_k_projective,
)


def _quotient_by_ideal(B31):
    m = B31.left_module()
    return quotient_by_congruence(m, bourne_congruence(m, SubStructure(m, 0b101)))[0]


def test_bounded_family_contents(B31):
    family = bounded_family(B31)
    assert family[0] is B31.left_module()
    orders = sorted(mod.order for mod in family)
    assert orders[0] == 1 and max(orders) == 3  # zero module up to S


@pytest.mark.parametrize("order", [2, 3, 4])
def test_deciders_respect_biproducts(order):
    # the reduction that lets the family leave out direct sums
    for s in enumerate_semirings(order):
        m = s.left_module()
        family = bounded_family(s)
        for decider in (is_k_projective, is_e_projective, is_i_injective, is_e_injective):
            verdicts = [decider(a, m).holds for a in family]
            for (i, a), (j, b) in combinations_with_replacement(enumerate(family), 2):
                assert decider(product_module(a, b), m).holds == \
                    (verdicts[i] and verdicts[j]), (decider.__name__, s)


def test_modules_over_different_bases_are_rejected(B31, B43):
    # Hom between them is empty, not a monoid with a zero, and no lifting
    # problem is posed: every decider refuses the pair, either way round
    a, b = B31.left_module(), B43.left_module()
    for p, m in ((a, b), (b, a)):
        with pytest.raises(HypothesisUnmet, match="different bases"):
            hom_monoid(p, m)
        for decider in (is_k_projective, is_e_projective, is_i_injective, is_e_injective):
            with pytest.raises(HypothesisUnmet, match="different bases"):
                decider(p, m)


def test_quotient_not_k_projective(B31):
    m = B31.left_module()
    rep = is_k_projective(_quotient_by_ideal(B31), m)
    assert not rep.holds
    bad = rep.failures()
    assert any(r.kernel_mask == 0b101 and r.test_map == (0, 1) for r in bad)


def test_regular_module_k_projective(B31):
    m = B31.left_module()
    assert is_k_projective(m, m).holds


def test_bp1p_quotients_k_projective(B43):
    m = B43.left_module()
    from finsemi.core import enumerate_subsemimodules

    for sub in enumerate_subsemimodules(m, subtractive_only=True):
        quot, _ = quotient_by_congruence(m, bourne_congruence(m, sub))
        assert is_k_projective(quot, m).holds


def test_e_projective_implies_k_projective(B31, B43):
    for s in (B31, B43):
        m = s.left_module()
        for p in bounded_family(s):
            if is_e_projective(p, m).holds:
                assert is_k_projective(p, m).holds


def test_quotient_not_e_projective(B31):
    m = B31.left_module()
    assert not is_e_projective(_quotient_by_ideal(B31), m).holds


def test_zero_module_e_projective(B31):
    assert is_e_projective(zero_module(B31), B31.left_module()).holds


@pytest.mark.parametrize("p", [3, 5])
def test_every_family_member_e_projective_over_bp1p(p):
    s = make_B(p + 1, p)
    m = s.left_module()
    for mod in bounded_family(s):
        assert is_e_projective(mod, m).holds


def test_sumproj_hypothesis_gives_e_projectivity(B43, BxB):
    # every subtractive ideal of these splits off, so the conclusion is forced
    from finsemi.summands import summand_poset
    from finsemi.core import enumerate_subsemimodules

    for s in (B43, BxB):
        m = s.left_module()
        poset = summand_poset(m)
        assert all(poset.is_summand(sub.members)
                   for sub in enumerate_subsemimodules(m, subtractive_only=True))
        for mod in bounded_family(s):
            assert is_e_projective(mod, m).holds


# ---------------------------------------------------------------------------
# injective side


def test_ideal_i_injective_with_witness(B31):
    m = B31.left_module()
    imod = inclusion_map(SubStructure(m, 0b101))[0]
    rep = is_i_injective(imod, m)
    assert rep.holds
    ext = [r for r in rep.records if r.kernel_mask == 0b101 and r.test_map == (0, 1)]
    assert ext and ext[0].witness == (0, 1, 1)  # h(1) = 2, h(2) = 2 downstairs


def test_zero_module_i_injective_everywhere(B, B31, B43):
    for s in (B, B31, B43):
        assert is_i_injective(zero_module(s), s.left_module()).holds


def test_boolean_self_injective(B):
    m = B.left_module()
    assert is_i_injective(m, m).holds
    assert is_e_injective(m, m).holds


def test_e_injective_implies_i_injective(B31, B43):
    for s in (B31, B43):
        m = s.left_module()
        for j in bounded_family(s):
            if is_e_injective(j, m).holds:
                assert is_i_injective(j, m).holds


def test_trivial_subtractive_ideals_give_e_injectivity(B43):
    m = B43.left_module()
    for j in bounded_family(B43):
        assert is_e_injective(j, m).holds


def test_b31_not_e_injective_over_itself(B31):
    # Hom(-, S) breaks exactness in the middle of the ideal-{0,2} sequence
    m = B31.left_module()
    rep = is_e_injective(m, m)
    assert not rep.holds
    bad = rep.failures()
    assert [(r.kernel_mask, r.left, r.middle, r.right) for r in bad] == \
           [(0b101, True, False, True)]


# ---------------------------------------------------------------------------
# isomorphism invariance


def test_deciders_invariant_under_relabeling(B31, relabelled):
    m = B31.left_module()
    imod = inclusion_map(SubStructure(m, 0b101))[0]
    # a relabeled copy of the quotient: swap the two class indices
    quot = _quotient_by_ideal(B31)
    from finsemi.core import validate_semimodule

    perm = (1, 0)
    add = tuple(tuple(perm[quot.add[perm[a]][perm[b]]] for b in range(2)) for a in range(2))
    act = tuple(tuple(perm[quot.act[s][perm[a]]] for a in range(2)) for s in range(3))
    relabeled = validate_semimodule(B31, add, act, zero=perm[quot.zero])
    for decider in (is_k_projective, is_e_projective, is_i_injective, is_e_injective):
        assert decider(quot, m).holds == decider(relabeled, m).holds
    # reversing the carrier moves zero off label 0, so a decider that takes
    # some map other than the zero map for zero changes its verdicts
    for order in (2, 3):
        for s in enumerate_semirings(order):
            r = relabelled(s, list(range(order))[::-1])
            for decider in (is_k_projective, is_e_projective, is_i_injective, is_e_injective):
                verdicts = [sorted(decider(a, t.left_module()).holds for a in bounded_family(t))
                            for t in (s, r)]
                assert verdicts[0] == verdicts[1], (decider.__name__, s)


def test_zero_module_e_injective(B31, B43):
    for s in (B31, B43):
        assert is_e_injective(zero_module(s), s.left_module()).holds


# ---------------------------------------------------------------------------
# cost: the middle Hom is the only Hom monoid a decider builds


@pytest.mark.parametrize("decider", [is_e_projective, is_e_injective])
def test_middle_hom_monoid_built_once(B31, monkeypatch, decider):
    from finsemi import projinj

    calls = []
    real = projinj.hom_monoid

    def spy(source, target, limits=projinj.DEFAULT_LIMITS):
        calls.append((source, target))
        return real(source, target, limits)

    monkeypatch.setattr(projinj, "hom_monoid", spy)
    m = B31.left_module()
    decider(m, m)
    # Hom(M, M), the middle term of every canonical sequence; the outer
    # terms need no monoid table
    assert calls == [(m, m)]


# ---------------------------------------------------------------------------
# truncation


@pytest.mark.parametrize("decider", [is_k_projective, is_e_projective])
def test_truncated_test_maps_raise(B31, decider):
    # Hom(P, M) fits in one node, Hom(P, M/K) does not: a decider that
    # checked only the candidates would read a prefix of the test maps and
    # call the quotient k-projective, which it is not
    p, m = _quotient_by_ideal(B31), B31.left_module()
    with pytest.raises(LimitExceeded):
        decider(p, m, Limits(max_hom_nodes=1))
