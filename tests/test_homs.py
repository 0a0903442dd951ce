"""Hom enumeration, kernels, normality, sequences, splitting, isomorphism."""

import itertools
import operator

import oracle
import pytest

from finsemi import homs
from finsemi.auditor import _catalog_fixtures, enumerate_semirings
from finsemi.catalog import make_B, make_end_semiring, pentagon_n5
from finsemi.core import (
    DEFAULT_LIMITS,
    Limits,
    LinearMap,
    SubStructure,
    _cyclic_generator,
    bits,
    bourne_congruence,
    bourne_quotient,
    enumerate_subsemimodules,
    full_mask,
    identity_map,
    inclusion_map,
    linear_map_violations,
    product_module,
    quotient_by_congruence,
    zero_map,
    zero_module,
)
from finsemi.errors import AxiomViolations, LimitExceeded, NotComposable
from finsemi.homs import (
    are_isomorphic,
    classify_junction,
    enumerate_homs,
    find_isomorphism,
    generating_set,
    is_short_exact,
    kernel_image,
    normality_profile,
    short_exact_equivalences,
)
from finsemi.projinj import bounded_family, hom_monoid, is_i_injective, is_k_projective


def _brute_homs(src, tgt):
    out = []
    for images in itertools.product(range(tgt.order), repeat=src.order):
        if not linear_map_violations(src, tgt, images):
            out.append(images)
    return out


def _ideal(B31):
    m = B31.left_module()
    return m, SubStructure(m, 0b101)


# ---------------------------------------------------------------------------
# enumeration


def test_hom_boolean_self(B):
    m = B.left_module()
    assert [f.image_of for f in enumerate_homs(m, m)] == [(0, 0), (0, 1)]


def test_hom_b31_self_is_right_multiplication(B31):
    m = B31.left_module()
    got = [f.image_of for f in enumerate_homs(m, m)]
    assert got == [tuple(B31.mul[x][c] for x in range(3)) for c in range(3)]


def test_hom_into_zero_module(B31):
    m = B31.left_module()
    assert len(enumerate_homs(m, zero_module(B31))) == 1


def test_hom_enumeration_matches_brute_force(B31, B43, BxB):
    mods = []
    for s in (B31, B43, BxB):
        m = s.left_module()
        mods.append((s, m))
        quot, _ = quotient_by_congruence(
            m, bourne_congruence(m, SubStructure(m, full_mask(m.order))))
        mods.append((s, quot))
    for (s1, a), (s2, b) in itertools.product(mods, mods):
        if s1 is not s2:
            # no map is linear between modules over different bases
            assert not enumerate_homs(a, b).items
            continue
        if b.order ** a.order > 100_000:
            continue
        assert [f.image_of for f in enumerate_homs(a, b)] == sorted(_brute_homs(a, b))


def test_zero_map_always_present(B31, B43):
    for s in (B31, B43):
        m = s.left_module()
        homs = enumerate_homs(m, m)
        assert (m.zero,) * m.order in [f.image_of for f in homs]


def test_generating_set_of_regular_module_is_unit(B31):
    assert generating_set(B31.left_module()) == (1,)


def test_yoneda_path_matches_the_dfs():
    # Hom(C, N) for a cyclic C by the formula against the generator DFS, on
    # every pair of family members with a cyclic source, over every semiring
    # of order <= 4 and the catalog fixtures.  The images of g under the
    # maps the DFS finds are exactly the candidates of the partition test.
    semirings = [s for order in (2, 3, 4) for s in enumerate_semirings(order)]
    semirings += [s for _, s in _catalog_fixtures()]
    pairs = 0
    for s in semirings:
        family = bounded_family(s)
        for a in family:
            g = _cyclic_generator(a)
            if g is None:
                continue
            for b in family:
                yoneda = enumerate_homs(a, b)
                dfs = homs._dfs_homs(a, b, DEFAULT_LIMITS.max_hom_nodes)
                assert [f.image_of for f in yoneda] == [f.image_of for f in dfs]
                assert sorted(f.image_of[g] for f in dfs) == homs._hom_candidates(a, b, g)
                assert yoneda.exhaustive == dfs.exhaustive
                pairs += 1
    assert pairs > 1000


def test_every_cap_keeps_the_first_yoneda_candidates():
    # each candidate is one node and no other target element is: a cap of
    # k keeps the maps of the first k candidates (in target element order),
    # and only the full count is exhaustive.  Out of the regular module of
    # E(N5), either variant, every element is a candidate; out of a proper
    # quotient of it some are not.
    m, top = (make_end_semiring(pentagon_n5(), top_preserving=t).left_module()
              for t in (False, True))
    quotients = [bourne_quotient(m, k)[0]
                 for k in enumerate_subsemimodules(m, subtractive_only=True)]
    proper = next(q for q in quotients if 1 < len(enumerate_homs(q, m)) < m.order)
    for source, target in ((m, m), (top, top), (proper, m)):
        g = _cyclic_generator(source)
        full = enumerate_homs(source, target)
        candidates = sorted(f.image_of[g] for f in full)
        assert full.exhaustive and len(set(candidates)) == len(full)
        assert (len(full) < target.order) == (source is proper)
        for cap in range(len(full) + 1):
            cut = enumerate_homs(source, target, Limits(max_hom_nodes=cap))
            assert sorted(f.image_of[g] for f in cut) == candidates[:cap]
            assert [f.image_of for f in cut] == sorted(f.image_of for f in cut)
            assert set(f.image_of for f in cut) <= set(f.image_of for f in full)
            assert cut.exhaustive == (cap == len(full))


def _dfs_budgets(a, family):
    """Per target b in ``family``: the least budget at which the DFS from the
    non-cyclic ``a`` to b is exhaustive, by brute force, and that budget
    without stage pruning, after asserting that the exhaustive maps are
    oracle's.

    With N_0 = {0} and N_i generated by g_1..g_i, the DFS tries each
    candidate of g_i once per linear map N_(i-1) -> b, so that budget is the
    sum of |Hom(N_(i-1), b)| |Hom(S.g_i, b)| (the candidates of g_i are the
    maps out of S.g_i).  Without pruning, every tuple of candidates of
    g_1..g_i is a node."""
    src, gens = oracle.as_module(a), generating_set(a)
    stages = [oracle.restrict(src, oracle.generated_submodule(src, gens[:i]))[0]
              for i in range(len(gens))]
    orbits = [oracle.restrict(src, oracle.generated_submodule(src, [g]))[0] for g in gens]
    # the last stage is the source itself, so its check is the whole map's
    assert homs._stages(a)[-1][:2] == (a, tuple(range(a.order)))
    for b in family:
        tgt = oracle.as_module(b)
        counts = [len(oracle.homs(c, tgt)) for c in orbits]
        budget = sum(len(oracle.homs(n, tgt)) * k for n, k in zip(stages, counts))
        assert [f.image_of for f in enumerate_homs(a, b)] == oracle.homs(src, tgt)
        assert enumerate_homs(a, b, Limits(max_hom_nodes=budget)).exhaustive
        assert not enumerate_homs(a, b, Limits(max_hom_nodes=budget - 1)).exhaustive
        yield b, budget, sum(itertools.accumulate(counts, operator.mul))


def test_the_dfs_budget_counts_the_linear_maps_on_each_stage():
    # sources are the non-cyclic sums of two members of the order <= 3
    # families, and those of order <= 6 of the order-4 families: only among
    # the latter does the stage check cut a branch
    pairs = pruned = 0
    for s in (s for order in (2, 3, 4) for s in enumerate_semirings(order)):
        family = bounded_family(s)
        sums = [product_module(a, c) for i, a in enumerate(family) for c in family[i:]
                if s.order < 4 or a.order * c.order <= 6]
        for a in (m for m in sums if _cyclic_generator(m) is None):
            for b, budget, unpruned in _dfs_budgets(a, family):
                full = set(f.image_of for f in enumerate_homs(a, b))
                for cap in range(budget):
                    cut = enumerate_homs(a, b, Limits(max_hom_nodes=cap))
                    assert not cut.exhaustive
                    assert set(f.image_of for f in cut) <= full
                pruned += budget < unpruned
                pairs += 1
    assert pairs > 1000 and pruned > 40


def test_the_dfs_gives_each_map_once_on_relabelled_sources(relabelled):
    # in a sum indexed pair by pair, each generator g_i is first reached as
    # 0 + 1.g_i; under other indexings it can be reached as some y + s.g_i
    # first, and the DFS must still send g_i to its candidate, so that each
    # map is found once.  Every indexing of the non-cyclic sums of order 4
    # over the order <= 3 families, and two of each of order 6 and 9.
    pairs = 0
    for s in (s for order in (2, 3) for s in enumerate_semirings(order)):
        family = bounded_family(s)
        sums = [product_module(a, c) for i, a in enumerate(family) for c in family[i:]]
        for a in (m for m in sums if _cyclic_generator(m) is None):
            n = a.order
            pis = (itertools.permutations(range(n)) if n == 4
                   else [tuple(reversed(range(n))), tuple(range(1, n)) + (0,)])
            for pi in pis:
                pairs += len(list(_dfs_budgets(relabelled(a, pi), family)))
    assert pairs > 500


def test_homs_out_of_the_zero_module(B31, catalog_fixtures):
    # a one-element source: its only map is the zero map, whatever the target
    targets = [B31.left_module(), zero_module(B31)]
    targets += [s.left_module() for _, s in catalog_fixtures]
    for m in targets:
        z = zero_module(m.base)
        assert _cyclic_generator(z) == 0
        homs_out = enumerate_homs(z, m)
        assert [f.image_of for f in homs_out] == [(m.zero,)] and homs_out.exhaustive
        assert homs_out[0] == zero_map(z, m)
        monoid, maps = hom_monoid(z, m)
        assert (monoid.order, monoid.add, monoid.zero) == (1, ((0,),), 0)
        cut = enumerate_homs(z, m, Limits(max_hom_nodes=0))
        assert len(cut) == 0 and not cut.exhaustive


def test_cyclic_sources_never_reach_the_dfs(monkeypatch):
    family = bounded_family(make_B(3, 1))
    cyclic = [a for a in family if _cyclic_generator(a) is not None]
    assert cyclic

    def no_stages(m):
        raise AssertionError("the DFS ran on a cyclic source")

    monkeypatch.setattr(homs, "_stages", no_stages)
    # a cached enumeration would not show which path built it
    homs._enumerate_homs_cached.cache_clear()
    for a in cyclic:
        for b in family:
            assert enumerate_homs(a, b).exhaustive


def test_truncated_yoneda_path_only_drops_maps(B43):
    m = B43.left_module()
    full = [f.image_of for f in enumerate_homs(m, m)]
    for cap in range(len(full) + 1):
        cut = enumerate_homs(m, m, Limits(max_hom_nodes=cap))
        assert len(cut) == cap and cut.exhaustive == (cap == len(full))
        assert set(f.image_of for f in cut) <= set(full)


def test_invalid_map_rejected(B31):
    m = B31.left_module()
    with pytest.raises(AxiomViolations):
        LinearMap(m, m, (0, 1, 1))  # not compatible with scaling by 2


# ---------------------------------------------------------------------------
# kernels, images, normality


def test_kernel_of_projection(B31):
    m, ideal = _ideal(B31)
    _, proj = quotient_by_congruence(m, bourne_congruence(m, ideal))
    ker, img, closure = kernel_image(proj)
    assert sorted(bits(ker.members)) == [0, 2]
    assert img.members == closure.members


def test_kernel_image_of_identity(B31):
    m = B31.left_module()
    ker, img, _ = kernel_image(identity_map(m))
    assert ker.members == 0b001 and img.members == full_mask(3)


def test_kernel_always_subtractive(B31, B43, BxB):
    for s in (B31, B43, BxB):
        m = s.left_module()
        for f in enumerate_homs(m, m):
            ker, _, _ = kernel_image(f)
            assert ker.is_subtractive()


def test_projection_is_normal(B31):
    m, ideal = _ideal(B31)
    _, proj = quotient_by_congruence(m, bourne_congruence(m, ideal))
    prof = normality_profile(proj)
    assert prof.k_normal and prof.i_normal and prof.normal


def test_subtractive_inclusion_is_normal(B31):
    m, ideal = _ideal(B31)
    _, incl = inclusion_map(ideal)
    assert normality_profile(incl).normal


def test_non_subtractive_inclusion_not_i_normal(B43):
    m = B43.left_module()
    _, incl = inclusion_map(SubStructure(m, 0b1001))
    prof = normality_profile(incl)
    assert prof.k_normal and not prof.i_normal


def test_injective_implies_k_normal_surjective_implies_i_normal(B31, B43):
    for s in (B31, B43):
        m = s.left_module()
        family = [m]
        for sub in (SubStructure(m, 0b001), SubStructure(m, full_mask(m.order))):
            family.append(inclusion_map(sub)[0])
        for a in family:
            for b in family:
                for f in enumerate_homs(a, b):
                    prof = normality_profile(f)
                    if f.is_injective():
                        assert prof.k_normal
                    if f.is_surjective():
                        assert prof.i_normal


# ---------------------------------------------------------------------------
# sequences


def test_canonical_sequence_is_exact(B31):
    m, ideal = _ideal(B31)
    _, incl = inclusion_map(ideal)
    _, proj = quotient_by_congruence(m, bourne_congruence(m, ideal))
    assert classify_junction(incl, proj).exact
    assert is_short_exact(incl, proj)


def test_non_subtractive_kernel_gives_semi_exact_only(B43):
    # 0 -> {0,3} -> B(4,3) -> quotient -> 0 with the plain inclusion
    m = B43.left_module()
    sub = SubStructure(m, 0b1001)
    _, incl = inclusion_map(sub)
    _, proj = quotient_by_congruence(m, bourne_congruence(m, sub))
    middle = classify_junction(incl, proj)
    assert middle.semi_exact and not middle.proper_exact and not middle.exact
    assert not is_short_exact(incl, proj)


def test_identity_sequence_exact(B31):
    m = B31.left_module()
    z = zero_module(B31)
    assert is_short_exact(identity_map(m), zero_map(m, z))


def test_left_flank_exact_iff_injective(B31):
    # the junction at L is exact iff f is one-to-one, and an injective
    # endomorphism of a finite module is onto, so then 0 -> M -f-> M -> 0
    # is exact
    m = B31.left_module()
    z = zero_module(B31)
    for f in enumerate_homs(m, m):
        assert classify_junction(zero_map(z, m), f).exact == f.is_injective()
        assert is_short_exact(f, zero_map(m, z)) == f.is_injective()


def test_right_flank_exact_iff_surjective(B31):
    # the junction at N is exact iff g is onto; 0 -> 0 -> M -g-> N -> 0 is
    # exact iff g is also one-to-one
    m, ideal = _ideal(B31)
    quot, _ = quotient_by_congruence(m, bourne_congruence(m, ideal))
    z = zero_module(B31)
    for g in enumerate_homs(m, quot):
        assert classify_junction(g, zero_map(quot, z)).exact == g.is_surjective()
        assert is_short_exact(zero_map(z, m), g) == (g.is_surjective() and g.is_injective())


def test_short_exact_equivalences_agree(B31, B43):
    # the three descriptions agree, and ``exact`` is the naive definition:
    # ker f = 0, f and g k-normal, im f = ker g, g onto
    for s in (B31, B43):
        m = s.left_module()
        subs = [SubStructure(m, 0b001), SubStructure(m, full_mask(m.order))]
        l_mods = [inclusion_map(t)[0] for t in subs]
        from finsemi.core import enumerate_congruences

        quots = [quotient_by_congruence(m, rho)[0] for rho in enumerate_congruences(m)]
        for lmod in l_mods:
            for q in quots:
                for f in enumerate_homs(lmod, m):
                    for g in enumerate_homs(m, q):
                        flags = short_exact_equivalences(f, g)
                        assert flags["exact"] == flags["iso"] == flags["explicit"]
                        ker_f = [x for x, y in enumerate(f.image_of) if y == m.zero]
                        ker_g = {x for x, y in enumerate(g.image_of) if y == q.zero}
                        naive = (ker_f == [lmod.zero]
                                 and oracle.is_k_normal(oracle.as_module(lmod), f.image_of)
                                 and oracle.is_k_normal(oracle.as_module(m), g.image_of)
                                 and set(f.image_of) == ker_g
                                 and set(g.image_of) == set(range(q.order)))
                        assert flags["exact"] == naive


def test_maps_that_do_not_meet_are_rejected(B31):
    # f is not one-to-one, so the junction at L is not exact, and the maps
    # must be rejected before that junction decides
    m, ideal = _ideal(B31)
    part, _ = inclusion_map(ideal)
    f, g = zero_map(m, m), identity_map(part)
    with pytest.raises(NotComposable):
        is_short_exact(f, g)
    with pytest.raises(NotComposable):
        short_exact_equivalences(f, g)


def test_mismatched_endpoints_rejected(B31, B):
    m = B31.left_module()
    mb = B.left_module()
    with pytest.raises(NotComposable):
        zero_map(m, m).compose(zero_map(mb, mb))


# ---------------------------------------------------------------------------
# splitting


def test_b31_sequence_left_splits_but_not_right(B31):
    # 0 -> K -> M -> M/K -> 0 left-splits iff id_K extends along the
    # inclusion, and right-splits iff id_{M/K} lifts through the projection
    m, ideal = _ideal(B31)
    part, _ = inclusion_map(ideal)
    quot, _ = quotient_by_congruence(m, bourne_congruence(m, ideal))

    def identity_lift(report, order):
        (lift,) = [r.witness for r in report.records
                   if r.kernel_mask == ideal.members and r.test_map == tuple(range(order))]
        return lift

    # x -> x * 2 in promoted coordinates
    assert identity_lift(is_i_injective(part, m), part.order) == (0, 1, 1)
    assert identity_lift(is_k_projective(quot, m), quot.order) is None


# ---------------------------------------------------------------------------
# isomorphism search


def test_self_isomorphism(B31):
    m = B31.left_module()
    iso = find_isomorphism(m, m)
    assert iso is not None and iso.is_injective() and iso.is_surjective()


def test_quotient_not_isomorphic_to_ideal(B31):
    # the quotient has a zero sum, the ideal is additively idempotent
    m, ideal = _ideal(B31)
    quot, _ = quotient_by_congruence(m, bourne_congruence(m, ideal))
    assert not are_isomorphic(quot, inclusion_map(ideal)[0])


def test_ideal_isomorphic_to_boolean_module(B31, B):
    # the unique B(3,1)-action on two idempotent elements
    m, ideal = _ideal(B31)
    imod = inclusion_map(ideal)[0]
    act = tuple(tuple(0 if s == 0 else x for x in range(2)) for s in range(3))
    from finsemi.core import validate_semimodule

    bmod = validate_semimodule(B31, ((0, 1), (1, 1)), act, zero=0)
    assert are_isomorphic(imod, bmod)


def test_isomorphism_respects_relabeling(B43):
    m = B43.left_module()
    # relabel the carrier with a permutation fixing nothing structural
    perm = (0, 2, 3, 1)
    inv = [0] * 4
    for old, new in enumerate(perm):
        inv[new] = old
    add = tuple(tuple(perm[m.add[inv[a]][inv[b]]] for b in range(4)) for a in range(4))
    act = tuple(tuple(perm[m.act[s][inv[a]]] for a in range(4)) for s in range(4))
    from finsemi.core import validate_semimodule

    other = validate_semimodule(B43, add, act, zero=perm[0])
    assert are_isomorphic(m, other)


def test_truncated_hom_search_is_not_a_missing_isomorphism(B43, monkeypatch):
    # a hom enumeration cut before its first map holds no bijection, which
    # says nothing about whether one exists
    from finsemi import homs

    real = homs.enumerate_homs
    monkeypatch.setattr(homs, "enumerate_homs",
                        lambda m, n, limits=None: real(m, n, Limits(max_hom_nodes=0)))
    m = B43.left_module()
    cut = homs.enumerate_homs(m, m)
    assert not cut.exhaustive and len(cut) == 0
    with pytest.raises(LimitExceeded):
        find_isomorphism(m, m)


def test_different_orders_never_isomorphic(B31):
    m = B31.left_module()
    assert find_isomorphism(m, zero_module(B31)) is None


def test_scalar_partition_fixes_the_tail_and_period():
    # kx = (k.1)x, so over one base the partition of the scalars by their
    # action on x decides which of x, 2x, 3x, ... coincide; the signature
    # needs no tail and period of its own
    modules = [m for order in (2, 3, 4) for s in enumerate_semirings(order)
               for m in bounded_family(s)]
    modules += [s.left_module() for _, s in _catalog_fixtures()]
    walks = {}
    for m in modules:
        for x in range(m.order):
            multiples = [x]
            while (nxt := m.add[multiples[-1]][x]) not in multiples:
                multiples.append(nxt)
            tail = multiples.index(nxt)
            walk = (tail, len(multiples) - tail)
            assert walks.setdefault((m.base, homs._scalar_signature(m, x)), walk) == walk
    assert len(set(walks.values())) > 2
