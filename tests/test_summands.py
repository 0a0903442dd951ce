"""Direct sums, Comp, retracts, summand posets, irreducible decompositions."""

import random
from itertools import combinations

import pytest

from finsemi.auditor import enumerate_semirings
from finsemi.catalog import diamond_m3, make_end_semiring, pentagon_n5
from finsemi.core import (
    SubStructure,
    _cyclic_generator,
    bourne_congruence,
    full_mask,
    generated_subsemimodule,
    mask_of,
    product_module,
    quotient_by_congruence,
    sub_module,
    zero_module,
)
from finsemi.errors import DegenerateStructure
from finsemi.homs import are_isomorphic
from finsemi.projinj import bounded_family, hom_monoid
from finsemi.summands import (
    comp_elements,
    decomposition_from_parts,
    end_semiring,
    golan_condition3,
    irreducible_decomposition,
    is_direct_sum,
    projection_identities_hold,
    retract_check,
    summand_poset,
)


def test_coordinate_sum_is_direct(B):
    m = product_module(B.left_module(), B.left_module())
    ok, _ = is_direct_sum(m, [SubStructure(m, mask_of([0, 2])),
                              SubStructure(m, mask_of([0, 1]))])
    assert ok


def test_diagonal_plus_axis_not_direct(B):
    # intersection is trivial, yet (1,1) = (1,1)+(0,0) = (1,1)+(1,0)
    mb = B.left_module()
    m = product_module(mb, mb)
    diag = generated_subsemimodule(m, [3])
    axis = generated_subsemimodule(m, [2])
    assert diag.members & axis.members == 1 << m.zero
    ok, witness = is_direct_sum(m, [diag, axis])
    assert not ok
    assert witness[0] == "double" and witness[1] == 3


def test_ideal_plus_whole_not_direct(B31):
    m = B31.left_module()
    ok, witness = is_direct_sum(m, [SubStructure(m, 0b101),
                                    SubStructure(m, full_mask(3))])
    assert not ok and witness[0] == "double"


# ---------------------------------------------------------------------------
# End and Comp


def test_end_boolean_is_boolean(B):
    e = end_semiring(B.left_module())
    assert (e.semiring.add, e.semiring.mul) == (B.add, B.mul)


def test_end_b31_has_three_elements(B31):
    e = end_semiring(B31.left_module())
    assert e.semiring.order == 3


def test_end_of_zero_module_degenerate(B31):
    with pytest.raises(DegenerateStructure):
        end_semiring(zero_module(B31))


def _check_end_table(m):
    """Each cell of End(m) is the composite, or the pointwise sum, of the
    maps it indexes; False when End(m) is degenerate."""
    try:
        e = end_semiring(m)
    except DegenerateStructure:
        return False
    index = {f.image_of: i for i, f in enumerate(e.maps)}
    for i, f in enumerate(e.maps):
        for j, h in enumerate(e.maps):
            assert e.semiring.mul[i][j] == index[f.compose(h).image_of]
            pointwise = tuple(m.add[x][y] for x, y in zip(f.image_of, h.image_of))
            assert e.semiring.add[i][j] == index[pointwise]
    assert e.maps[e.semiring.zero].is_zero()
    assert e.maps[e.semiring.one].image_of == tuple(range(m.order))
    return True


def _check_hom_monoid(a, b):
    monoid, maps = hom_monoid(a, b)
    index = {f.image_of: i for i, f in enumerate(maps)}
    for i, f in enumerate(maps):
        for j, h in enumerate(maps):
            pointwise = tuple(b.add[x][y] for x, y in zip(f.image_of, h.image_of))
            assert monoid.add[i][j] == index[pointwise]
    assert maps[monoid.zero].is_zero()


def test_end_and_hom_tables_follow_the_maps(relabelled):
    # the tables are keyed on generator images, or on the image of the
    # generator of a cyclic source; each cell must still be the composite,
    # or the pointwise sum, of the maps it indexes.  Sums of two family
    # members are sources with more than one generator.
    ends = 0
    for s in (s for order in (2, 3) for s in enumerate_semirings(order)):
        family = bounded_family(s)
        sums = [product_module(a, b) for a, b in combinations(family, 2)
                if a.order * b.order <= 9]
        for m in family + sums:
            ends += _check_end_table(m)
        for a in family + sums:
            for b in family:
                _check_hom_monoid(a, b)
    assert ends > 20
    # the regular modules of relabelled E(M3) and E(N5), both variants:
    # cyclic sources of order 27 to 50, where the tables are keyed by ints
    orders = []
    for lat in (diamond_m3(), pentagon_n5()):
        for top in (False, True):
            s = make_end_semiring(lat, top_preserving=top)
            pi = list(range(s.order))
            random.Random(s.order).shuffle(pi)
            m = relabelled(s, pi).left_module()
            assert _cyclic_generator(m) is not None
            assert _check_end_table(m)
            _check_hom_monoid(m, m)
            orders.append(m.order)
    assert min(orders) >= 27 and max(orders) == 50


def test_comp_examples(B, B31, BxB):
    assert sorted(comp_elements(B)) == [0, 1]
    assert sorted(comp_elements(B31)) == [0, 1]
    assert sorted(comp_elements(BxB)) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# summand posets and retracts


def test_b31_summands_trivial_but_ideal_is_retract(B31):
    m = B31.left_module()
    poset = summand_poset(m)
    assert poset.masks() == (0b001, 0b111)
    assert not poset.is_summand(0b101)
    alpha = retract_check(m, SubStructure(m, 0b101))
    assert alpha is not None and alpha.image_of == (0, 2, 2)


def test_retract_of_zero_substructure(B31):
    m = B31.left_module()
    alpha = retract_check(m, SubStructure(m, 0b001))
    assert alpha is not None and alpha.is_zero()


def test_b43_nonsubtractive_ideal_is_retract(B43):
    m = B43.left_module()
    alpha = retract_check(m, SubStructure(m, 0b1001))
    assert alpha is not None
    assert alpha.image_of == tuple(B43.mul[x][3] for x in range(4))


def test_product_has_four_summands(BxB):
    poset = summand_poset(BxB.left_module())
    assert len(poset.nodes) == 4
    for mask, comask in poset.complements.items():
        ok, _ = is_direct_sum(BxB.left_module(),
                              [SubStructure(BxB.left_module(), mask),
                               SubStructure(BxB.left_module(), comask)])
        assert ok


def test_summand_poset_builds_a_substructure_per_node_only(monkeypatch, B):
    from finsemi import core
    from finsemi.catalog import make_product

    built = []
    original = core.SubStructure.__post_init__

    def counting(self):
        built.append(self.members)
        return original(self)

    m = make_product([B, B, B]).left_module()
    end_semiring(m)  # the hom search builds no SubStructure either way
    monkeypatch.setattr(core.SubStructure, "__post_init__", counting)
    poset = summand_poset(m)
    assert len(poset.nodes) == 8
    assert sorted(built) == sorted(poset.masks())


def test_every_summand_is_subtractive(B31, B43, BxB):
    for s in (B31, B43, BxB):
        m = s.left_module()
        for node in summand_poset(m).nodes:
            assert node.is_subtractive()


def test_every_summand_is_a_retract_converse_fails(B31):
    m = B31.left_module()
    poset = summand_poset(m)
    for node in poset.nodes:
        assert retract_check(m, node) is not None
    # regression pin: a retract that is not a summand
    assert retract_check(m, SubStructure(m, 0b101)) is not None
    assert not poset.is_summand(0b101)


def test_golan_condition3_matches_summands(B31, BxB):
    from finsemi.core import enumerate_subsemimodules

    for s in (B31, BxB):
        m = s.left_module()
        subs = list(enumerate_subsemimodules(m))
        poset = summand_poset(m)
        for sub in subs:
            assert golan_condition3(m, sub, subs) == poset.is_summand(sub.members)


# ---------------------------------------------------------------------------
# decompositions


def test_product_decomposes_into_two_boolean_parts(BxB):
    dec = irreducible_decomposition(BxB)
    assert len(dec.parts) == 2
    assert projection_identities_hold(dec)
    for part in dec.parts:
        mod = sub_module(part)[0]
        assert mod.order == 2
        nz = 1 - mod.zero
        assert mod.add[nz][nz] == nz  # additively idempotent two-element part


def test_b31_is_one_irreducible_part(B31):
    dec = irreducible_decomposition(B31)
    assert [p.members for p in dec.parts] == [full_mask(3)]


def test_b43_is_one_irreducible_part(B43):
    dec = irreducible_decomposition(B43)
    assert [p.members for p in dec.parts] == [full_mask(4)]


def test_triple_product_decomposes_into_three(B):
    from finsemi.catalog import make_product

    s = make_product([B, B, B])
    dec = irreducible_decomposition(s)
    assert len(dec.parts) == 3
    assert projection_identities_hold(dec)


def test_quotient_by_summand_isomorphic_to_complement(BxB):
    m = BxB.left_module()
    poset = summand_poset(m)
    for mask, comask in poset.complements.items():
        quot, _ = quotient_by_congruence(m, bourne_congruence(m, SubStructure(m, mask)))
        assert are_isomorphic(quot, sub_module(SubStructure(m, comask))[0])


def test_unit_components_nonzero_in_decomposition(BxB):
    dec = decomposition_from_parts(
        BxB.left_module(),
        [SubStructure(BxB.left_module(), p) for p in
         irreducible_decomposition(BxB).part_masks()])
    comps = [e.image_of[BxB.one] for e in dec.projections]
    assert all(c != BxB.zero for c in comps)
