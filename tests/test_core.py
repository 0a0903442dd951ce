"""Core table validation, closures, congruences, quotients, enumerations.

Expected values are either forced by the definitions or computed by the
inline brute-force oracles next to the assertion that freezes them.
"""

import re
from dataclasses import fields

import pytest

from finsemi.core import (
    CongruencePartition,
    LinearMap,
    Limits,
    SubStructure,
    _bourne_quotient,
    _quotient,
    _sub_module,
    _translations,
    bits,
    bourne_congruence,
    bourne_quotient,
    congruence_closure,
    discrete_partition,
    enumerate_congruences,
    enumerate_subsemimodules,
    full_mask,
    generated_subsemimodule,
    linear_map_violations,
    make_partition,
    mask_of,
    partition_violations,
    product_module,
    quotient_by_congruence,
    semiring_violations,
    sub_module,
    subtractive_closure,
    universal_partition,
    v_and_k_sets,
    validate_semimodule,
    validate_semiring,
    zero_map,
    zero_module,
)
from finsemi.errors import AxiomViolations, IncompatiblePartition, ShapeError
from finsemi.auditor import enumerate_semirings
from finsemi.catalog import chain_lattice, make_B, make_end_semiring, make_matrix_semiring
from finsemi.homs import enumerate_homs


# ---------------------------------------------------------------------------
# validation


def test_boolean_semiring_flags(B):
    assert B.order == 2
    assert B.add == ((0, 1), (1, 1))
    assert B.mul == ((0, 0), (0, 1))
    assert B.commutative and B.zerosumfree and not B.cancellative


def test_b31_tables_built_by_hand(B31):
    # wrap rule applied cell by cell: overflow lands in [1, 3) mod 2
    assert B31.add == ((0, 1, 2), (1, 2, 1), (2, 1, 2))
    assert B31.mul == ((0, 0, 0), (0, 1, 2), (0, 2, 2))


def test_zero_equals_one_rejected():
    with pytest.raises(AxiomViolations) as err:
        validate_semiring(((0, 1), (1, 1)), ((0, 0), (0, 1)), zero=0, one=0)
    assert any(v.law == "zero-ne-one" for v in err.value.violations)


def test_ragged_table_rejected():
    with pytest.raises(ShapeError):
        validate_semiring(((0, 1), (1,)), ((0, 0), (0, 1)), zero=0, one=1)


def test_out_of_range_entry_rejected():
    with pytest.raises(ShapeError):
        validate_semiring(((0, 1), (1, 7)), ((0, 0), (0, 1)), zero=0, one=1)


def test_violation_names_the_failing_triple():
    # break left distributivity only: an ad-hoc corrupt 3-element table
    add = [[0, 1, 2], [1, 2, 1], [2, 1, 2]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    with pytest.raises(AxiomViolations) as err:
        validate_semiring(add, mul, zero=0, one=1)
    laws = {v.law for v in err.value.violations}
    assert laws  # at least one named law with a concrete witness
    assert all(isinstance(v.witness, tuple) for v in err.value.violations)


def test_nonstandard_zero_one_positions():
    # the boolean semiring with its two elements swapped
    s = validate_semiring(((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=1, one=0)
    assert s.zerosumfree


@pytest.mark.parametrize("add, mul, zero, one, message", [
    ([[False, True], [True, True]], [[0, 0], [0, 1]], 0, 1, "add[0][0] = False is not a valid index"),
    ([[0, 1], [1, 1]], [[0, 0], [0, True]], 0, 1, "mul[1][1] = True is not a valid index"),
    ([[0, 1], [1, 1]], [[0, 0], [0, 1]], False, True, "zero/one index out of range"),
    ([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, True, "zero/one index out of range"),
])
def test_bool_entries_rejected(add, mul, zero, one, message):
    # True and False are ints to Python, but the text format cannot read
    # them back, so they are not indices
    with pytest.raises(ShapeError, match=re.escape(message)):
        validate_semiring(add, mul, zero=zero, one=one)


def test_bool_entries_rejected_in_semimodules(B):
    with pytest.raises(ShapeError, match=r"act\[1\]\[1\] = True is not a valid index"):
        validate_semimodule(B, B.add, [[0, 0], [0, True]], zero=0)
    with pytest.raises(ShapeError, match="zero index out of range"):
        validate_semimodule(B, B.add, B.mul, zero=False)


def _field_tuple(t):
    return tuple(getattr(t, f.name) for f in fields(t))


def test_tables_store_the_dataclass_hash(catalog_fixtures):
    import pickle
    from dataclasses import make_dataclass

    for name, s in catalog_fixtures:
        again = validate_semiring([list(r) for r in s.add], [list(r) for r in s.mul],
                                  zero=s.zero, one=s.one)
        for t, fresh in ((s, again), (s.left_module(), again.left_module())):
            unhashed = pickle.loads(pickle.dumps(fresh))
            assert "_hash" not in vars(unhashed), name
            assert hash(t) == hash(_field_tuple(t)), name
            # the hash a frozen dataclass with the same fields generates
            plain = make_dataclass("Plain", [f.name for f in fields(t)], frozen=True)
            assert hash(t) == hash(plain(*_field_tuple(t))), name
            assert t is not fresh and t == fresh and hash(t) == hash(fresh), name
            assert "_hash" not in {f.name for f in fields(t)}
            assert "_hash" in vars(t) and str(hash(t)) not in repr(t), name
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t) == hash(_field_tuple(back)), name
            assert unhashed == t and hash(unhashed) == hash(t), name


# ---------------------------------------------------------------------------
# V(S) and K+(S)


def _brute_v_and_k(s):
    v = mask_of(a for a in range(s.order)
                if any(s.add[a][b] == s.zero for b in range(s.order)))
    k = mask_of(x for x in range(s.order)
                if all(s.add[x][y] != s.add[x][z]
                       for y in range(s.order) for z in range(s.order) if y != z))
    return v, k


def test_v_and_k_boolean(B):
    assert v_and_k_sets(B) == (0b01, 0b01)


def test_v_and_k_ring(Z2):
    v, _ = v_and_k_sets(Z2)
    assert v == full_mask(2)  # V(S) is everything exactly on rings
    assert Z2.cancellative


def test_v_and_k_b31(B31):
    v, k = v_and_k_sets(B31)
    assert v == 1 << B31.zero
    assert (v, k) == _brute_v_and_k(B31)


@pytest.mark.parametrize("n,i", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2)])
def test_v_and_k_against_brute_force(n, i):
    s = make_B(n, i)
    assert v_and_k_sets(s) == _brute_v_and_k(s)


# ---------------------------------------------------------------------------
# generated subsemimodules and subtractive closure


def test_generated_ideal_of_two(B31):
    m = B31.left_module()
    assert generated_subsemimodule(m, [2]).members == 0b101


def test_generated_empty_seed(B31):
    m = B31.left_module()
    assert generated_subsemimodule(m, []).members == 0b001


def test_generated_in_product(B):
    mb = B.left_module()
    m = product_module(mb, mb)  # (x, y) -> index 2 x + y
    assert generated_subsemimodule(m, [2]).members == mask_of([0, 2])


@pytest.mark.parametrize("seed", [[5], [-1], [True], 1 << 3, -1, True])
def test_generated_subsemimodule_rejects_seeds_outside_the_carrier(B31, seed):
    with pytest.raises(ShapeError):
        generated_subsemimodule(B31.left_module(), seed)


@pytest.mark.parametrize("pairs", [[(0, 7)], [(-1, 0)], [(0, True)]])
def test_congruence_closure_rejects_pairs_outside_the_carrier(B31, pairs):
    for parent in (B31, B31.left_module()):
        with pytest.raises(ShapeError):
            congruence_closure(parent, pairs)


def test_subtractive_closure_examples(B31, B43):
    m31 = B31.left_module()
    assert subtractive_closure(SubStructure(m31, 0b101)).members == 0b101
    m43 = B43.left_module()
    assert subtractive_closure(SubStructure(m43, 0b1001)).members == full_mask(4)
    assert subtractive_closure(SubStructure(m43, full_mask(4))).members == full_mask(4)


def test_closure_idempotent_and_detects_subtractive(B31, B43, BxB):
    for s in (B31, B43, BxB):
        m = s.left_module()
        for sub in enumerate_subsemimodules(m):
            once = subtractive_closure(sub)
            assert subtractive_closure(once).members == once.members
            assert sub.is_subtractive() == (once.members == sub.members)


def test_closure_equals_kernel_of_projection(B31, B43, BxB):
    # independent route: quotient by the Bourne relation, take the kernel
    for s in (B31, B43, BxB):
        m = s.left_module()
        for sub in enumerate_subsemimodules(m):
            _, proj = quotient_by_congruence(m, bourne_congruence(m, sub))
            assert proj.kernel_mask() == sub.subtractive_closure_members


def test_ring_subsemimodules_all_subtractive():
    for n in (2, 3, 4, 5):
        s = make_B(n, 0)
        m = s.left_module()
        for sub in enumerate_subsemimodules(m):
            assert sub.is_subtractive()


# ---------------------------------------------------------------------------
# Bourne congruences and quotients


def test_bourne_classes_b31(B31):
    m = B31.left_module()
    rho = bourne_congruence(m, SubStructure(m, 0b101))
    assert rho.class_of == (0, 1, 0)


def test_bourne_zero_ideal_is_discrete(B31):
    m = B31.left_module()
    rho = bourne_congruence(m, SubStructure(m, 0b001))
    assert rho.is_discrete()


def test_bourne_whole_module_is_universal(B31):
    m = B31.left_module()
    rho = bourne_congruence(m, SubStructure(m, full_mask(3)))
    assert rho.is_universal()


def test_quotient_b31_by_ideal(B31):
    # the two-class quotient gains a zero sum: [1] + [1] = [1 + 1] = [2] = [0]
    m = B31.left_module()
    quot, proj = quotient_by_congruence(m, bourne_congruence(m, SubStructure(m, 0b101)))
    assert quot.order == 2
    nz = 1 - quot.zero
    assert quot.add[nz][nz] == quot.zero
    assert proj.is_surjective()
    assert sorted(bits(proj.kernel_mask())) == [0, 2]


def test_quotient_by_discrete_is_same_module(B31):
    m = B31.left_module()
    quot, proj = quotient_by_congruence(m, discrete_partition(m))
    assert quot.order == m.order
    assert proj.is_injective() and proj.is_surjective()


def test_quotient_by_universal_is_zero(B31):
    m = B31.left_module()
    quot, _ = quotient_by_congruence(m, universal_partition(m))
    assert quot.order == 1


def test_incompatible_partition_rejected(B31):
    m = B31.left_module()
    with pytest.raises(IncompatiblePartition):
        make_partition(m, (0, 0, 1))  # 0 ~ 1 forces everything together


def test_quotient_rejects_a_directly_built_incompatible_partition(B31):
    # CongruencePartition(...) itself checks nothing; the public quotient must
    m = B31.left_module()
    with pytest.raises(IncompatiblePartition):
        quotient_by_congruence(m, CongruencePartition(m, (0, 0, 1)))


# ---------------------------------------------------------------------------
# congruence closure against a brute-force oracle


def _all_partitions(n):
    if n == 0:
        yield []
        return
    for part in _all_partitions(n - 1):
        for i, block in enumerate(part):
            yield part[:i] + [block + [n - 1]] + part[i + 1:]
        yield part + [[n - 1]]


def _brute_congruences(m):
    """Compatible partitions found by filtering every set partition."""
    out = []
    for part in _all_partitions(m.order):
        class_of = [0] * m.order
        for ci, block in enumerate(part):
            for x in block:
                class_of[x] = ci
        ok = True
        for a in range(m.order):
            for b in range(m.order):
                if class_of[a] != class_of[b]:
                    continue
                for c in range(m.order):
                    if class_of[m.add[a][c]] != class_of[m.add[b][c]]:
                        ok = False
                for s in range(m.base.order):
                    if class_of[m.act[s][a]] != class_of[m.act[s][b]]:
                        ok = False
        if ok:
            out.append(tuple(class_of))
    return out


def test_congruence_closure_oracle(B31):
    m = B31.left_module()
    compatible = _brute_congruences(m)

    def smallest_containing(pairs):
        best = None
        for class_of in compatible:
            if all(class_of[a] == class_of[b] for a, b in pairs):
                size = sum(1 for a in range(3) for b in range(3) if class_of[a] == class_of[b])
                if best is None or size < best[0]:
                    best = (size, class_of)
        return best[1]

    got = congruence_closure(m, [(0, 2)])
    want = smallest_containing([(0, 2)])
    assert [got.related(a, b) for a in range(3) for b in range(3)] == \
           [want[a] == want[b] for a in range(3) for b in range(3)]
    assert got.class_of == (0, 1, 0)

    assert congruence_closure(m, []).is_discrete()
    assert congruence_closure(m, [(0, 1)]).is_universal()


def test_enumerate_congruences_b31(B31):
    m = B31.left_module()
    cons = enumerate_congruences(m)
    assert cons.exhaustive
    got = sorted(c.class_of for c in cons)
    brute = sorted({_normalize(c) for c in _brute_congruences(m)})
    assert got == brute
    assert len(got) == 4


@pytest.mark.parametrize("limits", [Limits(max_steps=3), Limits(max_results=2)])
def test_truncated_congruence_enumeration(B43, limits):
    # a truncated enumeration says so, and still returns only congruences
    m = B43.left_module()
    cons = enumerate_congruences(m, limits)
    assert not cons.exhaustive
    assert 1 <= len(cons) <= 2
    assert {rho.class_of for rho in cons} < {rho.class_of for rho in enumerate_congruences(m)}
    for rho in cons:
        assert partition_violations(m, rho.class_of) == []


def test_semiring_translations_interleave_left_and_right_multiplication():
    # after the sums, left and right multiplication by each element, in turn
    s = make_end_semiring(chain_lattice(3))
    assert not s.commutative
    expected = []
    for c in range(s.order):
        expected.append(s.mul[c])
        expected.append(tuple(s.mul[r][c] for r in range(s.order)))
    assert _translations(s) == list(s.add) + expected


def test_closures_apply_the_generating_translations_only(monkeypatch):
    # each table stores far fewer translations than the n + |S| (n + 2n on a
    # semiring) that the checker applies, and no closure reads the full list
    from finsemi import core, semisimple

    m = make_end_semiring(chain_lattice(4)).left_module()
    big = make_matrix_semiring(make_B(3, 1), 2).left_module()
    assert (len(_translations(m)), len(_translations(big))) == (40, 162)
    stored = m.generating_translations
    assert sum(map(len, stored)) < 40 and m.generating_translations is stored
    assert sum(map(len, big.generating_translations)) <= 7
    assert "generating_translations" not in {f.name for f in fields(m)}

    def whole_tables(parent):
        raise AssertionError("a closure read every translation")

    monkeypatch.setattr(core, "_translations", whole_tables)
    for s in (make_end_semiring(chain_lattice(4)), make_B(4, 3)):
        for parent in (s, s.left_module()):
            enumerate_congruences(parent)
            semisimple.is_module_congruence_simple(parent)
            semisimple.is_module_ideal_simple(parent)
        enumerate_subsemimodules(s.left_module())
        enumerate_subsemimodules(s.left_module(), subtractive_only=True)


def _normalize(class_of):
    remap = {}
    out = []
    for c in class_of:
        remap.setdefault(c, len(remap))
        out.append(remap[c])
    return tuple(out)


def test_enumerate_congruences_boolean(B):
    cons = enumerate_congruences(B.left_module())
    assert [c.class_of for c in cons] == [(0, 0), (0, 1)]


def test_enumerate_congruences_zero_module(B31):
    cons = enumerate_congruences(zero_module(B31))
    assert len(cons) == 1


def test_congruences_reproduced_from_their_pairs(B31, B43):
    for s in (B31, B43):
        m = s.left_module()
        for rho in enumerate_congruences(m):
            pairs = [(a, b) for a in range(m.order) for b in range(m.order)
                     if rho.related(a, b)]
            assert congruence_closure(m, pairs).class_of == rho.class_of


def _join_of(x, y):
    """The join of two equivalences given by class maps, as a normalized
    class map: merge every element with the first member of its class in
    either map, then read the merged classes off in first-seen order."""
    n = len(x)
    up = list(range(n))

    def find(i):
        while up[i] != i:
            i = up[i]
        return i

    for cls in (x, y):
        first = {}
        for i, c in enumerate(cls):
            a, b = find(first.setdefault(c, i)), find(i)
            up[max(a, b)] = min(a, b)
    return _normalize([find(i) for i in range(n)])


def _all_pairs_lattice(parent):
    """Con(parent) as the join closure of the diagonal over Cg(a, b) for
    every pair a < b, sorted by class map."""
    n = parent.order
    principals = {congruence_closure(parent, [(a, b)]).class_of
                  for a in range(n) for b in range(a + 1, n)}
    lattice = {tuple(range(n))}
    frontier = list(lattice)
    while frontier:
        rho = frontier.pop()
        for cg in principals:
            bigger = _join_of(rho, cg)
            if bigger not in lattice:
                lattice.add(bigger)
                frontier.append(bigger)
    return sorted(lattice)


def _is_idempotent(parent):
    return all(parent.add[x][x] == x for x in range(parent.order))


def _classes_under(pi, class_of):
    """The class map of the partition moved along x -> pi[x], normalized."""
    moved = [0] * len(class_of)
    for x, c in enumerate(class_of):
        moved[pi[x]] = c
    return _normalize(moved)


def test_covering_pairs_give_every_congruence_of_small_idempotent_carriers():
    # the semirings of order <= 4 as semirings and through their families
    # (left module, subsemimodules, quotients)
    from finsemi.projinj import bounded_family

    semirings = [s for order in (2, 3, 4) for s in enumerate_semirings(order)]
    assert len(semirings) == 48
    checked = 0
    for k, s in enumerate(semirings):
        for parent in [s, *bounded_family(s)]:
            if not _is_idempotent(parent):
                continue
            cons = enumerate_congruences(parent)
            assert cons.exhaustive
            assert [rho.class_of for rho in cons] == _all_pairs_lattice(parent), (k, parent)
            checked += 1
    assert checked > 100


def _idempotent_fixtures():
    from finsemi.auditor import _catalog_fixtures
    from finsemi.catalog import diamond_m3, pentagon_n5

    out = dict(_catalog_fixtures())
    out["E(C4)"] = make_end_semiring(chain_lattice(4))
    out["E(M3)-top"] = make_end_semiring(diamond_m3(), top_preserving=True)
    out["E(N5)-top"] = make_end_semiring(pentagon_n5(), top_preserving=True)
    return out


# On the semirings E(M3) and E(M3)-top the all-pairs reference alone would
# add over a second to the run, so those two are checked as modules only;
# a semiring takes the same path, and the others check it.
@pytest.mark.parametrize("name, levels", [
    ("BxB", "both"), ("BxBxB", "both"), ("E(M3)", "module"), ("E(N5)", "both"),
    ("E(C4)", "both"), ("E(M3)-top", "module"), ("E(N5)-top", "both"),
])
def test_covering_pairs_give_every_congruence_of_the_idempotent_fixtures(
        name, levels, relabelled):
    # the reference lattice is computed once, in the catalog labelling, and
    # carried to a seeded relabelling along the permutation
    import random

    s = _idempotent_fixtures()[name]
    pi = list(range(s.order))
    random.Random(f"covering/{name}").shuffle(pi)
    moved = relabelled(s, pi)
    pairs = [(s.left_module(), moved.left_module())]
    if levels == "both":
        pairs.append((s, moved))
    for parent, copy in pairs:
        assert _is_idempotent(parent)
        want = _all_pairs_lattice(parent)
        assert [rho.class_of for rho in enumerate_congruences(parent)] == want
        assert [rho.class_of for rho in enumerate_congruences(copy)] == \
            sorted(_classes_under(pi, c) for c in want)


def _covers(add, lo, hi):
    """lo < hi in the additive order, with nothing strictly between."""
    n = len(add)
    return (lo != hi and add[lo][hi] == hi
            and not any(add[lo][c] == c and add[c][hi] == hi for c in range(n) if c not in (lo, hi)))


def test_only_idempotent_carriers_take_the_covering_pairs(monkeypatch):
    # counted principal closures: all n(n - 1)/2 pairs where x + x = x fails
    # somewhere, fewer on E(C4), one per covering pair of its additive order
    from finsemi import core

    calls = []
    original = core.congruence_closure

    def counting(parent, pairs):
        calls.append(pairs)
        return original(parent, pairs)

    monkeypatch.setattr(core, "congruence_closure", counting)
    for s in (make_B(3, 1), make_B(4, 3)):
        for parent in (s, s.left_module()):
            assert not _is_idempotent(parent)
            calls.clear()
            enumerate_congruences(parent)
            n = parent.order
            assert len(calls) == n * (n - 1) // 2
    m = make_end_semiring(chain_lattice(4)).left_module()
    calls.clear()
    enumerate_congruences(m)
    covering = [(a, b) for a in range(m.order) for b in range(a + 1, m.order)
                if any(_covers(m.add, lo, hi) for lo, hi in ((a, b), (b, a)))]
    assert calls == [[pair] for pair in covering]
    assert len(covering) < m.order * (m.order - 1) // 2


def test_bourne_generated_by_ideal_pairs(B31, B43, BxB):
    # the congruence generated by N x N is the Bourne relation of N
    for s in (B31, B43, BxB):
        m = s.left_module()
        for sub in enumerate_subsemimodules(m):
            members = list(bits(sub.members))
            pairs = [(a, b) for a in members for b in members]
            assert congruence_closure(m, pairs).class_of == \
                bourne_congruence(m, sub).class_of


# ---------------------------------------------------------------------------
# subsemimodule enumeration


def _brute_subsemimodules(m):
    out = []
    for mask in range(1 << m.order):
        if not mask >> m.zero & 1:
            continue
        fine = all(mask >> m.add[x][y] & 1 for x in bits(mask) for y in bits(mask))
        fine = fine and all(mask >> m.act[s][x] & 1
                            for s in range(m.base.order) for x in bits(mask))
        if fine:
            out.append(mask)
    return sorted(out)


def test_enumerate_subsemimodules_b31(B31):
    m = B31.left_module()
    subs = enumerate_subsemimodules(m)
    assert subs.exhaustive
    assert [sorted(bits(t.members)) for t in subs] == [[0], [0, 2], [0, 1, 2]]


def test_enumerate_subsemimodules_b43_matches_brute_force(B43):
    # the principal ideal of 2 wraps onto {0, 2, 3}: four ideals in total
    m = B43.left_module()
    subs = enumerate_subsemimodules(m)
    assert [t.members for t in subs] == _brute_subsemimodules(m)
    assert [sorted(bits(t.members)) for t in subs] == \
           [[0], [0, 3], [0, 2, 3], [0, 1, 2, 3]]


def test_subtractive_only_filter_agrees(B31, B43, BxB):
    for s in (B31, B43, BxB):
        m = s.left_module()
        fast = [t.members for t in enumerate_subsemimodules(m, subtractive_only=True)]
        slow = [t.members for t in enumerate_subsemimodules(m) if t.is_subtractive()]
        assert fast == slow


def test_subtractive_b43_trivial(B43):
    m = B43.left_module()
    assert [t.members for t in enumerate_subsemimodules(m, subtractive_only=True)] == \
           [0b0001, 0b1111]


def test_zero_module_has_one_subsemimodule(B31):
    subs = enumerate_subsemimodules(zero_module(B31))
    assert len(subs) == 1


def test_limit_marks_non_exhaustive(B43):
    m = B43.left_module()
    subs = enumerate_subsemimodules(m, Limits(max_results=2))
    assert not subs.exhaustive
    assert len(subs) <= 2


@pytest.mark.parametrize("enumerate_all, size", [
    (lambda limits: enumerate_subsemimodules(make_B(3, 1).left_module(), limits), 3),
    (lambda limits: enumerate_congruences(make_B(3, 1).left_module(), limits), 4),
    (lambda limits: enumerate_semirings(4, limits=limits), 40),
], ids=["subsemimodules", "congruences", "semirings"])
def test_a_cap_the_answer_just_fits_is_not_a_truncation(enumerate_all, size):
    # truncated means a further result exists, not that the cap was reached
    full = enumerate_all(Limits())
    assert full.exhaustive and len(full) == size
    fits = enumerate_all(Limits(max_results=size))
    assert fits.exhaustive and fits.items == full.items
    cut = enumerate_all(Limits(max_results=size - 1))
    assert not cut.exhaustive and len(cut) == size - 1
    assert set(cut.items) < set(full.items)


@pytest.mark.parametrize("cap", [0, -1])
def test_limits_reject_a_result_cap_below_one(cap):
    # each enumerator puts its first result in before any cap check
    with pytest.raises(ValueError):
        Limits(max_results=cap)


def _square_of_b31():
    """B(3,1) + B(3,1), order 9: not additively idempotent and not cyclic."""
    m = make_B(3, 1).left_module()
    return product_module(m, m)


def _left_e_c4():
    """E(C4) on itself, order 20: additively idempotent and cyclic."""
    return make_end_semiring(chain_lattice(4)).left_module()


# each enumerator by what it enumerates, and the limits that cut it
_STEPS_AND_RESULTS = ("max_steps", "max_results")
_ENUMERATORS = {
    "subsemimodules of B(3,1)^2": (lambda limits: enumerate_subsemimodules(
        _square_of_b31(), limits), _STEPS_AND_RESULTS),
    "subtractive subsemimodules of B(3,1)^2": (lambda limits: enumerate_subsemimodules(
        _square_of_b31(), limits, subtractive_only=True), _STEPS_AND_RESULTS),
    "subsemimodules of E(C4)": (lambda limits: enumerate_subsemimodules(
        _left_e_c4(), limits), _STEPS_AND_RESULTS),
    "subtractive subsemimodules of E(C4)": (lambda limits: enumerate_subsemimodules(
        _left_e_c4(), limits, subtractive_only=True), _STEPS_AND_RESULTS),
    "congruences of B(3,1)^2": (lambda limits: enumerate_congruences(
        _square_of_b31(), limits), _STEPS_AND_RESULTS),
    "congruences of E(C4)": (lambda limits: enumerate_congruences(
        _left_e_c4(), limits), _STEPS_AND_RESULTS),
    "homs out of cyclic E(C4)": (lambda limits: enumerate_homs(
        _left_e_c4(), _left_e_c4(), limits), ("max_hom_nodes",)),
    "homs out of non-cyclic B(3,1)^2": (lambda limits: enumerate_homs(
        _square_of_b31(), _square_of_b31(), limits), ("max_hom_nodes",)),
    "semirings of order 3": (lambda limits: enumerate_semirings(3, limits=limits),
                             _STEPS_AND_RESULTS),
    "semirings of order 4": (lambda limits: enumerate_semirings(4, limits=limits),
                             _STEPS_AND_RESULTS),
}


def _first_exhaustive(run, field: str) -> int:
    """The least value of ``field`` under which ``run`` is exhaustive."""
    hi = 1
    while not run(Limits(**{field: hi})).exhaustive:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if run(Limits(**{field: mid})).exhaustive:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("name", list(_ENUMERATORS))
def test_every_enumerator_cuts_by_the_one_rule(name):
    # over a sweep of each limit: the items are the full answer's, in its
    # order, and a result cap keeps exactly as many as it allows; exhaustive
    # means the full answer and holds at every larger limit, from a result
    # cap that the answer just fits on; a larger limit drops no item
    run, cut_by = _ENUMERATORS[name]
    full = run(Limits())
    assert full.exhaustive
    position = {x: i for i, x in enumerate(full.items)}
    assert len(position) == len(full) > 2
    for field in cut_by:
        first = _first_exhaustive(run, field)
        low = 1 if field == "max_results" else 0
        assert first > low
        assert field != "max_results" or first == len(full)
        values = sorted({*range(low, min(first, 12)), *range(low, first, 1 + first // 40),
                         first - 1, first, first + 1, 2 * first})
        before: set = set()
        for v in values:
            cut = run(Limits(**{field: v}))
            at = [position[x] for x in cut.items]
            assert at == sorted(set(at)), (field, v)
            assert field != "max_results" or len(cut) == min(v, len(full)), v
            assert before <= set(cut.items), (field, v)
            assert cut.exhaustive == (v >= first), (field, v)
            if cut.exhaustive:
                assert cut.items == full.items
            before = set(cut.items)


def test_subtractive_lattice_is_stored_per_table_and_limits(monkeypatch):
    from finsemi import core

    # E(C4) is additively idempotent, so its lattice is built by the
    # down-set route; each call of that builder is one lattice built
    calls = []
    original = core._subtractive_down_sets

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_subtractive_down_sets", counting)
    s = make_end_semiring(chain_lattice(4))
    m = s.left_module()
    assert s.left_module() is m
    first = enumerate_subsemimodules(m, subtractive_only=True)
    assert first.exhaustive and len(first) == 4 and calls
    calls.clear()
    assert enumerate_subsemimodules(s.left_module(), subtractive_only=True) is first
    assert not calls
    # other limits are not served from the stored lattice
    cut = enumerate_subsemimodules(m, Limits(max_steps=3), subtractive_only=True)
    assert calls and not cut.exhaustive and len(cut) < len(first)
    assert enumerate_subsemimodules(m, subtractive_only=True) is first
    # an equal table built apart has its own store; eq, hash, repr unchanged
    fresh = make_end_semiring(chain_lattice(4))
    assert fresh.left_module() == m and hash(fresh.left_module()) == hash(m)
    assert repr(fresh.left_module()) == repr(m) and repr(fresh) == repr(s)
    calls.clear()
    again = enumerate_subsemimodules(fresh.left_module(), subtractive_only=True)
    assert calls and again is not first
    assert [t.members for t in again] == [t.members for t in first]


def test_table_with_stored_columns_survives_pickling(B31, catalog_fixtures):
    import pickle

    # the regular module of each fixture is cyclic; a square of one is not
    tables = [s.left_module() for _, s in catalog_fixtures]
    tables.append(product_module(B31.left_module(), B31.left_module()))
    for t in tables:
        n = t.order
        assert t.columns == tuple(tuple(row[x] for row in t.act) for x in range(n))
        orbits = [x for x in range(n) if len({row[x] for row in t.act}) == n]
        assert t.cyclic_generator == (orbits[0] if orbits else None)
        assert {"columns", "cyclic_generator"} <= set(vars(t))
        assert not {"columns", "cyclic_generator"} & {f.name for f in fields(t)}
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
        assert not {"columns", "cyclic_generator"} & set(vars(back))
        assert back.columns == t.columns and back.cyclic_generator == t.cyclic_generator
    assert tables[0].cyclic_generator is not None and tables[-1].cyclic_generator is None


def test_table_with_a_stored_lattice_survives_pickling():
    import pickle

    s = make_end_semiring(chain_lattice(4))
    first = enumerate_subsemimodules(s.left_module(), subtractive_only=True)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s) and back.left_module() == s.left_module()
    assert back.left_module().base is back
    stored = enumerate_subsemimodules(back.left_module(), subtractive_only=True)
    assert [t.members for t in stored] == [t.members for t in first]
    assert all(t.parent is back.left_module() for t in stored)


def test_derived_modules_and_maps_are_built_once(B31):
    m = B31.left_module()
    sub = SubStructure(m, 0b101)
    part, to_parent = sub_module(sub)
    assert sub_module(SubStructure(m, 0b101)) == (part, to_parent)
    assert sub_module(SubStructure(m, 0b101))[0] is part
    rho = bourne_congruence(m, sub)
    quot, proj = _quotient(m, rho)
    again = CongruencePartition(m, rho.class_of)
    assert again is not rho and _quotient(m, again)[0] is quot
    assert _quotient(m, again)[1] is proj
    assert quotient_by_congruence(m, again)[0] is quot
    z = zero_module(B31)
    assert zero_module(B31) is z and z.order == 1
    assert zero_map(m, z) is zero_map(m, z) and zero_map(z, m) is zero_map(z, m)
    assert zero_map(z, part) is not zero_map(z, m)
    # an equal table built apart has stores of its own
    other = make_B(3, 1)
    assert other == B31 and zero_module(other) is not z and zero_module(other) == z
    assert sub_module(SubStructure(other.left_module(), 0b101))[0] is not part


def test_the_mask_accessors_share_the_store_of_the_checked_wrappers(B31, catalog_fixtures):
    # a mask the engine closed itself reaches the same stored pairs as a
    # checked SubStructure, whichever comes first
    for m in [B31.left_module()] + [s.left_module() for _, s in catalog_fixtures]:
        for i, k in enumerate(t.members for t in enumerate_subsemimodules(m)):
            if i % 2:
                assert sub_module(SubStructure(m, k)) is _sub_module(m, k)
            else:
                assert _sub_module(m, k) is sub_module(SubStructure(m, k))
            if SubStructure(m, k).is_subtractive():
                quot = bourne_quotient(m, SubStructure(m, k))
                assert _bourne_quotient(m, k) is quot
                assert bourne_quotient(m, SubStructure(m, k)) is quot


def test_the_whole_carrier_and_the_diagonal_give_the_module_itself(B31, catalog_fixtures):
    # no table equal to m is built beside it, so m's stores serve these too
    mods = [B31.left_module(), product_module(B31.left_module(), B31.left_module())]
    mods += [s.left_module() for _, s in catalog_fixtures]
    for m in mods:
        identity = tuple(range(m.order))
        assert sub_module(SubStructure(m, full_mask(m.order))) == (m, identity)
        assert sub_module(SubStructure(m, full_mask(m.order)))[0] is m
        quot, proj = _quotient(m, discrete_partition(m))
        assert quot is m and (proj.source, proj.target, proj.image_of) == (m, m, identity)
        assert quotient_by_congruence(m, discrete_partition(m))[0] is m
        # the Bourne congruence of {0} is the diagonal
        assert bourne_quotient(m, SubStructure(m, 1 << m.zero))[0] is m


def test_subsemimodule_lattice_is_stored_per_table_and_limits(monkeypatch):
    from finsemi import core

    # each closure the full walk makes is one call of _closure_mask
    calls = []
    original = core._closure_mask

    def counting(*args):
        calls.append(args)
        return original(*args)

    s = make_end_semiring(chain_lattice(4))
    m = s.left_module()
    monkeypatch.setattr(core, "_closure_mask", counting)
    first = enumerate_subsemimodules(m)
    assert first.exhaustive and len(first) > 4 and calls
    calls.clear()
    assert enumerate_subsemimodules(s.left_module()) is first
    assert not calls
    # other limits build and store their own, truncated or not
    cut = enumerate_subsemimodules(m, Limits(max_steps=3))
    assert calls and not cut.exhaustive and len(cut) < len(first)
    calls.clear()
    assert enumerate_subsemimodules(m, Limits(max_steps=3)) is cut
    assert not calls and not cut.exhaustive
    assert enumerate_subsemimodules(m) is first
    # the subtractive lattice is stored apart from the full one
    assert enumerate_subsemimodules(m, subtractive_only=True) is not first
    fresh = make_end_semiring(chain_lattice(4)).left_module()
    again = enumerate_subsemimodules(fresh)
    assert calls and again is not first
    assert [t.members for t in again] == [t.members for t in first]


def test_table_with_filled_stores_survives_pickling(B31):
    import pickle

    s = make_B(3, 1)
    m = s.left_module()
    z = zero_module(s)
    part, _ = sub_module(SubStructure(m, 0b101))
    enumerate_subsemimodules(m)
    enumerate_subsemimodules(m, subtractive_only=True)
    quot, _ = bourne_quotient(m, SubStructure(m, 0b101))
    # m is the source of a zero map into z and z of one into m, so the two
    # stores key each table by the other
    zero_map(m, z)
    zero_map(z, m)
    for t in (s, m, z, part, quot):
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and back is not t
    back = pickle.loads(pickle.dumps((s, m, z)))
    assert back == (s, m, z) and back[1].base is back[0] and back[2].base is back[0]
    assert zero_module(back[0]) == z and zero_map(back[1], back[2]) == zero_map(m, z)


@pytest.mark.parametrize("limits", [Limits(max_steps=3), Limits(max_results=2)])
def test_truncated_subtractive_enumeration(limits):
    # a truncated subtractive walk says so, and returns only subtractive
    # subsemimodules of the full answer
    m = make_end_semiring(chain_lattice(4)).left_module()
    full = {t.members for t in enumerate_subsemimodules(m, subtractive_only=True)}
    assert len(full) == 4
    subt = enumerate_subsemimodules(m, limits, subtractive_only=True)
    assert not subt.exhaustive
    assert 1 <= len(subt) <= 3
    for t in subt:
        assert SubStructure(m, t.members).is_subtractive()
        assert t.members in full


# ---------------------------------------------------------------------------
# promotion and products


def test_sub_module_roundtrip(B31):
    m = B31.left_module()
    inner, to_parent = sub_module(SubStructure(m, 0b101))
    assert to_parent == (0, 2)
    assert inner.order == 2
    assert inner.add[1][1] == 1  # 2 + 2 = 2 upstairs


def test_product_module_shape(B):
    mb = B.left_module()
    p = product_module(mb, mb)
    assert p.order == 4
    assert p.zero == 0
    assert p.add[1][2] == 3


def test_semiring_congruences_refine_module_congruences():
    # two-sided compatibility only removes relations, never adds them
    from finsemi.auditor import enumerate_semirings

    for s in enumerate_semirings(4):
        as_module = {rho.class_of for rho in enumerate_congruences(s.left_module())}
        as_semiring = {rho.class_of for rho in enumerate_congruences(s)}
        assert as_semiring <= as_module
        if s.commutative:
            assert as_semiring == as_module


def test_substructure_must_be_closed(B31):
    m = B31.left_module()
    with pytest.raises(IncompatiblePartition, match=re.escape("closure adds [2]")):
        SubStructure(m, 0b011)  # 1 + 1 = 2 escapes {0, 1}
    with pytest.raises(IncompatiblePartition):
        SubStructure(m, 0b100)  # missing zero


@pytest.mark.parametrize("members", [0b1001, 1 << 10 | 1, -1, True],
                         ids=["bit 3", "bit 10", "negative", "bool"])
def test_substructure_rejects_masks_outside_the_carrier(B31, members):
    with pytest.raises(ShapeError, match="is not a subset of the 3 elements"):
        SubStructure(B31.left_module(), members)


@pytest.mark.parametrize("image_of", [(0, 1, 9), (0, 1, -1), (0, True, 2), (0, 1.0, 2)])
def test_linear_map_rejects_entries_outside_the_target(B31, image_of):
    m = B31.left_module()
    with pytest.raises(ShapeError, match="image_of index out of range"):
        LinearMap(m, m, image_of)


# ---------------------------------------------------------------------------
# values the engine builds unchecked


def _checked(fn, name, check, record):
    """``fn`` wrapped so that each call first records what ``check`` finds."""
    def wrapper(*args):
        record[name].append(check(*args))
        return fn(*args)
    return wrapper


def test_engine_built_values_pass_the_public_checks(monkeypatch):
    """Every map, quotient and semiring table the engine builds without its
    check passes that check, over the catalog fixtures and the order <= 3
    corpus.  Each private builder is rebound in every finsemi module that
    holds it, so calls from inside ``core`` are seen too."""
    import sys
    import finsemi.auditor as auditor
    import finsemi.core as core

    checks = {
        "_linear_map": lambda source, target, image_of: (
            [] if isinstance(image_of, tuple) else ["image_of is not a tuple"]
        ) + linear_map_violations(source, target, image_of),
        "_quotient": lambda m, rho: (
            [] if rho.parent == m else ["partition of another parent"]
        ) + partition_violations(m, rho.class_of),
        "_semiring_table": semiring_violations,
    }
    record = {name: [] for name in checks}
    originals = {name: getattr(core, name) for name in checks}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "finsemi" or mod_name.startswith("finsemi."):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, _checked(fn, name, checks[name], record))
    # cached results from earlier tests would hide the builds
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("finsemi."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()

    try:
        for name, s in auditor._catalog_fixtures():
            auditor.audit_instance(s, instance=name)
        auditor.fixture_expectation_records()
        auditor.audit_corpus(order_bound=3)
    finally:
        # a bad value usually also breaks the engine further on; report the value
        bad = {name: [v for v in found if v] for name, found in record.items()}
        assert not any(bad.values()), {name: (len(v), v[:1]) for name, v in bad.items() if v}
    for name, found in record.items():
        assert found, f"{name} never ran"
