"""Direct sums, retracts, endomorphism semirings, complemented idempotents,
and decomposition into irreducible summands."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEFAULT_LIMITS,
    LinearMap,
    Limits,
    SemimoduleTable,
    SemiringTable,
    SubStructure,
    _reach,
    _semiring_table,
    bits,
    full_mask,
    sub_module,
)
from .errors import CrosscheckFailure, DegenerateStructure, LimitExceeded
from .homs import _MapKeys, enumerate_homs


# ---------------------------------------------------------------------------
# direct sums


def is_direct_sum(m: SemimoduleTable, parts: list[SubStructure]):
    """Whether ``m`` is the internal direct sum of ``parts``.

    Returns (True, components) with components[x] the unique tuple summing
    to x, or (False, witness) where witness explains the failure: either
    ("uncovered", x) or ("double", x, rep, rep2).
    """
    for p in parts:
        if p.parent != m:
            raise CrosscheckFailure("part belongs to a different module")
    return _direct_sum(m, [p.members for p in parts])


def _direct_sum(m: SemimoduleTable, masks: list[int]):
    """:func:`is_direct_sum` on the parts' member masks, which must be
    subsemimodules of ``m``."""
    combos: dict[int, tuple[int, ...]] = {m.zero: ()}
    for mask in masks:
        nxt: dict[int, tuple[int, ...]] = {}
        elems = list(bits(mask))
        for total, comps in sorted(combos.items()):
            row = m.add[total]
            for p in elems:
                t2 = row[p]
                c2 = comps + (p,)
                if t2 in nxt and nxt[t2] != c2:
                    return False, ("double", t2, nxt[t2], c2)
                nxt[t2] = c2
        combos = nxt
    if len(combos) != m.order:
        uncovered = next(x for x in range(m.order) if x not in combos)
        return False, ("uncovered", uncovered)
    return True, combos


@dataclass(frozen=True)
class Decomposition:
    """An internal direct sum with its projection idempotents."""

    parent: SemimoduleTable
    parts: tuple[SubStructure, ...]
    projections: tuple[LinearMap, ...]

    def part_masks(self) -> tuple[int, ...]:
        return tuple(p.members for p in self.parts)


def decomposition_from_parts(m: SemimoduleTable, parts: list[SubStructure]) -> Decomposition:
    """Assemble a Decomposition, or raise if the parts are not direct."""
    ok, data = is_direct_sum(m, parts)
    if not ok:
        raise CrosscheckFailure(f"parts are not a direct sum: {data}")
    projections = []
    for i in range(len(parts)):
        img = [0] * m.order
        for x, comps in data.items():
            img[x] = comps[i]
        projections.append(LinearMap(m, m, tuple(img)))
    return Decomposition(parent=m, parts=tuple(parts), projections=tuple(projections))


def projection_identities_hold(dec: Decomposition) -> bool:
    """e_i e_j = 0 for i != j, e_i e_i = e_i, and sum e_i = id."""
    m = dec.parent
    n = m.order
    projs = dec.projections
    for i, e in enumerate(projs):
        for j, f in enumerate(projs):
            comp = tuple(e.image_of[f.image_of[x]] for x in range(n))
            want = e.image_of if i == j else (m.zero,) * n
            if comp != tuple(want):
                return False
    total = list(range(n))
    acc = [m.zero] * n
    for e in projs:
        acc = [m.add[acc[x]][e.image_of[x]] for x in range(n)]
    return acc == total


# ---------------------------------------------------------------------------
# endomorphism semirings and Comp


@dataclass(frozen=True)
class EndSemiring:
    """End(M) tabulated: pointwise addition, composition as multiplication.

    ``maps[i]`` realizes element i; ``semiring.mul[i][j]`` is maps[i] after
    maps[j].
    """

    semiring: SemiringTable
    maps: tuple[LinearMap, ...]


@lru_cache(maxsize=16384)
def end_semiring(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> EndSemiring:
    """End(M): every linear M -> M, under pointwise addition and composition.

    The table is built unchecked.  End(M) is a semiring by construction:
    pointwise sums and composites of linear maps are linear maps, pointwise
    addition is commutative and associative with the zero map as its
    identity, composition is associative with the identity map as its unit,
    and composition distributes over pointwise sums: f(g + h) = fg + fh
    because f is additive, and (g + h)f = gf + hf pointwise.  The zero map
    absorbs: f after 0 is 0 because f is linear, and 0 after f is 0
    outright.  ``tests/test_core.py::
    test_engine_built_values_pass_the_public_checks`` checks these tables
    against :func:`semiring_violations`.

    The tables are built on the maps' keys (see :class:`homs._MapKeys`):
    zero is the map whose key is that of the zero map, and one the map
    whose key is that of the identity.  Out of a cyclic M with generator g
    those keys are the elements zero and g themselves.

    Raises :class:`LimitExceeded` on a truncated hom search and
    :class:`DegenerateStructure` when M is zero.
    """
    homs = enumerate_homs(m, m, limits)
    if not homs.exhaustive:
        raise LimitExceeded("End(M) enumeration hit the node limit")
    maps = homs.items
    if len(maps) < 2:
        raise DegenerateStructure("End(M) has a single element; zero equals one")
    keys = _MapKeys(maps)
    zero = keys.index[keys.key((m.zero,) * m.order)]
    one = keys.index[keys.key(range(m.order))]
    sr = _semiring_table(keys.sums(m.add), keys.composites(maps), zero, one)
    return EndSemiring(semiring=sr, maps=maps)


def comp_elements(t: SemiringTable) -> dict[int, int]:
    """Elements with an orthogonal complement: t + t~ = 1 and t t~ = 0 = t~ t.

    Maps each such element to its smallest complement witness.
    """
    out: dict[int, int] = {}
    for a in range(t.order):
        for b in range(t.order):
            if (t.add[a][b] == t.one and t.mul[a][b] == t.zero
                    and t.mul[b][a] == t.zero):
                out[a] = b
                break
    return out


# ---------------------------------------------------------------------------
# retracts and summands


def idempotent_endomorphisms(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> list[LinearMap]:
    homs = enumerate_homs(m, m, limits)
    if not homs.exhaustive:
        raise LimitExceeded("End(M) enumeration hit the node limit")
    return [f for f in homs
            if all(f.image_of[f.image_of[x]] == f.image_of[x] for x in range(m.order))]


def retract_check(m: SemimoduleTable, sub: SubStructure,
                  limits: Limits = DEFAULT_LIMITS) -> LinearMap | None:
    """An idempotent endomorphism with image ``sub``, or None."""
    want = sub.members
    for f in idempotent_endomorphisms(m, limits):
        if f.image_mask() == want:
            return f
    return None


@dataclass(frozen=True)
class SummandPoset:
    """All direct summands of a module, with complements and witnesses."""

    parent: SemimoduleTable
    nodes: tuple[SubStructure, ...]
    complements: dict
    idempotents: dict
    max_chain_length: int

    def masks(self) -> tuple[int, ...]:
        return tuple(n.members for n in self.nodes)

    def is_summand(self, mask: int) -> bool:
        return mask in self.complements


@lru_cache(maxsize=16384)
def summand_poset(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> SummandPoset:
    """Summands found through Comp(End(M)), each checked three ways:
    the pair (image, complement image) really is a direct sum, and the
    mutual restrictions of their zero-of congruences are trivial.
    """
    try:
        end = end_semiring(m, limits)
    except DegenerateStructure:
        # the one-element module is its own only summand
        node = SubStructure(m, 1 << m.zero)
        return SummandPoset(parent=m, nodes=(node,),
                            complements={node.members: node.members},
                            idempotents={node.members: None},
                            max_chain_length=1)
    comp = comp_elements(end.semiring)
    complements: dict[int, int] = {}
    idempotents: dict[int, LinearMap] = {}
    for t, t_tilde in sorted(comp.items()):
        alpha = end.maps[t]
        beta = end.maps[t_tilde]
        mask = alpha.image_mask()
        if mask in complements:
            continue
        comask = beta.image_mask()
        ok, _ = _direct_sum(m, [mask, comask])
        if not ok:
            raise CrosscheckFailure("complemented idempotent image is not a summand")
        if not _restrictions_trivial(m, mask, comask):
            raise CrosscheckFailure("restricted zero congruences are not trivial")
        complements[mask] = comask
        idempotents[mask] = alpha
    nodes = tuple(SubStructure(m, mask) for mask in sorted(complements))
    return SummandPoset(parent=m, nodes=nodes, complements=complements,
                        idempotents=idempotents,
                        max_chain_length=_longest_chain(sorted(complements)))


def _restrictions_trivial(m: SemimoduleTable, n_mask: int, n2_mask: int) -> bool:
    """Bourne relation of each part restricted to the other is the diagonal:
    the other part's reaches (:func:`core._reach`) are pairwise disjoint."""
    for a_mask, b_mask in ((n_mask, n2_mask), (n2_mask, n_mask)):
        reach = _reach(m.add, a_mask)
        seen = 0
        for x in bits(b_mask):
            if reach[x] & seen:
                return False
            seen |= reach[x]
    return True


def golan_condition3(m: SemimoduleTable, sub: SubStructure, others) -> bool:
    """Whether some N' among ``others`` has M = N + N' with trivial mutual
    restrictions of the Bourne relations."""
    full = full_mask(m.order)
    for other in others:
        if _sumset(m, sub.members, other.members) != full:
            continue
        if _restrictions_trivial(m, sub.members, other.members):
            return True
    return False


def _sumset(m: SemimoduleTable, a_mask: int, b_mask: int) -> int:
    """{x + y : x in a_mask, y in b_mask}; the sum of two subsemimodules,
    since both hold zero."""
    out = 0
    for x in bits(a_mask):
        row = m.add[x]
        for y in bits(b_mask):
            out |= 1 << row[y]
    return out


def _longest_chain(masks: list[int]) -> int:
    order = sorted(masks, key=lambda x: x.bit_count())
    best = {mask: 1 for mask in order}
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if a != b and a & b == a:
                best[b] = max(best[b], best[a] + 1)
    return max(best.values(), default=0)


# ---------------------------------------------------------------------------
# irreducible decomposition


def _proper_nontrivial_summands(poset: SummandPoset) -> list[int]:
    full = full_mask(poset.parent.order)
    zero_only = 1 << poset.parent.zero
    return [mask for mask in poset.masks() if mask not in (full, zero_only)]


def is_irreducible_summand(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True when the only maximal direct summand of ``m`` is the zero one."""
    if m.order == 1:
        return False
    return not _proper_nontrivial_summands(summand_poset(m, limits))


def irreducible_decomposition(s: SemiringTable, limits: Limits = DEFAULT_LIMITS) -> Decomposition:
    """Split the left regular module along its summand poset until every
    part is irreducible; always splits off the smallest-bitset summand."""
    m = s.left_module()
    parts = _split(SubStructure(m, full_mask(m.order)), limits)
    return decomposition_from_parts(m, parts)


def _split(sub: SubStructure, limits: Limits) -> list[SubStructure]:
    parent = sub.parent
    inner, to_parent = sub_module(sub)
    poset = summand_poset(inner, limits)
    candidates = _proper_nontrivial_summands(poset)
    if not candidates:
        return [sub]
    pick = min(candidates)
    comask = poset.complements[pick]
    lift = lambda mask: sum(1 << to_parent[i] for i in bits(mask))
    head = SubStructure(parent, lift(pick))
    tail = SubStructure(parent, lift(comask))
    return _split(head, limits) + _split(tail, limits)
