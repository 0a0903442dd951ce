"""Finite-scale deciders for k-projectivity, e-projectivity, i-injectivity
and e-injectivity relative to a fixed module.

Normal surjections out of M are represented, up to isomorphism, by the
canonical quotients M -> M/K for subtractive K (they are exactly the
k-normal surjections), and normal injections into M by inclusions of
subtractive subsemimodules.  Quantifiers over "every semimodule" are
bounded to the family built by :func:`bounded_family`.

A direct sum A + B is a biproduct: Hom(A + B, X) is Hom(A, X) x Hom(B, X)
and Hom(X, A + B) is Hom(X, A) x Hom(X, B), as commutative monoids.  So
every lifting or extension problem on A + B splits into one per summand,
and a product of monoid sequences is short exact iff each factor is.  Each
decider therefore holds for A + B iff it holds for A and for B, and the
family needs no direct sums: an ``all`` over it gives the same verdict as
an ``all`` over its closure under finite sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_LIMITS,
    LinearMap,
    Limits,
    SemimoduleTable,
    SemiringTable,
    SubStructure,
    Table,
    _is_k_normal,
    _quotient,
    bourne_congruence,
    enumerate_congruences,
    enumerate_subsemimodules,
    inclusion_map,
    mask_of,
    sub_module,
)
from .errors import LimitExceeded
from .homs import _pointwise_sums, are_isomorphic, canonical_short_exact, enumerate_homs


# ---------------------------------------------------------------------------
# the bounded test family


def bounded_family(s: SemiringTable,
                   limits: Limits = DEFAULT_LIMITS) -> list[tuple[str, SemimoduleTable]]:
    """The test family of s: its left module S, then every subsemimodule of
    S, then every quotient of S by a module congruence, keeping the first of
    each isomorphism class (the deciders are iso-invariant).

    Labels are ``S``, ``sub<members mask>`` and ``quot<class map>``.  Raises
    :class:`LimitExceeded` if either enumeration is truncated.
    """
    m = s.left_module()
    raw: list[tuple[str, SemimoduleTable]] = [("S", m)]
    subs = enumerate_subsemimodules(m, limits)
    cons = enumerate_congruences(m, limits)
    if not subs.exhaustive or not cons.exhaustive:
        raise LimitExceeded("family enumeration truncated")
    for sub in subs:
        raw.append((f"sub{sub.members:#x}", sub_module(sub)[0]))
    for rho in cons:
        raw.append((f"quot{''.join(map(str, rho.class_of))}", _quotient(m, rho)[0]))
    kept: list[tuple[str, SemimoduleTable]] = []
    for label, mod in raw:
        if not any(are_isomorphic(mod, seen) for _, seen in kept):
            kept.append((label, mod))
    return kept


# ---------------------------------------------------------------------------
# commutative monoids of homs


@dataclass(frozen=True)
class Monoid:
    order: int
    add: Table
    zero: int


def hom_monoid(source: SemimoduleTable, target: SemimoduleTable,
               limits: Limits = DEFAULT_LIMITS) -> tuple[Monoid, tuple[LinearMap, ...]]:
    """Hom(source, target) under pointwise addition."""
    homs = enumerate_homs(source, target, limits)
    if not homs.exhaustive:
        raise LimitExceeded("hom enumeration truncated")
    maps = homs.items
    add, index = _pointwise_sums(target, maps)
    zero = index[(target.zero,) * source.order]
    return Monoid(order=len(maps), add=add, zero=zero), maps


# ---------------------------------------------------------------------------
# instance records


@dataclass(frozen=True)
class LiftingProblem:
    """One lifting/extension instance and its resolution."""

    kind: str
    kernel_mask: int
    test_map: tuple[int, ...]
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class SequenceTransferRecord:
    """Exactness of one induced monoid sequence."""

    kernel_mask: int
    left: bool
    middle: bool
    right: bool

    @property
    def exact(self) -> bool:
        return self.left and self.middle and self.right


@dataclass(frozen=True)
class DeciderReport:
    kind: str
    holds: bool
    records: tuple

    def failures(self):
        if self.kind in ("k-projective", "i-injective"):
            return [r for r in self.records if r.witness is None]
        return [r for r in self.records if not r.exact]


def _subtractive_subs(m: SemimoduleTable, limits: Limits) -> list[SubStructure]:
    subt = enumerate_subsemimodules(m, limits, subtractive_only=True)
    if not subt.exhaustive:
        raise LimitExceeded("subtractive enumeration truncated")
    return list(subt)


def _lifting_report(kind: str, m: SemimoduleTable,
                    candidate_ends: tuple[SemimoduleTable, SemimoduleTable],
                    limits: Limits, problem) -> DeciderReport:
    """Solve the lifting (or extension) problem posed by each subtractive
    K <= M.

    The candidates are the homs between ``candidate_ends``; they do not
    depend on K.  ``problem(K)`` returns ``(push, tests)``: ``push`` carries
    a candidate through the fixed map of the problem, and each test map must
    arise that way.  The witness is the first candidate in canonical order.
    """
    subs = _subtractive_subs(m, limits)
    candidates = enumerate_homs(*candidate_ends, limits)
    if not candidates.exhaustive:
        raise LimitExceeded("hom enumeration truncated")
    records = []
    for sub in subs:
        push, tests = problem(sub)
        solved = {push(h).image_of: h for h in reversed(candidates.items)}
        for g in tests:
            h = solved.get(g.image_of)
            records.append(LiftingProblem(
                kind=kind, kernel_mask=sub.members, test_map=g.image_of,
                witness=None if h is None else h.image_of))
    holds = all(r.witness is not None for r in records)
    return DeciderReport(kind=kind, holds=holds, records=tuple(records))


def is_k_projective(p: SemimoduleTable, m: SemimoduleTable,
                    limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Every map p -> M/K lifts through the canonical projection."""
    def problem(sub):
        quot, proj = _quotient(m, bourne_congruence(m, sub))
        return proj.compose, enumerate_homs(p, quot, limits)
    return _lifting_report("k-projective", m, (p, m), limits, problem)


def is_i_injective(j: SemimoduleTable, m: SemimoduleTable,
                   limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Every map K -> j from a subtractive K <= M extends over M."""
    def problem(sub):
        part, incl = inclusion_map(sub)
        return (lambda h: h.compose(incl)), enumerate_homs(part, j, limits)
    return _lifting_report("i-injective", m, (m, j), limits, problem)


def _transfer_report(kind: str, m: SemimoduleTable, limits: Limits, middle, functor) -> DeciderReport:
    """Whether a Hom functor sends every canonical short exact sequence
    0 -> K -f-> M -g-> M/K -> 0 to a short exact sequence of commutative
    monoids 0 -> A -> B -> C -> 0.

    ``middle`` is B with its maps as :func:`hom_monoid` gives them.  It is
    the Hom of M itself, the middle term of every sequence, so it does not
    depend on K.  ``functor(k, f, g, quot)`` returns the monoids A and C in
    the same form, and then the two induced maps A -> B and B -> C as
    functions on linear maps.
    """
    h_b, maps_b = middle
    index_b = {q.image_of: i for i, q in enumerate(maps_b)}
    records = []
    for sub in _subtractive_subs(m, limits):
        seq = canonical_short_exact(m, sub)
        k, quot, (f, g) = seq.modules[1], seq.modules[3], seq.maps[1:3]
        (h_a, maps_a), (h_c, maps_c), first, second = functor(k, f, g, quot)
        index_c = {q.image_of: i for i, q in enumerate(maps_c)}
        first_idx = tuple(index_b[first(q).image_of] for q in maps_a)
        second_idx = tuple(index_c[second(q).image_of] for q in maps_b)
        second_kernel = mask_of(i for i, v in enumerate(second_idx) if v == h_c.zero)
        records.append(SequenceTransferRecord(
            kernel_mask=sub.members,
            left=len(set(first_idx)) == h_a.order,
            middle=(mask_of(first_idx) == second_kernel
                    and _is_k_normal(h_b.add, second_idx, second_kernel)),
            right=len(set(second_idx)) == h_c.order))
    holds = all(r.exact for r in records)
    return DeciderReport(kind=kind, holds=holds, records=tuple(records))


def is_e_projective(p: SemimoduleTable, m: SemimoduleTable,
                    limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Hom(p, -) sends every short exact 0->K->M->M/K->0 to a short exact
    sequence of commutative monoids."""
    def hom_from_p(k, f, g, quot):
        return hom_monoid(p, k, limits), hom_monoid(p, quot, limits), f.compose, g.compose
    return _transfer_report("e-projective", m, limits, hom_monoid(p, m, limits), hom_from_p)


def is_e_injective(j: SemimoduleTable, m: SemimoduleTable,
                   limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Hom(-, j) sends every short exact 0->K->M->M/K->0 to a short exact
    sequence 0 -> Hom(M/K, j) -> Hom(M, j) -> Hom(K, j) -> 0."""
    def hom_into_j(k, f, g, quot):
        return (hom_monoid(quot, j, limits), hom_monoid(k, j, limits),
                lambda q: q.compose(g), lambda q: q.compose(f))
    return _transfer_report("e-injective", m, limits, hom_monoid(m, j, limits), hom_into_j)
