"""Finite-scale deciders for k-projectivity, e-projectivity, i-injectivity
and e-injectivity relative to a fixed module.

Normal surjections out of M are represented, up to isomorphism, by the
canonical quotients M -> M/K for subtractive K (they are exactly the
k-normal surjections), and normal injections into M by inclusions of
subtractive subsemimodules.  Quantifiers over "every semimodule" are
bounded to the family built by :func:`bounded_family`.

All four deciders are views of one pass over the subtractive K <= M and
their sequences 0 -> K -f-> M -g-> M/K -> 0.  It pushes each candidate
(h: P -> M to g.h, or h: M -> J to h.f) and finds the first lift of each
test map (P -> M/K, or K -> J).  k-projectivity and i-injectivity ask that
every test map lifts; e-projectivity and e-injectivity that the Hom
sequence 0 -> A -> B -> C -> 0, with B the candidates and push B -> C, is
short exact (Golan, *Semirings and their Applications*, 1999).  A -> B,
composing with the injective f or the surjective g, is injective, and its
image is the kernel of push: h: P -> M lands in K iff g.h is zero, as K is
the zero class of its Bourne congruence, and h: M -> J kills K iff it is
constant on Bourne classes.  So exactness at C is the lifting verdict for
K, and exactness at B is whether push is k-normal on B.

The same pass decides whether 0 -> K -> M -> M/K -> 0 splits.  It
right-splits iff some h: M/K -> M has g.h = id, that is iff the test map
id of M/K lifts at kernel K in the k-projectivity pass of P = M/K.  It
left-splits iff some r: M -> K has r.f = id, that is iff the test map id
of K extends at kernel K in the i-injectivity pass of J = K.  Candidates
come in image order and each test map keeps its first lift, so these
witnesses are the first section and the first retraction.

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
from functools import partial

from .core import (
    DEFAULT_LIMITS,
    LinearMap,
    Limits,
    SemimoduleTable,
    SemiringTable,
    Table,
    _is_k_normal,
    bourne_quotient,
    enumerate_subsemimodules,
    mask_of,
    sub_module,
)
from .errors import HypothesisUnmet
from .homs import _MapKeys, are_isomorphic, enumerate_homs
from .semisimple import module_test_family


# ---------------------------------------------------------------------------
# the bounded test family


def bounded_family(s: SemiringTable,
                   limits: Limits = DEFAULT_LIMITS) -> list[SemimoduleTable]:
    """The test family of s: :func:`semisimple.module_test_family` of its
    left module (S, every subsemimodule, every quotient by a module
    congruence), keeping the first of each isomorphism class (the deciders
    are iso-invariant).  Raises :class:`LimitExceeded` if an enumeration
    or an isomorphism search is truncated."""
    kept: list[SemimoduleTable] = []
    for mod in module_test_family(s.left_module(), limits):
        if not any(are_isomorphic(mod, seen) for seen in kept):
            kept.append(mod)
    return kept


# ---------------------------------------------------------------------------
# commutative monoids of homs


@dataclass(frozen=True)
class Monoid:
    order: int
    add: Table
    zero: int


def _all_homs(source: SemimoduleTable, target: SemimoduleTable,
              limits: Limits) -> tuple[LinearMap, ...]:
    """Every map source -> target.  Raises :class:`HypothesisUnmet` when
    the modules are over different bases (no map is linear between them),
    and :class:`LimitExceeded` on a truncated enumeration."""
    if source.base != target.base:
        raise HypothesisUnmet("the modules are over different bases")
    return enumerate_homs(source, target, limits).exhaustive_items("hom enumeration")


def hom_monoid(source: SemimoduleTable, target: SemimoduleTable,
               limits: Limits = DEFAULT_LIMITS) -> tuple[Monoid, tuple[LinearMap, ...]]:
    """Hom(source, target) under pointwise addition.  Raises
    :class:`HypothesisUnmet` when the modules are over different bases."""
    maps = _all_homs(source, target, limits)
    add = _MapKeys(maps).sums(target.add)
    zero = next(i for i, f in enumerate(maps) if f.is_zero())
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


def _lifting_pass(m: SemimoduleTable, candidates: tuple[LinearMap, ...], limits: Limits, problem):
    """Per subtractive K <= M in bitset order, with ``(push, source,
    target) = problem(K)``: K's mask, the candidates' image arrays after
    ``push``, the zero map source -> target, and each hom source -> target
    (a test map) with its first lift, or None.  Raises
    :class:`LimitExceeded` if an enumeration is truncated."""
    subt = enumerate_subsemimodules(m, limits, subtractive_only=True)
    for sub in subt.exhaustive_items("subtractive enumeration"):
        push, source, target = problem(sub)
        pushed = [push(h.image_of) for h in candidates]
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        for h, image in zip(candidates, pushed):
            first.setdefault(image, h.image_of)
        lifts = [(g.image_of, first.get(g.image_of)) for g in _all_homs(source, target, limits)]
        yield sub.members, pushed, (target.zero,) * source.order, lifts


def _lifting_report(kind: str, m: SemimoduleTable, candidates: tuple[LinearMap, ...],
                    limits: Limits, problem) -> DeciderReport:
    records = tuple(LiftingProblem(kind=kind, kernel_mask=mask, test_map=g, witness=h)
                    for mask, _, _, lifts in _lifting_pass(m, candidates, limits, problem)
                    for g, h in lifts)
    return DeciderReport(kind=kind, holds=all(r.witness is not None for r in records),
                         records=records)


def _exactness_report(kind: str, m: SemimoduleTable, middle: tuple[Monoid, tuple[LinearMap, ...]],
                      limits: Limits, problem) -> DeciderReport:
    """``middle`` is B as :func:`hom_monoid` gives it.  By the identities of
    the module docstring, ``left`` always holds and ``middle`` is whether
    push is k-normal on B."""
    monoid, maps = middle
    records = []
    for mask, pushed, zero, lifts in _lifting_pass(m, maps, limits, problem):
        kernel = mask_of(i for i, image in enumerate(pushed) if image == zero)
        records.append(SequenceTransferRecord(
            kernel_mask=mask, left=True, middle=_is_k_normal(monoid.add, pushed, kernel),
            right=all(h is not None for _, h in lifts)))
    return DeciderReport(kind=kind, holds=all(r.exact for r in records), records=tuple(records))


def _through_quotient(p: SemimoduleTable, m: SemimoduleTable, sub):
    """Lift maps p -> M/K through the projection M -> M/K."""
    quot, proj = bourne_quotient(m, sub)
    return (lambda h: tuple(map(proj.image_of.__getitem__, h))), p, quot


def _along_inclusion(j: SemimoduleTable, sub):
    """Extend maps K -> j along the inclusion K -> M."""
    part, to_parent = sub_module(sub)
    return (lambda h: tuple(map(h.__getitem__, to_parent))), part, j


def is_k_projective(p: SemimoduleTable, m: SemimoduleTable,
                    limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Every map p -> M/K lifts through the canonical projection."""
    return _lifting_report("k-projective", m, _all_homs(p, m, limits), limits,
                           partial(_through_quotient, p, m))


def is_i_injective(j: SemimoduleTable, m: SemimoduleTable,
                   limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Every map K -> j from a subtractive K <= M extends over M."""
    return _lifting_report("i-injective", m, _all_homs(m, j, limits), limits,
                           partial(_along_inclusion, j))


def is_e_projective(p: SemimoduleTable, m: SemimoduleTable,
                    limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Hom(p, -) sends every short exact 0->K->M->M/K->0 to a short exact
    sequence of commutative monoids."""
    return _exactness_report("e-projective", m, hom_monoid(p, m, limits), limits,
                             partial(_through_quotient, p, m))


def is_e_injective(j: SemimoduleTable, m: SemimoduleTable,
                   limits: Limits = DEFAULT_LIMITS) -> DeciderReport:
    """Hom(-, j) sends every short exact 0->K->M->M/K->0 to a short exact
    sequence 0 -> Hom(M/K, j) -> Hom(M, j) -> Hom(K, j) -> 0."""
    return _exactness_report("e-injective", m, hom_monoid(m, j, limits), limits,
                             partial(_along_inclusion, j))
