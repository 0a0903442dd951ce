"""Simplicity and semisimplicity deciders with lemma-based cross-checks,
plus the C1/C2/C2' condition profiles."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_LIMITS,
    CongruencePartition,
    Limits,
    Parent,
    SemimoduleTable,
    SemiringTable,
    SubStructure,
    _bourne_quotient,
    _closure_mask,
    _quotient,
    _sub_module,
    _translations,
    bits,
    congruence_closure,
    enumerate_congruences,
    enumerate_subsemimodules,
    full_mask,
    generated_subsemimodule,
    mask_of,
    sub_module,
)
from .errors import CrosscheckFailure, HypothesisUnmet
from .homs import enumerate_homs
from .summands import _direct_sum, _sumset, summand_poset

# full enumerations and hom cross-checks are only run below this carrier size
CROSSCHECK_MAX_ORDER = 12


# ---------------------------------------------------------------------------
# module-level simplicity


def is_module_ideal_simple(m: SemimoduleTable) -> tuple[bool, SubStructure | None]:
    """Only 0 and M as subsemimodules; witness is an offending proper one.

    Decided through principal subsemimodules: a nonzero proper principal
    one refutes simplicity, and their absence proves it.
    """
    if m.order == 1:
        return False, None
    mask = _proper_principal_mask(m)
    return (True, None) if mask is None else (False, SubStructure(m, mask))


def _proper_principal_mask(parent: Parent) -> int | None:
    """The first proper subsemimodule (two-sided ideal, for a semiring)
    generated by one nonzero element, or None when there is none."""
    full = full_mask(parent.order)
    for x in range(parent.order):
        if x != parent.zero:
            mask = _closure_mask(parent, 1 << x)
            if mask != full:
                return mask
    return None


def is_module_congruence_simple(m: Parent) -> tuple[bool, CongruencePartition | None]:
    """Only the diagonal and the universal relation as congruences (of a
    semimodule, or of a semiring under both multiplications).

    Simple iff every principal congruence Cg(a, b), a < b, is universal.
    For every translation t (see :func:`core._translations`), Cg(t(a), t(b))
    is inside Cg(a, b), since a congruence relating a and b relates t(a) and
    t(b).  So the pairs are walked in (a, b) order, and (a, b) is universal
    without a closure when some t maps it to distinct t(a), t(b) already
    known to be universal.  Only the others are closed.  A pair whose
    congruence is not universal is never settled that way, so the first one
    is still the first in (a, b) order, and the witness is the congruence
    the one-closure-per-pair walk returns.
    """
    n = m.order
    if n == 1:
        return False, None
    trans = _translations(m)
    universal = bytearray(n * n)
    for a in range(n):
        for b in range(a + 1, n):
            for t in trans:
                x, y = t[a], t[b]
                if x != y and universal[x * n + y]:
                    break
            else:
                rho = congruence_closure(m, [(a, b)])
                if not rho.is_universal():
                    return False, rho
            universal[a * n + b] = universal[b * n + a] = 1
    return True, None


@dataclass(frozen=True)
class SimplicityReport:
    ideal_simple: bool
    congruence_simple: bool
    ideal_witness: SubStructure | None
    congruence_witness: CongruencePartition | None
    crosschecked: bool


def module_test_family(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> list[SemimoduleTable]:
    """m itself, then every subsemimodule of m (promoted), then every
    quotient of m by a congruence, each in enumeration order."""
    family = [m]
    subs = enumerate_subsemimodules(m, limits)
    for sub in subs.exhaustive_items("subsemimodule enumeration"):
        family.append(sub_module(sub)[0])
    cons = enumerate_congruences(m, limits)
    for rho in cons.exhaustive_items("congruence enumeration"):
        family.append(_quotient(m, rho)[0])
    return family


def simplicity_profile(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS) -> SimplicityReport:
    """Both simplicities, cross-checked two independent ways on modules of
    order at most ``CROSSCHECK_MAX_ORDER``.

    The cross-checks are the map characterizations (congruence-simple iff
    every non-zero map out of m is injective; ideal-simple iff every
    non-zero map into m is surjective, both over the quotient/sub family)
    plus full enumerations.  Disagreement is an engine bug, never a math
    outcome.  Each cross-check runs only on exhaustive enumerations: the
    map characterizations need both, and raise :class:`LimitExceeded` on a
    truncated hom search.
    """
    ideal, iw = is_module_ideal_simple(m)
    cong, cw = is_module_congruence_simple(m)
    crosscheck = m.order <= CROSSCHECK_MAX_ORDER
    if crosscheck:
        subs = enumerate_subsemimodules(m, limits)
        cons = enumerate_congruences(m, limits)
        if subs.exhaustive:
            by_enum = m.order > 1 and len(subs) == 2
            if by_enum != ideal:
                raise CrosscheckFailure("ideal-simplicity routes disagree")
        if cons.exhaustive:
            by_enum = m.order > 1 and len(cons) == 2
            if by_enum != cong:
                raise CrosscheckFailure("congruence-simplicity routes disagree")
        if m.order > 1 and subs.exhaustive and cons.exhaustive:
            family = module_test_family(m, limits)
            maps_out_injective = all(
                f.is_injective()
                for other in family
                for f in enumerate_homs(m, other, limits).exhaustive_items("hom enumeration")
                if not f.is_zero()
            )
            if maps_out_injective != cong:
                raise CrosscheckFailure("map characterization of congruence-simplicity disagrees")
            maps_in_surjective = all(
                f.is_surjective()
                for other in family
                for f in enumerate_homs(other, m, limits).exhaustive_items("hom enumeration")
                if not f.is_zero()
            )
            if maps_in_surjective != ideal:
                raise CrosscheckFailure("map characterization of ideal-simplicity disagrees")
    return SimplicityReport(ideal_simple=ideal, congruence_simple=cong,
                            ideal_witness=iw, congruence_witness=cw,
                            crosschecked=crosscheck)


# ---------------------------------------------------------------------------
# semiring-level simplicity (two-sided ideals, semiring congruences)


@dataclass(frozen=True)
class SemiringSimplicityReport:
    ideal_simple: bool
    congruence_simple: bool
    ideal_witness_mask: int | None
    congruence_witness: CongruencePartition | None


def semiring_simplicity_profile(s: SemiringTable) -> SemiringSimplicityReport:
    """Simplicity of the semiring itself: two-sided ideals and semiring
    congruences, both decided through principal generation."""
    iw = _proper_principal_mask(s)
    cong, cw = is_module_congruence_simple(s)
    return SemiringSimplicityReport(ideal_simple=iw is None, congruence_simple=cong,
                                    ideal_witness_mask=iw, congruence_witness=cw)


# ---------------------------------------------------------------------------
# semisimplicity


@dataclass(frozen=True)
class SemisimplicityReport:
    ideal_semisimple: bool
    congruence_semisimple: bool
    ideal_parts: tuple[int, ...] | None
    congruence_parts: tuple[int, ...] | None


def _search_simple_decomposition(m: SemimoduleTable,
                                 simple_masks: list[int]) -> tuple[int, ...] | None:
    """First direct-sum decomposition of m into parts drawn from
    ``simple_masks``, in canonical order; None when there is none."""
    full = full_mask(m.order)
    zero_bit = 1 << m.zero

    def rec(chosen: list[int], start: int, span: int):
        if span == full:
            ok, _ = _direct_sum(m, chosen)
            if ok:
                return tuple(chosen)
            return None
        for i in range(start, len(simple_masks)):
            cand = simple_masks[i]
            if any(cand & c != zero_bit for c in chosen):
                continue
            got = rec(chosen + [cand], i + 1, _sumset(m, span, cand))
            if got is not None:
                return got
        return None

    return rec([], 0, zero_bit)


def semisimplicity_profile(s: SemiringTable, limits: Limits = DEFAULT_LIMITS) -> SemisimplicityReport:
    """Search the summand poset for decompositions into simple parts."""
    m = s.left_module()
    poset = summand_poset(m, limits)
    zero_bit = 1 << m.zero
    candidates = [mask for mask in poset.masks() if mask != zero_bit]
    ideal_simple_masks = []
    cong_simple_masks = []
    for mask in candidates:
        part, _ = _sub_module(m, mask)
        if is_module_ideal_simple(part)[0]:
            ideal_simple_masks.append(mask)
        if is_module_congruence_simple(part)[0]:
            cong_simple_masks.append(mask)
    ideal_parts = _search_simple_decomposition(m, ideal_simple_masks)
    cong_parts = _search_simple_decomposition(m, cong_simple_masks)
    return SemisimplicityReport(
        ideal_semisimple=ideal_parts is not None,
        congruence_semisimple=cong_parts is not None,
        ideal_parts=ideal_parts,
        congruence_parts=cong_parts,
    )


# ---------------------------------------------------------------------------
# C1 / C2 / C2'


@dataclass(frozen=True)
class ConditionProfile:
    c1: bool
    c2: bool
    c2prime: bool
    c1_witness: int | None
    c2_witness: tuple[int, int] | None
    c2prime_witness: tuple[int, int] | None
    exhaustive: bool


def _maximal_proper(masks: list[int], top: int) -> list[int]:
    proper = [a for a in masks if a != top]
    return [a for a in proper
            if not any(b != a and a & b == a for b in proper)]


def condition_profile_for_module(n: SemimoduleTable,
                                 limits: Limits = DEFAULT_LIMITS) -> ConditionProfile:
    """C1/C2/C2' for an arbitrary carrier module ``n``.

    C1: every subtractive subsemimodule is a direct summand.  C2 (C2'):
    for every subtractive M <= n and maximal subtractive L < M, the
    quotient M/L is ideal-simple (congruence-simple).  Maximality is taken
    inside the poset of subtractive subsemimodules of M.

    That poset is read off the one of ``n``: for subtractive M <= n, the
    subtractive subsemimodules of M are exactly those of ``n`` that lie
    inside M.  If L is subtractive in n and inside M, it is subtractive in
    M.  Conversely, let L be subtractive in M, and x in n with x + l in L
    for some l in L: then x + l and l lie in M, so x is in M because M is
    subtractive in n, and then x is in L.  So one enumeration serves every
    M.
    """
    subt = enumerate_subsemimodules(n, limits, subtractive_only=True)
    poset = summand_poset(n, limits)
    c1, c1_w = True, None
    for sub in subt:
        if not poset.is_summand(sub.members):
            c1, c1_w = False, sub.members
            break
    c2, c2_w = True, None
    c2p, c2p_w = True, None
    for sub in subt:
        inner, to_parent = sub_module(sub)
        back = {p: i for i, p in enumerate(to_parent)}
        inside = [t.members for t in subt if t.members & ~sub.members == 0]
        for lmask in _maximal_proper(inside, sub.members):
            local = mask_of(back[x] for x in bits(lmask))
            quot, _ = _bourne_quotient(inner, local)
            pair = (sub.members, lmask)
            if c2 and not is_module_ideal_simple(quot)[0]:
                c2, c2_w = False, pair
            if c2p and not is_module_congruence_simple(quot)[0]:
                c2p, c2p_w = False, pair
        if not c2 and not c2p:
            break
    return ConditionProfile(c1=c1, c2=c2, c2prime=c2p, c1_witness=c1_w,
                            c2_witness=c2_w, c2prime_witness=c2p_w,
                            exhaustive=subt.exhaustive)


def condition_profile(s: SemiringTable, limits: Limits = DEFAULT_LIMITS) -> ConditionProfile:
    return condition_profile_for_module(s.left_module(), limits)


# ---------------------------------------------------------------------------
# subtractive ideals versus simple parts in the commutative semisimple case


@dataclass(frozen=True)
class ComsumCertificate:
    ideal_mask: int
    meets: tuple[int, ...]
    equals_sub_sum: bool
    is_summand: bool


def comsum_check(s: SemiringTable, limits: Limits = DEFAULT_LIMITS) -> list[ComsumCertificate]:
    """On a commutative ideal-semisimple semiring, every subtractive ideal
    must equal the direct sum of the simple parts it meets and must be a
    summand.  Returns one certificate per subtractive ideal; raises
    :class:`LimitExceeded` when their enumeration is truncated."""
    if not s.commutative:
        raise HypothesisUnmet("needs a commutative semiring")
    profile = semisimplicity_profile(s, limits)
    if not profile.ideal_semisimple:
        raise HypothesisUnmet("needs an ideal-semisimple semiring")
    m = s.left_module()
    parts = profile.ideal_parts
    poset = summand_poset(m, limits)
    zero_bit = 1 << m.zero
    out = []
    subt = enumerate_subsemimodules(m, limits, subtractive_only=True)
    for sub in subt.exhaustive_items("subtractive ideal enumeration"):
        meets = tuple(p for p in parts if (p & sub.members) != zero_bit)
        seed = 0
        for p in meets:
            seed |= p
        span = generated_subsemimodule(m, seed | zero_bit)
        out.append(ComsumCertificate(
            ideal_mask=sub.members,
            meets=meets,
            equals_sub_sum=span.members == sub.members,
            is_summand=poset.is_summand(sub.members),
        ))
    return out
