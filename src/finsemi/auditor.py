"""Enumerate small semirings up to isomorphism and audit, per instance, the
implication chains and claimed equivalences the engine implements.

The claims are data: :data:`CLAIMS` gives, per claim id, the instances it
applies to, whether it is a chain or an equivalence, each item as a named
fact of :class:`InstanceFacts` (alone or with C2 or C2'), or a finite
constant, and which items carry a witness.  :func:`claim_records` walks it.
Implications are enforced (a failed one is a hard failure and an engine
bug); claimed pairwise equivalences are audited, with mismatched sides
reported as discrepancy records that never overwrite verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from .core import (
    DEFAULT_LIMITS,
    Enumeration,
    Limits,
    SemimoduleTable,
    SemiringTable,
    SubStructure,
    Table,
    _quotient,
    _semiring_table,
    bits,
    bourne_quotient,
    enumerate_congruences,
    enumerate_subsemimodules,
    sub_module,
    subtractive_closure,
)
from .errors import EngineError, LimitExceeded
from .homs import (
    are_isomorphic,
    enumerate_homs,
    short_exact_equivalences,
)
from .projinj import (
    bounded_family,
    is_e_injective,
    is_e_projective,
    is_i_injective,
    is_k_projective,
)
from .semisimple import (
    comsum_check,
    condition_profile,
    module_test_family,
    semiring_simplicity_profile,
    semisimplicity_profile,
    simplicity_profile,
)
from .summands import (
    _longest_chain,
    _sumset,
    decomposition_from_parts,
    golan_condition3,
    is_direct_sum,
    irreducible_decomposition,
    projection_identities_hold,
    summand_poset,
)

# instances above this order get the reduced audit (no family quantifiers)
FULL_SCOPE_MAX_ORDER = 6
# the lemma suite is quadratic in several enumerations; keep it small
LEMMA_SCOPE_MAX_ORDER = 3


# ---------------------------------------------------------------------------
# canonical forms and enumeration up to isomorphism


def canonical_form(s: SemiringTable) -> tuple[Table, Table]:
    """Lexicographically minimal (add, mul) over relabelings sending the
    zero to index 0 and the one to index 1."""
    n = s.order
    rest = [x for x in range(n) if x not in (s.zero, s.one)]
    best = None
    for images in itertools.permutations(range(2, n)):
        pi = [0] * n
        pi[s.zero] = 0
        pi[s.one] = 1
        for old, new in zip(rest, images):
            pi[old] = new
        inv = [0] * n
        for old, new in enumerate(pi):
            inv[new] = old
        add = tuple(tuple(pi[s.add[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
        mul = tuple(tuple(pi[s.mul[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
        cand = (add, mul)
        if best is None or cand < best:
            best = cand
    return best


def instance_digest(s: SemiringTable) -> str:
    add, mul = canonical_form(s)
    payload = repr((add, mul)).encode()
    return hashlib.sha256(payload).hexdigest()[:10]


def enumerate_semirings(order: int, commutative_only: bool = False,
                        limits: Limits = DEFAULT_LIMITS) -> Enumeration:
    """All semirings of the given order up to isomorphism, zero at index 0
    and one at index 1, in lexicographic (add, mul) order.

    One backtracking search fills the open cells of both tables: first the
    addition cells, symmetrically, then the multiplication cells outside the
    fixed rows and columns of 0 and 1, mirrored with ``commutative_only``.
    After each assignment the branch is cut if an instance of additive or
    multiplicative associativity or of either distributive law fails among
    those whose cells are all set.  So every leaf satisfies every axiom and
    is built unchecked; it is kept when it is its own canonical form.  Each
    search node is one step of ``limits.max_steps``.  The search stops, not
    exhaustive, at that limit or when it finds a semiring beyond the first
    ``limits.max_results``.
    """
    if order < 2:
        return Enumeration(items=(), exhaustive=True)
    rng = range(order)
    # None marks an open cell, so an open cell read as an index raises
    add: list[list[int | None]] = [[None] * order for _ in rng]
    mul: list[list[int | None]] = [[None] * order for _ in rng]
    for x in rng:
        add[0][x] = add[x][0] = x
        mul[0][x] = mul[x][0] = 0
    for x in range(1, order):
        mul[1][x] = mul[x][1] = x
    cells = [(add, i, j, True) for i in range(1, order) for j in range(i, order)]
    cells += [(mul, i, j, commutative_only) for i in range(2, order)
              for j in range(2, order) if not commutative_only or i <= j]

    def consistent() -> bool:
        for a in rng:
            add_a, mul_a = add[a], mul[a]
            for b in rng:
                ab, mab = add_a[b], mul_a[b]
                add_b, mul_b = add[b], mul[b]
                for c in rng:
                    bc, mbc, mac = add_b[c], mul_b[c], mul_a[c]
                    if ab is not None and bc is not None:
                        x, y = add[ab][c], add_a[bc]
                        if x is not None and y is not None and x != y:
                            return False
                    if mab is not None and mbc is not None:
                        x, y = mul[mab][c], mul_a[mbc]
                        if x is not None and y is not None and x != y:
                            return False
                    if mac is not None:
                        if bc is not None and mab is not None:
                            x, y = mul_a[bc], add[mab][mac]
                            if x is not None and y is not None and x != y:
                                return False
                        if ab is not None and mbc is not None:
                            x, y = mul[ab][c], add[mac][mbc]
                            if x is not None and y is not None and x != y:
                                return False
        return True

    found: list[SemiringTable] = []
    steps = 0

    def search(k: int) -> bool:
        """Extend the tables from cell k on; False once a limit is hit."""
        nonlocal steps
        steps += 1
        if steps > limits.max_steps:
            return False
        if k == len(cells):
            s = _semiring_table(tuple(map(tuple, add)), tuple(map(tuple, mul)), 0, 1)
            if (s.add, s.mul) == canonical_form(s):
                if len(found) >= limits.max_results:
                    return False
                found.append(s)
            return True
        table, i, j, mirror = cells[k]
        for v in rng:
            table[i][j] = v
            if mirror:
                table[j][i] = v
            if consistent() and not search(k + 1):
                return False
        table[i][j] = None
        if mirror:
            table[j][i] = None
        return True

    exhaustive = search(0)
    found.sort(key=lambda s: (s.add, s.mul))
    return Enumeration(items=tuple(found), exhaustive=exhaustive)


# ---------------------------------------------------------------------------
# claim records


@dataclass(frozen=True)
class ClaimRecord:
    instance: str
    claim_id: str
    verdict: str  # "holds" | "not-satisfied" | "fails" | "discrepancy" | "unknown"
    witness: str
    exhaustive: bool

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass(frozen=True)
class AuditReport:
    instance: str
    digest: str  # "-" where it was not computed
    scope: str  # "full" | "reduced", or "" for an audit cut short
    records: tuple[ClaimRecord, ...]

    def hard_failures(self) -> list[ClaimRecord]:
        return [r for r in self.records if r.verdict == "fails"]


def _fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


# ---------------------------------------------------------------------------
# per-instance facts


def _identity_lift(report, mask: int, order: int) -> tuple[int, ...] | None:
    """The witness of ``report``'s record at kernel ``mask`` whose test map
    is the identity of a module of ``order`` elements."""
    identity = tuple(range(order))
    return next(r.witness for r in report.records
                if r.kernel_mask == mask and r.test_map == identity)


class InstanceFacts:
    """Everything the audits consume, computed once per instance.  ``facts``
    maps the name of each fact that claim items read to its value; the
    family-quantified ones (e-/k-projective, e-/i-injective) are None in
    reduced scope."""

    def __init__(self, s: SemiringTable, limits: Limits, scope: str):
        self.s = s
        self.m = s.left_module()
        subt = enumerate_subsemimodules(self.m, limits, subtractive_only=True)
        self.subtractive = list(subt.exhaustive_items("subtractive ideal enumeration"))
        self.poset = summand_poset(self.m, limits)
        cprofile = condition_profile(s, limits)
        self.ssprofile = semisimplicity_profile(s, limits)
        self.parts = [_fmt_mask(p) for p in irreducible_decomposition(s, limits).part_masks()]
        self.left_subtractive = None
        self.family = None
        e_proj = k_proj = e_inj = i_inj = None
        if scope == "full":
            subs_all = enumerate_subsemimodules(self.m, limits)
            if subs_all.exhaustive:
                self.left_subtractive = all(sub.is_subtractive() for sub in subs_all)
            self.family = bounded_family(s, limits)
            # a sequence record's ``right`` is the lifting verdict for its K,
            # so the e-reports also give k-projectivity and i-injectivity
            e_proj_reps = [is_e_projective(p, self.m, limits) for p in self.family]
            e_inj_reps = [is_e_injective(j, self.m, limits) for j in self.family]
            e_proj = all(rep.holds for rep in e_proj_reps)
            k_proj = all(r.right for rep in e_proj_reps for r in rep.records)
            e_inj = all(rep.holds for rep in e_inj_reps)
            i_inj = all(r.right for rep in e_inj_reps for r in rep.records)
        # Per subtractive K, the first retraction M -> K and the first
        # section M/K -> M of 0 -> K -> M -> M/K -> 0 (image arrays, or
        # None): the first lifts of the identity test maps, at kernel K, of
        # the i-injectivity report of K and the k-projectivity report of M/K.
        self.splittings: dict[int, tuple[tuple[int, ...] | None, tuple[int, ...] | None]] = {}
        quotients_k_proj = subtractive_i_inj = True
        for sub in self.subtractive:
            quot = bourne_quotient(self.m, sub)[0]
            part = sub_module(sub)[0]
            k_rep = is_k_projective(quot, self.m, limits)
            i_rep = is_i_injective(part, self.m, limits)
            quotients_k_proj = quotients_k_proj and k_rep.holds
            subtractive_i_inj = subtractive_i_inj and i_rep.holds
            self.splittings[sub.members] = (_identity_lift(i_rep, sub.members, part.order),
                                            _identity_lift(k_rep, sub.members, quot.order))
        self.k_chain = _longest_chain([sub.members for sub in self.subtractive])
        self.summand_chain = self.poset.max_chain_length
        self.facts = {
            "C1": cprofile.c1, "C2": cprofile.c2, "C2'": cprofile.c2prime,
            "e-projective": e_proj, "k-projective": k_proj,
            "quotients k-projective": quotients_k_proj,
            "right split": all(h is not None for _, h in self.splittings.values()),
            "e-injective": e_inj, "i-injective": i_inj,
            "subtractive i-injective": subtractive_i_inj,
            "left split": all(r is not None for r, _ in self.splittings.values()),
            "ideal-semisimple": self.ssprofile.ideal_semisimple,
            "congruence-semisimple": self.ssprofile.congruence_semisimple}


# ---------------------------------------------------------------------------
# chains and equivalence tables


def _check(instance: str, claim_id: str, ok: bool, witness: str = "") -> ClaimRecord:
    """The record of a hard check, which holds or fails."""
    return ClaimRecord(instance, claim_id, "holds" if ok else "fails", witness, True)


def _chain_records(instance: str, claim_prefix: str,
                   items: dict[int, tuple[bool | None, str]]) -> list[ClaimRecord]:
    """Item-value records plus hard implication records k => k+1."""
    out = []
    for k in sorted(items):
        value, witness = items[k]
        out.append(ClaimRecord(
            instance=instance, claim_id=f"{claim_prefix}.item{k}",
            verdict="unknown" if value is None else ("holds" if value else "not-satisfied"),
            witness=witness, exhaustive=value is not None))
    keys = sorted(items)
    for a, b in zip(keys, keys[1:]):
        va, vb = items[a][0], items[b][0]
        if va is None or vb is None:
            verdict, witness = "unknown", "bounded scope skipped a side"
        elif (not va) or vb:
            verdict, witness = "holds", ""
        else:
            verdict, witness = "fails", f"item{a} holds but item{b} fails"
        out.append(ClaimRecord(
            instance=instance, claim_id=f"{claim_prefix}.{a}=>{b}",
            verdict=verdict, witness=witness, exhaustive=verdict != "unknown"))
    return out


def _equivalence_records(instance: str, claim_prefix: str,
                         items: dict, witnesses: dict) -> list[ClaimRecord]:
    """Pairwise audit of a claimed equivalence; mismatches are discrepancies."""
    out = []
    keys = sorted(items, key=str)
    known = {k: v for k, v in items.items() if v is not None}
    all_equal = len(set(known.values())) <= 1
    out.append(ClaimRecord(
        instance=instance, claim_id=claim_prefix,
        verdict="holds" if all_equal else "discrepancy",
        witness="" if all_equal else "items disagree: " + ", ".join(
            f"({k})={v}" for k, v in sorted(known.items(), key=lambda kv: str(kv[0]))),
        exhaustive=len(known) == len(items)))
    if not all_equal:
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                va, vb = items[a], items[b]
                if va is None or vb is None or va == vb:
                    continue
                wit = (f"item ({a}) = {va} [{witnesses.get(a, '')}]; "
                       f"item ({b}) = {vb} [{witnesses.get(b, '')}]")
                out.append(ClaimRecord(
                    instance=instance, claim_id=f"{claim_prefix}.({a})<=>({b})",
                    verdict="discrepancy", witness=wit, exhaustive=True))
    return out


# ---------------------------------------------------------------------------
# the claim table


@dataclass(frozen=True)
class Claim:
    """A claimed chain or equivalence, audited where ``applies`` says.
    ``items`` maps each item's key to a fact of ``InstanceFacts.facts``, to
    ``"fact & C2"`` (or C2'), or to ``"finite"`` (true of every finite
    semiring); a chain item adds ``": text"``, its record's witness, which
    is formatted with the facts as ``f``.  ``witnesses`` maps each
    equivalence item that carries a witness to a key of WITNESSES."""

    applies: str
    kind: str  # "chain" | "equivalence"
    items: dict
    witnesses: dict = field(default_factory=dict)


CLAIMS = {
    "prop-proj-impl": Claim("always", "chain", {
        1: "C1: every subtractive ideal a summand",
        2: "e-projective: family e-projective",
        3: "k-projective: family k-projective",
        4: "quotients k-projective: quotients by subtractive ideals k-projective",
        5: "right split: canonical short exact sequences right split",
        6: "finite: ACC on summands; longest chain {f.summand_chain}",
        7: "finite: DCC on summands; longest chain {f.summand_chain}",
        8: "finite: irreducible parts {f.parts}"}),
    "prop-sum-einj": Claim("always", "chain", {
        1: "C1: every subtractive ideal a summand",
        2: "e-injective: family e-injective",
        3: "i-injective: family i-injective",
        4: "subtractive i-injective: subtractive ideals i-injective",
        5: "left split: canonical short exact sequences left split",
        6: "finite: k-Noetherian; longest subtractive chain {f.k_chain}",
        7: "finite: ACC on summands",
        8: "finite: DCC on summands",
        9: "finite: irreducible parts {f.parts}"}),
    "thm-idssc1": Claim("commutative", "equivalence", {
        1: "C1 & C2", 2: "e-projective & C2", 3: "k-projective & C2",
        4: "quotients k-projective & C2", 5: "right split & C2", 6: "C2", 7: "C2", 8: "C2",
        9: "ideal-semisimple"},
        witnesses={1: "splitting", 5: "right split", 9: "ideal parts"}),
    "thm-cong-c2": Claim("commutative", "equivalence", {
        1: "C1 & C2'", 2: "e-projective & C2'", 3: "k-projective & C2'",
        4: "quotients k-projective & C2'", 5: "right split & C2'", 6: "C2'", 7: "C2'",
        8: "C2'", 9: "congruence-semisimple"},
        witnesses={1: "splitting"}),
    "thm-iss-comm": Claim("commutative with C2", "equivalence", {
        1: "C1", 2: "e-injective", 3: "i-injective", 4: "subtractive i-injective",
        5: "left split", 6: "finite", 7: "finite", 8: "finite", 9: "finite",
        10: "ideal-semisimple"},
        witnesses={1: "splitting", 5: "retractions", 10: "ideal parts"}),
    "thm-css-comm": Claim("commutative with C2'", "equivalence", {
        1: "C1", 2: "e-injective", 3: "i-injective", 4: "subtractive i-injective",
        5: "left split", 6: "finite", 7: "finite", 8: "finite", 9: "finite",
        10: "congruence-semisimple"},
        witnesses={1: "splitting", 5: "retractions", 10: "congruence parts"}),
    "thm-com-idss": Claim("commutative with C2", "equivalence", {
        "1": "C1", "2a": "e-projective", "2b": "k-projective", "3a": "e-injective",
        "3b": "i-injective", "4a": "quotients k-projective", "4b": "subtractive i-injective",
        "5a": "right split", "5b": "left split", "6": "finite", "7": "finite",
        "8": "finite", "9": "finite", "10": "ideal-semisimple"},
        witnesses={"1": "splitting"}),
    "thm-com-css": Claim("commutative with C2'", "equivalence", {
        "1": "C1", "2a": "e-projective", "2b": "k-projective", "3a": "e-injective",
        "3b": "i-injective", "4a": "quotients k-projective", "4b": "subtractive i-injective",
        "5a": "right split", "5b": "left split", "6": "finite", "7": "finite",
        "8": "finite", "9": "finite", "10": "congruence-semisimple"},
        witnesses={"1": "splitting"}),
    # item 4 is C1 because every ideal is subtractive here
    "thm-id-ss-k-e": Claim("every left ideal subtractive", "equivalence", {
        1: "e-projective", 2: "k-projective", 3: "right split", 4: "C1",
        5: "ideal-semisimple"},
        witnesses={4: "splitting"}),
}


def _splitting_witness(f: InstanceFacts) -> str:
    bad = next((m for m in f.splittings if not f.poset.is_summand(m)), None)
    if bad is None:
        return ""
    retraction = f.splittings[bad][0]
    left = list(retraction) if retraction is not None else None
    return (f"subtractive {_fmt_mask(bad)} is not a summand "
            f"(summands: {[_fmt_mask(x) for x in f.poset.masks()]}); "
            f"retraction for its sequence: {left}")


WITNESSES = {
    "splitting": _splitting_witness,
    "right split": lambda f: ("all canonical sequences right split"
                              if f.facts["right split"] else ""),
    "retractions": lambda f: "; ".join(
        f"kernel {_fmt_mask(m)}: retraction {list(r) if r is not None else None}"
        for m, (r, _) in sorted(f.splittings.items())),
    "ideal parts": lambda f: f"ideal parts {f.ssprofile.ideal_parts}",
    "congruence parts": lambda f: f"congruence parts {f.ssprofile.congruence_parts}",
}


def _item(spec: str, f: InstanceFacts) -> tuple[bool | None, str]:
    """An item's value (a fact and its condition is unknown while the fact
    is) and its chain text."""
    head, _, text = spec.partition(": ")
    fact, _, cond = head.partition(" & ")
    value = True if fact == "finite" else f.facts[fact]
    if cond:
        value = value and f.facts[cond]
    return value, text.format(f=f)


def claim_records(instance: str, f: InstanceFacts) -> list[ClaimRecord]:
    """The records of every claim of :data:`CLAIMS` that applies to the
    instance of ``f``; each witness text is computed at most once."""
    commutative = f.s.commutative
    applies = {"always": True, "commutative": commutative,
               "commutative with C2": commutative and f.facts["C2"],
               "commutative with C2'": commutative and f.facts["C2'"],
               "every left ideal subtractive": f.left_subtractive}
    texts: dict[str, str] = {}
    out: list[ClaimRecord] = []
    for claim_id, claim in CLAIMS.items():
        if not applies[claim.applies]:
            continue
        items = {k: _item(spec, f) for k, spec in claim.items.items()}
        if claim.kind == "chain":
            out += _chain_records(instance, claim_id, items)
            continue
        for name in claim.witnesses.values():
            if name not in texts:
                texts[name] = WITNESSES[name](f)
        out += _equivalence_records(instance, claim_id, {k: v for k, (v, _) in items.items()},
                                    {k: texts[name] for k, name in claim.witnesses.items()})
    return out


# ---------------------------------------------------------------------------
# lemma suite (hard checks)


def lemma_suite(s: SemiringTable, limits: Limits = DEFAULT_LIMITS,
                instance: str = "") -> list[ClaimRecord]:
    """Hard per-instance checks of the supporting lemmas, over the module
    family of s (its left module plus every subobject and quotient).
    Raises :class:`LimitExceeded` when a search they read is truncated."""
    instance = instance or f"sr{s.order}-{instance_digest(s)}"
    m = s.left_module()
    family = module_test_family(m, limits)

    # map characterizations of both simplicities (raises on engine bugs)
    for mod in family:
        simplicity_profile(mod, limits)
    checked = f"checked on {len(family)} modules"
    out = [_check(instance, "lem-cong-s-char", True, checked),
           _check(instance, "lem-id-ss-char", True, checked),
           # ACC <=> DCC on summands: both trivially terminate; record the length
           _check(instance, "lem-dcc-acc", True,
                  f"chain length {summand_poset(m, limits).max_chain_length}")]

    failed: dict[str, str] = {}  # claim id -> the witness of its last failure
    for mod in family:
        subs = list(enumerate_subsemimodules(mod, limits))
        poset = summand_poset(mod, limits)
        pair_sums = [(a, b) for a in subs for b in subs if is_direct_sum(mod, [a, b])[0]]
        # Golan three-way equivalence on every subsemimodule
        for sub in subs:
            via_comp = poset.is_summand(sub.members)
            via_pairs = any(a.members == sub.members for a, b in pair_sums)
            via_cond3 = golan_condition3(mod, sub, subs)
            if not via_comp == via_pairs == via_cond3:
                failed["lem-golan-16-6"] = (f"{_fmt_mask(sub.members)}: "
                                            f"{via_comp}/{via_pairs}/{via_cond3}")
        # d-iso (2): M = K + L direct implies M/K iso L
        for a, b in pair_sums:
            quot, _ = bourne_quotient(mod, subtractive_closure(a))
            if not are_isomorphic(quot, sub_module(b)[0]):
                failed["rem-d-iso.2"] = ""
        # lemint: subtractive N, mod = L + K direct, L <= N  =>  N = L + (K n N)
        subt_masks = [t.members for t in subs if t.is_subtractive()]
        for a, b in pair_sums:
            for nmask in subt_masks:
                if (a.members & nmask == a.members
                        and not _direct_inside(mod, nmask, a.members, b.members & nmask)):
                    failed["lem-lemint"] = f"N={_fmt_mask(nmask)} L={_fmt_mask(a.members)}"
        # rem1: the unit decomposes with non-zero components in >=2-part sums
        if mod == m:
            parts = [SubStructure(mod, p) for p in
                     irreducible_decomposition(s, limits).part_masks()]
            dec = decomposition_from_parts(mod, parts)
            if ((len(parts) >= 2 and any(e.image_of[s.one] == mod.zero for e in dec.projections))
                    or not projection_identities_hold(dec)):
                failed["rem-rem1"] = ""
        # short-exact characterizations over generated (f, g) grids
        quots = [_quotient(mod, rho)[0] for rho in enumerate_congruences(mod, limits)]
        l_mods = [sub_module(sub)[0] for sub in subs]
        g_lists = [enumerate_homs(mod, qmod, limits).exhaustive_items("hom enumeration")
                   for qmod in quots]
        for lmod in l_mods:
            for fmap in enumerate_homs(lmod, mod, limits).exhaustive_items("hom enumeration"):
                for gmaps in g_lists:
                    for gmap in gmaps:
                        flags = short_exact_equivalences(fmap, gmap)
                        if not flags["exact"] == flags["iso"] == flags["explicit"]:
                            failed["cor-m-l"] = f"f={fmap.image_of} g={gmap.image_of}: {flags}"
    for claim in ("lem-golan-16-6", "lem-lemint", "rem-d-iso.2", "rem-rem1", "cor-m-l"):
        out.append(_check(instance, claim, claim not in failed, failed.get(claim, "")))
    return out


def _direct_inside(mod: SemimoduleTable, nmask: int, lmask: int, kmask: int) -> bool:
    """nmask = lmask + kmask with unique representations, inside mod: the
    sums cover nmask, and there are no more pairs than elements to cover."""
    return (_sumset(mod, lmask, kmask) == nmask
            and lmask.bit_count() * kmask.bit_count() == nmask.bit_count())


# ---------------------------------------------------------------------------
# witness-construction check for the injective chain


def einj_witness_construction_ok(s: SemiringTable,
                                 family: list[SemimoduleTable],
                                 limits: Limits = DEFAULT_LIMITS) -> bool:
    """When a subtractive ideal splits off, any extension h of g along the
    inclusion must equal (g o projection) + s -> (s e') h(1), for every h
    into a member j of ``family`` (as :func:`bounded_family` builds it).
    Raises :class:`LimitExceeded` on a truncated enumeration."""
    m = s.left_module()
    poset = summand_poset(m, limits)
    subt = enumerate_subsemimodules(m, limits, subtractive_only=True)
    for sub in subt.exhaustive_items("subtractive ideal enumeration"):
        comask = poset.complements.get(sub.members)
        if comask is None:
            continue
        parts = [sub, SubStructure(m, comask)]
        dec = decomposition_from_parts(m, parts)
        e_n = dec.projections[1].image_of[s.one]
        to_parent = sub_module(sub)[1]
        back = {p: i for i, p in enumerate(to_parent)}
        proj_onto = tuple(back[dec.projections[0].image_of[x]] for x in range(m.order))
        for j in family:
            for h in enumerate_homs(m, j, limits).exhaustive_items("hom enumeration"):
                g = tuple(h.image_of[p] for p in to_parent)
                j0 = h.image_of[s.one]
                h1 = tuple(j.act[s.mul[x][e_n]][j0] for x in range(m.order))
                if tuple(j.add[g[proj_onto[x]]][h1[x]] for x in range(m.order)) != h.image_of:
                    return False
    return True


# ---------------------------------------------------------------------------
# audit_instance


def audit_instance(s: SemiringTable, limits: Limits = DEFAULT_LIMITS,
                   instance: str = "") -> AuditReport:
    """Evaluate every chain and equivalence claim on one instance."""
    scope = "full" if s.order <= FULL_SCOPE_MAX_ORDER else "reduced"
    digest = instance_digest(s) if s.order <= 6 else "-"
    instance = instance or f"sr{s.order}-{digest}"
    facts = InstanceFacts(s, limits, scope)
    records = claim_records(instance, facts)
    # supporting hard checks that need only instance facts
    c1, e_proj = facts.facts["C1"], facts.facts["e-projective"]
    if e_proj is not None:
        records.append(_check(instance, "lem-sumproj", not c1 or e_proj))
        records.append(_check(instance, "prop-sum-einj.witness-construction",
                              einj_witness_construction_ok(s, facts.family, limits)))
    if s.commutative and facts.facts["ideal-semisimple"]:
        certs = comsum_check(s, limits)
        records.append(_check(instance, "lem-comsum",
                              all(c.equals_sub_sum and c.is_summand for c in certs),
                              f"{len(certs)} subtractive ideals"))
    # sumidsim: if every subtractive ideal is a summand, the decomposition
    # into irreducible summands must exist (it always does; assert anyway)
    records.append(_check(instance, "cor-sumidsim", facts.parts))

    if s.order <= LEMMA_SCOPE_MAX_ORDER:
        records.extend(lemma_suite(s, limits, instance=instance))

    records.sort(key=lambda r: (r.instance, r.claim_id, r.witness))
    return AuditReport(instance=instance, digest=digest, scope=scope, records=tuple(records))


# ---------------------------------------------------------------------------
# corpus runner


def _catalog_fixtures() -> list[tuple[str, SemiringTable]]:
    from . import catalog

    b = catalog.boolean_semiring()
    return [
        ("B(3,1)", catalog.make_B(3, 1)),
        ("B(3,2)", catalog.make_B(3, 2)),
        ("B(4,3)", catalog.make_B(4, 3)),
        ("B(6,5)", catalog.make_B(6, 5)),
        ("BxB", catalog.make_product([b, b])),
        ("BxBxB", catalog.make_product([b, b, b])),
        ("E(M3)", catalog.make_end_semiring(catalog.diamond_m3())),
        ("E(N5)", catalog.make_end_semiring(catalog.pentagon_n5())),
    ]


def fixture_expectation_records(limits: Limits = DEFAULT_LIMITS) -> list[ClaimRecord]:
    """Audit the externally claimed values for the named fixtures; mismatches
    are discrepancies (the computed value wins, the claim is reported).  An
    expectation whose computation hits a search limit becomes one
    non-exhaustive ``unknown`` record with the limit's message, as an
    instance does in :func:`_audit_one`."""
    from . import catalog

    out: list[ClaimRecord] = []

    def expect(instance: str, claim: str, expected, computed, witness: str = "",
               truncated: str = "") -> None:
        """``truncated`` names the search that hit a limit, if one did."""
        if truncated:
            verdict, witness = "unknown", f"{truncated} truncated"
        else:
            verdict = "holds" if expected == computed else "discrepancy"
            witness = witness or f"claimed {expected}, computed {computed}"
        out.append(ClaimRecord(instance=instance, claim_id=claim, verdict=verdict,
                               witness=witness, exhaustive=not truncated))

    @contextmanager
    def limited(instance: str, claim: str):
        try:
            yield
        except LimitExceeded as exc:
            out.append(ClaimRecord(instance=instance, claim_id=claim, verdict="unknown",
                                   witness=str(exc), exhaustive=False))

    with limited("B(3,1)", "ex-b31.quotient-iso-ideal"):
        b31 = catalog.make_B(3, 1)
        m31 = b31.left_module()
        i_sub = SubStructure(m31, 0b101)
        quot, proj = bourne_quotient(m31, i_sub)
        imod = sub_module(i_sub)[0]
        # quotient element c is a Bourne class, written [its least member]
        cls = [f"[{proj.image_of.index(c)}]" for c in range(quot.order)]
        nonzero = [f"{cls[c]}+{cls[c]}={cls[quot.add[c][c]]}"
                   for c in range(quot.order) if c != quot.zero]
        idempotent = all(imod.add[x][x] == x for x in range(imod.order))
        expect("B(3,1)", "ex-b31.quotient-iso-ideal", True,
               are_isomorphic(quot, imod),
               f"claimed S/I and I isomorphic; computed quotient has {', '.join(nonzero)} "
               f"while the ideal is {'' if idempotent else 'not '}additively idempotent")
    for p in (3, 5):
        with limited(f"B({p + 1},{p})", "ex-exb32.ideal-list"):
            s = catalog.make_B(p + 1, p)
            subs = enumerate_subsemimodules(s.left_module(), limits)
            expect(f"B({p + 1},{p})", "ex-exb32.ideal-list",
                   [[0], [0, p], list(range(p + 1))], [sorted(bits(t.members)) for t in subs],
                   truncated="" if subs.exhaustive else "ideal enumeration")
    for name, lat in (("E(M3)", catalog.diamond_m3()), ("E(N5)", catalog.pentagon_n5())):
        with limited(name, "rem-indp.5"):
            rows = {}
            truncated = []  # the variants whose C2/C2' search hit a limit
            for variant, top in (("all-endos", False), ("top-preserving", True)):
                e = catalog.make_end_semiring(lat, top_preserving=top)
                sp = semiring_simplicity_profile(e)
                cp = condition_profile(e, limits)
                if not cp.exhaustive:
                    truncated.append(variant)
                rows[variant] = (sp.congruence_simple, not sp.ideal_simple,
                                 cp.c2prime, not cp.c2)
            satisfying = [variant for variant, row in rows.items() if all(row)]
            expect(name, "rem-indp.5", (True, True, True, True), rows["all-endos"],
                   f"claimed (cong-simple, not ideal-simple, C2', not C2) = all true; "
                   f"computed all-endos={rows['all-endos']}, "
                   f"top-preserving={rows['top-preserving']}; "
                   + (f"all four hold for {', '.join(satisfying)}" if satisfying
                      else "no variant satisfies all four"),
                   truncated=("C2/C2' subtractive ideal enumeration of " + ", ".join(truncated))
                   if truncated else "")
    return out


@dataclass(frozen=True)
class CorpusReport:
    reports: tuple[AuditReport, ...]
    extra_records: tuple[ClaimRecord, ...]

    def all_records(self) -> list[ClaimRecord]:
        recs = [r for rep in self.reports for r in rep.records]
        recs.extend(self.extra_records)
        recs.sort(key=lambda r: (r.instance, r.claim_id, r.witness))
        return recs

    def hard_failures(self) -> list[ClaimRecord]:
        return [r for r in self.all_records() if r.verdict == "fails"]

    def discrepancies(self) -> list[ClaimRecord]:
        return [r for r in self.all_records() if r.verdict == "discrepancy"]

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.all_records()) + "\n"

    def summary_lines(self) -> list[str]:
        recs = self.all_records()
        counts = Counter(r.verdict for r in recs)
        return ([f"instances audited: {len(self.reports)}", f"claims checked: {len(recs)}"]
                + [f"  {k}: {counts[k]}"
                   for k in ("holds", "not-satisfied", "fails", "discrepancy", "unknown")]
                + [f"HARD FAIL {r.instance} {r.claim_id}: {r.witness}"
                   for r in recs if r.verdict == "fails"]
                + [f"discrepancy {r.instance} {r.claim_id}: {r.witness}"
                   for r in recs if r.verdict == "discrepancy"]
                + [f"unknown {r.instance} {r.claim_id}: {r.witness}"
                   for r in recs if r.verdict == "unknown"])


def _audit_one(args) -> AuditReport:
    """The report of one corpus instance.  An audit cut by a search limit
    becomes one non-exhaustive ``unknown`` record, any other engine error
    one ``fails`` record, so one instance cannot end the whole run."""
    s, limits, name = args
    try:
        return audit_instance(s, limits, instance=name)
    except LimitExceeded as exc:
        record = ClaimRecord(instance=name, claim_id="audit", verdict="unknown",
                             witness=str(exc), exhaustive=False)
    except EngineError as exc:
        record = _check(name, "audit", False, f"{type(exc).__name__}: {exc}")
    return AuditReport(instance=name, digest="-", scope="", records=(record,))


def audit_corpus(order_bound: int = 3, commutative_only: bool = False,
                 include_fixtures: bool = False,
                 limits: Limits = DEFAULT_LIMITS,
                 parallelism: int = 1) -> CorpusReport:
    """Audit every semiring of order 2..``order_bound`` (and the catalog
    fixtures).  A truncated audit of one instance, or of one fixture
    expectation (:func:`fixture_expectation_records`), is reported by its
    records; a truncated enumeration of the semirings raises
    :class:`LimitExceeded`."""
    tasks: list[tuple[SemiringTable, Limits, str]] = []
    for order in range(2, order_bound + 1):
        stream = enumerate_semirings(order, commutative_only, limits)
        for idx, s in enumerate(stream.exhaustive_items("semiring enumeration")):
            tasks.append((s, limits, f"sr{order}-{idx:03d}"))
    extra: list[ClaimRecord] = []
    if include_fixtures:
        for name, s in _catalog_fixtures():
            tasks.append((s, limits, name))
        extra.extend(fixture_expectation_records(limits))
    workers = min(parallelism, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(_audit_one, tasks)
    else:
        reports = [_audit_one(t) for t in tasks]
    reports.sort(key=lambda r: r.instance)
    return CorpusReport(reports=tuple(reports), extra_records=tuple(extra))
