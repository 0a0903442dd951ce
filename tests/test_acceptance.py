"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (these are decision procedures; there are no
numeric tolerances to calibrate).  Each test computes all of its facts
first, prints its verdict line, then asserts every pinned sub-fact, so a
failing criterion still reports which sub-fact broke.
"""

import time

import pytest

from finsemi.auditor import (
    audit_instance,
    enumerate_semirings,
    lemma_suite,
)
from finsemi.catalog import (
    boolean_semiring,
    diamond_m3,
    make_B,
    make_end_semiring,
    make_product,
    pentagon_n5,
)
from finsemi.cli import run
from finsemi.core import (
    SubStructure,
    bits,
    bourne_congruence,
    enumerate_subsemimodules,
    quotient_by_congruence,
    sub_module,
)
from finsemi.homs import are_isomorphic
from finsemi.projinj import bounded_family, is_e_projective
from finsemi.semisimple import (
    comsum_check,
    condition_profile,
    semiring_simplicity_profile,
    semisimplicity_profile,
)
from finsemi.summands import summand_poset


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {state}{suffix}")


def test_criterion_1_bni_fixtures():
    b = boolean_semiring()
    b21 = make_B(2, 1)
    boolean_match = (b21.add, b21.mul, b21.zero, b21.one) == (b.add, b.mul, b.zero, b.one)
    zn_match = True
    for n in range(2, 7):
        s = make_B(n, 0)
        add = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
        mul = tuple(tuple((x * y) % n for y in range(n)) for x in range(n))
        zn_match = zn_match and (s.add, s.mul) == (add, mul)
    _report(1, boolean_match and zn_match, "exact table equality")
    assert boolean_match
    assert zn_match


def test_criterion_2_b31_reproduction():
    s = make_B(3, 1)
    m = s.left_module()
    ideal = SubStructure(m, 0b101)
    facts = {}
    facts["ideal is subtractive"] = ideal.is_subtractive()
    facts["ideal is not a direct summand"] = not summand_poset(m).is_summand(0b101)
    ss = semisimplicity_profile(s)
    facts["not ideal-semisimple"] = not ss.ideal_semisimple
    facts["not congruence-semisimple"] = not ss.congruence_semisimple
    quot, _ = quotient_by_congruence(m, bourne_congruence(m, ideal))
    imod = sub_module(ideal)[0]
    nz = 1 - imod.zero
    facts["ideal isomorphic to the boolean module"] = (
        imod.order == 2 and imod.add[nz][nz] == nz)
    qnz = 1 - quot.zero
    facts["quotient is two elements with [1]+[1]=[0]"] = (
        quot.order == 2 and quot.add[qnz][qnz] == quot.zero)
    facts["quotient not isomorphic to the ideal"] = not are_isomorphic(quot, imod)
    ok = all(facts.values())
    _report(2, ok, "; ".join(k for k, v in facts.items() if not v)
            or f"all {len(facts)} facts")
    assert facts["ideal is subtractive"]
    assert facts["ideal is not a direct summand"]
    assert facts["not ideal-semisimple"]
    assert facts["not congruence-semisimple"]
    assert facts["ideal isomorphic to the boolean module"]
    # In B(3,1), 1+1=2, 1+2=1 and 2+2=2.  The Bourne classes of I={0,2} are
    # {0,2} and {1}, so [1]+[1]=[2]=[0], while 2+2=2 in I: a two-element
    # module whose nonzero element sums to zero is not isomorphic to one
    # whose nonzero element is idempotent.
    assert facts["quotient is two elements with [1]+[1]=[0]"]
    assert facts["quotient not isomorphic to the ideal"]


# {0} with every T in {1..p} closed under addition capped at p, in
# ascending bitset order
BP1P_IDEALS = {
    3: [[0], [0, 3], [0, 2, 3], [0, 1, 2, 3]],
    5: [[0], [0, 5], [0, 3, 5], [0, 4, 5], [0, 2, 4, 5], [0, 3, 4, 5],
        [0, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]],
}


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_3_bp1p_reproduction(p):
    s = make_B(p + 1, p)
    m = s.left_module()
    ideals = [sorted(bits(t.members)) for t in enumerate_subsemimodules(m)]
    subtractive = [sorted(bits(t.members))
                   for t in enumerate_subsemimodules(m, subtractive_only=True)]
    trivial_subtractive = subtractive == [[0], list(range(p + 1))]
    family_e_proj = all(is_e_projective(mod, m).holds for mod in bounded_family(s))
    ss = semisimplicity_profile(s)
    not_ss = not ss.ideal_semisimple and not ss.congruence_semisimple
    ideal_list_matches = ideals == BP1P_IDEALS[p]
    ok = ideal_list_matches and trivial_subtractive and family_e_proj and not_ss
    _report(3, ok, f"p={p}; ideal list {ideals}")
    assert trivial_subtractive
    assert family_e_proj
    assert not_ss
    # B(p+1,p) adds and multiplies with the result capped at p, and k*x is
    # x added k times, so every T in {1..p} closed under capped addition
    # gives an ideal {0} with T: {0,2,3} for p=3 (2+2 caps to 3), {0,3,5}
    # for p=5.  None but {0} and S is subtractive.
    assert ideal_list_matches, (
        f"expected ideals {BP1P_IDEALS[p]}, computed {ideals}")


def test_criterion_4_condition_matrix():
    cp32 = condition_profile(make_B(3, 2))
    b32_ok = (cp32.c1, cp32.c2, cp32.c2prime) == (True, False, False)
    cp31 = condition_profile(make_B(3, 1))
    b31_ok = (cp31.c1, cp31.c2) == (False, True)
    end_facts = {}
    for name, lat in (("E(M3)", diamond_m3()), ("E(N5)", pentagon_n5())):
        e = make_end_semiring(lat)
        rep = semiring_simplicity_profile(e)
        cp = condition_profile(e)
        end_facts[name] = {
            "congruence-simple": rep.congruence_simple,
            "not ideal-simple": not rep.ideal_simple,
            "C2'": cp.c2prime,
            "C2": cp.c2,
        }
    end_ok = all(all(v.values()) for v in end_facts.values())
    ok = b32_ok and b31_ok and end_ok
    failing = [f"{name}: {k}" for name, v in end_facts.items()
               for k, val in v.items() if not val]
    _report(4, ok, "; ".join(failing) or "full matrix")
    assert b32_ok
    assert b31_ok
    for name, v in end_facts.items():
        assert v["congruence-simple"], name
        assert v["not ideal-simple"], name
        assert v["C2'"], name
        # E is additively idempotent, so a subtractive left ideal is a
        # join-closed down-set, the down-set of its join c; closure under
        # left multiplication forces c to take only the values bottom and
        # top, which leaves L_a = {f : f(a) = 0}, one per lattice element.
        # For a' covering b, L_b/L_a' is the lattice as its natural E-module
        # through f -> f(a'), which is ideal-simple, so C2 holds.  (The
        # top-preserving variant fails C2 but is not congruence-simple; the
        # auditor's rem-indp.5 record carries both rows.)
        assert v["C2"], f"{name}: C2 computed false on the all-endomorphisms carrier"


def test_criterion_5_implication_chains_within_budget():
    t0 = time.time()
    failures = []
    for order in (2, 3):
        for idx, s in enumerate(enumerate_semirings(order)):
            rep = audit_instance(s, instance=f"sr{order}-{idx:03d}")
            failures.extend(r for r in rep.hard_failures()
                            if r.claim_id.startswith(("prop-proj-impl", "prop-sum-einj")))
    for idx, s in enumerate(enumerate_semirings(4, commutative_only=True)):
        rep = audit_instance(s, instance=f"sr4c-{idx:03d}")
        failures.extend(r for r in rep.hard_failures()
                        if r.claim_id.startswith(("prop-proj-impl", "prop-sum-einj")))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    _report(5, ok, f"orders 2-3 plus 36 commutative order-4 in {elapsed:.1f}s")
    assert elapsed < 600
    assert not failures, failures


def test_criterion_6_lemma_suite():
    violations = []
    for order in (2, 3):
        for idx, s in enumerate(enumerate_semirings(order)):
            for rec in lemma_suite(s, instance=f"sr{order}-{idx:03d}"):
                if rec.verdict != "holds":
                    violations.append(rec)
    _report(6, not violations, "cong-s-char, id-ss-char, dcc-acc, lemint, "
            "golan-16-6, cor-m-l on every order <= 3 instance")
    assert not violations, violations


def test_criterion_7_comsum_on_semisimple_instances():
    b = boolean_semiring()
    instances = [make_product([b, b]), make_product([b, b, b])]
    for order in (2, 3):
        for s in enumerate_semirings(order):
            if s.commutative and semisimplicity_profile(s).ideal_semisimple:
                instances.append(s)
    bad = []
    for s in instances:
        for cert in comsum_check(s):
            if not (cert.equals_sub_sum and cert.is_summand):
                bad.append((s, cert))
    _report(7, not bad, f"{len(instances)} commutative ideal-semisimple instances")
    assert not bad, bad


def test_criterion_8_discrepancy_channel():
    rep = audit_instance(make_B(3, 1), instance="B(3,1)")  # must not raise
    records = [r for r in rep.records if r.claim_id == "thm-iss-comm.(1)<=>(5)"]
    ok = (len(records) == 1
          and records[0].verdict == "discrepancy"
          and "not a summand" in records[0].witness
          and "[0, 1, 1]" in records[0].witness)
    _report(8, ok, "splitting tension reported with both witnesses")
    assert len(records) == 1, "the (1)<=>(5) record must be emitted exactly once"
    rec = records[0]
    assert rec.verdict == "discrepancy"
    assert "not a summand" in rec.witness, "needs the non-summand certificate"
    assert "[0, 1, 1]" in rec.witness, "needs the retraction map table"
    assert not rep.hard_failures(), "the tension must not be a hard failure"


def test_criterion_9_deterministic_reports(tmp_path):
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    code1 = run(["audit", "--order", "3", "--format", "jsonl",
                 "--out", str(seq), "--parallel", "1"])
    code8 = run(["audit", "--order", "3", "--format", "jsonl",
                 "--out", str(par), "--parallel", "8"])
    identical = seq.read_bytes() == par.read_bytes()
    ok = identical and code1 == 0 and code8 == 0
    _report(9, ok, f"{len(seq.read_bytes())} bytes, parallelism 1 vs 8")
    assert code1 == 0 and code8 == 0
    assert identical
