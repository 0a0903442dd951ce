"""Semiring enumeration up to isomorphism and the audit machinery."""

import copy
import json
import re
from types import SimpleNamespace

import pytest

from finsemi import auditor, core
from finsemi.auditor import (
    audit_corpus,
    audit_instance,
    canonical_form,
    einj_witness_construction_ok,
    enumerate_semirings,
    fixture_expectation_records,
    lemma_suite,
)
from finsemi.catalog import make_B
from finsemi.core import Limits, discrete_partition, semiring_violations, validate_semiring
from finsemi.errors import AxiomViolations, LimitExceeded
from finsemi.projinj import bounded_family
from finsemi.semisimple import semiring_simplicity_profile


def test_order_two_stream(B, Z2):
    stream = enumerate_semirings(2)
    assert stream.exhaustive
    forms = [(s.add, s.mul) for s in stream]
    assert canonical_form(Z2) in forms
    assert canonical_form(B) in forms
    assert len(forms) == 2  # frozen after brute-force verification


def test_order_three_counts(B31, B32):
    stream = enumerate_semirings(3)
    assert len(stream) == 6  # frozen after brute-force verification
    commutative = enumerate_semirings(3, commutative_only=True)
    assert len(commutative) == 6
    forms = [(s.add, s.mul) for s in commutative]
    assert canonical_form(B31) in forms
    assert canonical_form(B32) in forms


def test_order_four_counts():
    assert len(enumerate_semirings(4, commutative_only=True)) == 36
    assert len(enumerate_semirings(4)) == 40


def test_order_five_counts():
    """No independent route confirms the order-5 counts 295 and 228.  What
    backs them: the same search agrees with the naive all-tables route of
    ``tests/oracle.py`` at orders 2-4 in both modes
    (``test_semiring_enumeration_against_all_tables``); every item here
    satisfies the axioms and is its own canonical form, so no two are
    isomorphic; the commutative-only search, which mirrors each product
    cell and so walks another tree, finds exactly the commutative members
    of the full list; and the one congruence-simple item is GF(5), as
    Zumbrägel's classification of finite congruence-simple semirings with
    zero (J. Algebra Appl. 7, 2008) allows at this order."""
    full = enumerate_semirings(5)
    commutative = enumerate_semirings(5, commutative_only=True)
    assert full.exhaustive and commutative.exhaustive
    assert (len(full), len(commutative)) == (295, 228)
    for s in full:
        assert not semiring_violations(s.add, s.mul, s.zero, s.one)
        assert (s.add, s.mul) == canonical_form(s)
    assert [(s.add, s.mul) for s in commutative] == [(s.add, s.mul) for s in full
                                                      if s.commutative]
    simple = [s for s in full if semiring_simplicity_profile(s).congruence_simple]
    assert len(simple) == 1
    (gf5,) = simple
    assert all(0 in row for row in gf5.add)  # the addition is a group


@pytest.mark.parametrize("limits", [Limits(max_steps=100), Limits(max_results=3)],
                         ids=["max_steps", "max_results"])
def test_truncated_enumeration_is_a_correct_subset(limits):
    stream = enumerate_semirings(4, limits=limits)
    assert not stream.exhaustive
    forms = [(s.add, s.mul) for s in stream]
    assert forms and len(set(forms)) == len(forms)
    assert set(forms) <= {(s.add, s.mul) for s in enumerate_semirings(4)}
    for s in stream:
        assert not semiring_violations(s.add, s.mul, s.zero, s.one)
        assert (s.add, s.mul) == canonical_form(s)
    with pytest.raises(LimitExceeded):
        audit_corpus(order_bound=4, limits=limits)


def test_trivial_orders_are_empty():
    assert len(enumerate_semirings(1)) == 0
    assert len(enumerate_semirings(0)) == 0


def test_stream_is_deterministic():
    a = [(s.add, s.mul) for s in enumerate_semirings(3)]
    b = [(s.add, s.mul) for s in enumerate_semirings(3)]
    assert a == b


def test_canonical_form_is_relabeling_invariant(B43):
    # move the zero and one of B(4,3) somewhere else and re-canonicalize
    perm = (2, 3, 0, 1)
    inv = [0] * 4
    for old, new in enumerate(perm):
        inv[new] = old
    add = [[perm[B43.add[inv[a]][inv[b]]] for b in range(4)] for a in range(4)]
    mul = [[perm[B43.mul[inv[a]][inv[b]]] for b in range(4)] for a in range(4)]
    relabeled = validate_semiring(add, mul, zero=perm[0], one=perm[1])
    assert canonical_form(relabeled) == canonical_form(B43)


def test_corrupted_table_is_a_validation_error_not_a_verdict():
    with pytest.raises(AxiomViolations):
        validate_semiring([[0, 1, 2], [1, 2, 1], [2, 1, 2]],
                          [[0, 0, 0], [0, 1, 2], [0, 2, 1]], zero=0, one=1)


# ---------------------------------------------------------------------------
# audits


def test_audit_b31_has_no_hard_failures(B31):
    rep = audit_instance(B31, instance="B(3,1)")
    assert not rep.hard_failures()
    ids = {r.claim_id for r in rep.records}
    assert "prop-proj-impl.1=>2" in ids
    assert "prop-sum-einj.1=>2" in ids


def test_audit_b31_reports_the_splitting_tension(B31):
    rep = audit_instance(B31, instance="B(3,1)")
    tension = [r for r in rep.records if r.claim_id == "thm-iss-comm.(1)<=>(5)"]
    assert len(tension) == 1
    rec = tension[0]
    assert rec.verdict == "discrepancy"
    assert "not a summand" in rec.witness
    assert "[0, 1, 1]" in rec.witness  # the retraction map table


def test_audit_order3_green():
    rep = audit_corpus(order_bound=3)
    assert not rep.hard_failures()
    assert len(rep.reports) == 8


def test_audit_parallelism_is_clamped_to_cpus_and_tasks(monkeypatch):
    import multiprocessing
    import os

    pools = []

    class RecordingPool:
        """Runs the tasks in this process and records the pool size asked for."""

        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    audit_corpus(order_bound=3, parallelism=8)  # 8 tasks
    audit_corpus(order_bound=2, parallelism=8)  # 2 tasks
    audit_corpus(order_bound=3, parallelism=2)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    audit_corpus(order_bound=2, parallelism=8)  # unknown CPU count: serial
    assert pools == [3, 2, 2]


def test_audit_parallel_merge_is_identical():
    a = audit_corpus(order_bound=3, parallelism=1).to_jsonl()
    b = audit_corpus(order_bound=3, parallelism=2).to_jsonl()
    assert a == b


def test_jsonl_records_are_wellformed():
    rep = audit_corpus(order_bound=2)
    for line in rep.to_jsonl().strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"instance", "claim_id", "verdict", "witness", "exhaustive"}


def test_empty_corpus_is_green():
    rep = audit_corpus(order_bound=1)
    assert rep.reports == ()
    assert not rep.hard_failures()


def test_lemma_suite_order_three_clean():
    for order in (2, 3):
        for s in enumerate_semirings(order):
            for rec in lemma_suite(s):
                assert rec.verdict == "holds", (rec.claim_id, rec.witness)


def test_einj_witness_construction(B43, BxB):
    assert einj_witness_construction_ok(B43, bounded_family(B43))
    assert einj_witness_construction_ok(BxB, bounded_family(BxB))


def test_einj_witness_construction_reads_every_hom():
    # with three hom nodes End(M) of B(3,1) is whole but Hom(M, M + M) is
    # cut; the check raises instead of passing on the maps it saw
    from finsemi.core import product_module

    s = make_B(3, 1)
    mm = product_module(s.left_module(), s.left_module())
    assert einj_witness_construction_ok(s, [mm])
    with pytest.raises(LimitExceeded, match="^hom enumeration truncated$"):
        einj_witness_construction_ok(s, [mm], Limits(max_hom_nodes=3))


def test_einj_witness_construction_reads_every_subtractive_ideal(BxB):
    # a lattice cut after one ideal raises instead of passing on that ideal
    with pytest.raises(LimitExceeded, match="^subtractive ideal enumeration truncated$"):
        einj_witness_construction_ok(BxB, bounded_family(BxB), Limits(max_results=1))


def test_fixture_expectations_emit_known_discrepancies():
    records = fixture_expectation_records()
    by_id = {(r.instance, r.claim_id): r for r in records}
    assert by_id[("B(3,1)", "ex-b31.quotient-iso-ideal")].verdict == "discrepancy"
    assert by_id[("B(4,3)", "ex-exb32.ideal-list")].verdict == "discrepancy"
    assert by_id[("E(M3)", "rem-indp.5")].verdict == "discrepancy"
    assert by_id[("E(N5)", "rem-indp.5")].verdict == "discrepancy"


def test_fixture_expectation_witnesses_follow_the_computed_values(monkeypatch):
    # a discrete "Bourne" partition makes the quotient all of B(3,1), where
    # 1+1=2 and 2+2=2; the faked profiles make every rem-indp.5 item hold.
    # The stored quotient is built in core, so the partition is faked there
    monkeypatch.setattr(core, "bourne_congruence", lambda m, sub: discrete_partition(m))
    monkeypatch.setattr(auditor, "semiring_simplicity_profile",
                        lambda s: SimpleNamespace(congruence_simple=True, ideal_simple=False))
    monkeypatch.setattr(auditor, "condition_profile",
                        lambda s, limits: SimpleNamespace(c2prime=True, c2=False,
                                                          exhaustive=True))
    by_id = {(r.instance, r.claim_id): r for r in fixture_expectation_records()}
    b31 = by_id[("B(3,1)", "ex-b31.quotient-iso-ideal")]
    assert b31.verdict == "discrepancy"
    assert b31.witness.endswith("computed quotient has [1]+[1]=[2], [2]+[2]=[2] "
                                "while the ideal is additively idempotent")
    for name in ("E(M3)", "E(N5)"):
        rec = by_id[(name, "rem-indp.5")]
        assert rec.verdict == "holds"
        assert rec.witness.endswith("all four hold for all-endos, top-preserving")


def test_each_bourne_quotient_is_built_once(monkeypatch):
    # over the audits of the eight fixtures, the deciders and InstanceFacts
    # build M/K at most once per module table and K; summands reads Bourne
    # relations without building quotients, so its calls are left out
    import sys

    real = core.bourne_congruence
    built = []

    def spy(m, sub):
        built.append((m, sub.members))  # holding m keeps its id unique
        return real(m, sub)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("finsemi.") and name != "finsemi.summands"
                and getattr(mod, "bourne_congruence", None) is real):
            monkeypatch.setattr(mod, "bourne_congruence", spy)
    for name, s in auditor._catalog_fixtures():
        audit_instance(s, instance=name)
    keys = [(id(m), members) for m, members in built]
    assert keys and len(set(keys)) == len(keys)


def test_truncated_fixture_expectations_are_unknown():
    # two results cut the ideal list of B(4,3) to [[0], [0, 1, 2, 3]] and the
    # C2/C2' profiles of E(M3) and E(N5) to a prefix of their lattices
    by_id = {(r.instance, r.claim_id): r for r in fixture_expectation_records(Limits(max_results=2))}
    for key, search in ((("B(4,3)", "ex-exb32.ideal-list"), "ideal enumeration"),
                        (("B(6,5)", "ex-exb32.ideal-list"), "ideal enumeration"),
                        (("E(M3)", "rem-indp.5"), "C2/C2' subtractive ideal enumeration"),
                        (("E(N5)", "rem-indp.5"), "C2/C2' subtractive ideal enumeration")):
        rec = by_id[key]
        assert (rec.verdict, rec.exhaustive) == ("unknown", False), key
        assert rec.witness.startswith(search) and rec.witness.endswith("truncated"), key
    # the B(3,1) quotient is built without a bounded search
    assert by_id[("B(3,1)", "ex-b31.quotient-iso-ideal")].exhaustive


def test_audit_product_all_items_hold(BxB):
    rep = audit_instance(BxB, instance="BxB")
    assert not rep.hard_failures()
    items = {r.claim_id: r.verdict for r in rep.records}
    assert items["thm-idssc1"] == "holds"
    assert items["thm-iss-comm"] == "holds"
    assert items["lem-comsum"] == "holds"


def test_reduced_scope_audit_of_endomorphism_fixture():
    from finsemi.catalog import diamond_m3, make_end_semiring

    e = make_end_semiring(diamond_m3())
    rep = audit_instance(e, instance="E(M3)")
    assert rep.scope == "reduced"
    assert not rep.hard_failures()
    ids = {r.claim_id for r in rep.records}
    # chains are still audited; family-quantified items come back unknown
    assert "prop-proj-impl.1=>2" in ids
    unknowns = [r for r in rep.records if r.verdict == "unknown"]
    assert unknowns and all(not r.exhaustive for r in unknowns)


def test_full_scope_covers_order_six_fixture():
    rep = audit_instance(make_B(6, 5), instance="B(6,5)")
    assert rep.scope == "full"
    assert not rep.hard_failures()


def test_named_small_corpus_is_green(B, Z2, B31, B32, B43, BxB):
    for name, s in [("B", B), ("Z2", Z2), ("B(3,1)", B31), ("B(3,2)", B32),
                    ("B(4,3)", B43), ("BxB", BxB)]:
        rep = audit_instance(s, instance=name)
        assert rep.scope == "full"
        assert not rep.hard_failures(), (name, rep.hard_failures())


# ---------------------------------------------------------------------------
# claim encodings, one fact at a time

# For each named fact, the items of each claim that read it, declared apart
# from the auditor's claim table.  C2 and C2' also decide whether claims
# apply at all: GATED names the claims that stop applying when one is false.
READS = {
    "C1": {"prop-proj-impl": {"1"}, "prop-sum-einj": {"1"}, "thm-idssc1": {"1"},
           "thm-cong-c2": {"1"}, "thm-iss-comm": {"1"}, "thm-css-comm": {"1"},
           "thm-com-idss": {"1"}, "thm-com-css": {"1"}, "thm-id-ss-k-e": {"4"}},
    "C2": {"thm-idssc1": {"1", "2", "3", "4", "5", "6", "7", "8"}},
    "C2'": {"thm-cong-c2": {"1", "2", "3", "4", "5", "6", "7", "8"}},
    "e-projective": {"prop-proj-impl": {"2"}, "thm-idssc1": {"2"}, "thm-cong-c2": {"2"},
                     "thm-com-idss": {"2a"}, "thm-com-css": {"2a"}, "thm-id-ss-k-e": {"1"}},
    "k-projective": {"prop-proj-impl": {"3"}, "thm-idssc1": {"3"}, "thm-cong-c2": {"3"},
                     "thm-com-idss": {"2b"}, "thm-com-css": {"2b"}, "thm-id-ss-k-e": {"2"}},
    "quotients k-projective": {"prop-proj-impl": {"4"}, "thm-idssc1": {"4"},
                               "thm-cong-c2": {"4"}, "thm-com-idss": {"4a"},
                               "thm-com-css": {"4a"}},
    "right split": {"prop-proj-impl": {"5"}, "thm-idssc1": {"5"}, "thm-cong-c2": {"5"},
                    "thm-com-idss": {"5a"}, "thm-com-css": {"5a"}, "thm-id-ss-k-e": {"3"}},
    "e-injective": {"prop-sum-einj": {"2"}, "thm-iss-comm": {"2"}, "thm-css-comm": {"2"},
                    "thm-com-idss": {"3a"}, "thm-com-css": {"3a"}},
    "i-injective": {"prop-sum-einj": {"3"}, "thm-iss-comm": {"3"}, "thm-css-comm": {"3"},
                    "thm-com-idss": {"3b"}, "thm-com-css": {"3b"}},
    "subtractive i-injective": {"prop-sum-einj": {"4"}, "thm-iss-comm": {"4"},
                                "thm-css-comm": {"4"}, "thm-com-idss": {"4b"},
                                "thm-com-css": {"4b"}},
    "left split": {"prop-sum-einj": {"5"}, "thm-iss-comm": {"5"}, "thm-css-comm": {"5"},
                   "thm-com-idss": {"5b"}, "thm-com-css": {"5b"}},
    "ideal-semisimple": {"thm-idssc1": {"9"}, "thm-iss-comm": {"10"},
                         "thm-com-idss": {"10"}, "thm-id-ss-k-e": {"5"}},
    "congruence-semisimple": {"thm-cong-c2": {"9"}, "thm-css-comm": {"10"},
                              "thm-com-css": {"10"}},
}
GATED = {"C2": {"thm-iss-comm", "thm-com-idss"}, "C2'": {"thm-css-comm", "thm-com-css"}}
CLAIMS = set().union(*READS.values())
CHAINS = {"prop-proj-impl", "prop-sum-einj"}


def _false_items(report) -> dict[str, set[str]]:
    """Claim id -> the keys of its items that are false, for every claim of
    READS in ``report``; equivalence items are read off the "items disagree"
    witness, so a claim that holds has every item true here."""
    out = {}
    for rec in report.records:
        claim, _, rest = rec.claim_id.partition(".")
        if claim in CHAINS and rest.startswith("item"):
            out.setdefault(claim, set())
            if rec.verdict == "not-satisfied":
                out[claim].add(rest[len("item"):])
        elif claim in CLAIMS and not rest:
            out[claim] = {k for k, v in re.findall(r"\((\w+)\)=(\w+)", rec.witness)
                          if v == "False"}
    return out


@pytest.mark.parametrize("fact", sorted(READS))
def test_each_fact_moves_exactly_the_items_that_read_it(B, monkeypatch, fact):
    # on B, commutative with every ideal subtractive, every claim applies
    # and every fact holds; negating one fact must make false exactly the
    # items that read it and drop exactly the claims it gates
    base = auditor.InstanceFacts(B, Limits(), "full")
    assert set(base.facts) == set(READS) and all(base.facts.values())
    assert _false_items(audit_instance(B, instance="B")) == {c: set() for c in CLAIMS}

    def flipped(s, limits, scope):
        f = copy.copy(base)
        f.facts = {**base.facts, fact: not base.facts[fact]}
        return f

    monkeypatch.setattr(auditor, "InstanceFacts", flipped)
    want = {c: READS[fact].get(c, set()) for c in CLAIMS - GATED.get(fact, set())}
    assert _false_items(audit_instance(B, instance="B")) == want


def test_each_witness_is_computed_once_per_instance(B31, monkeypatch):
    # on B(3,1) six claims show the splitting witness, each in several
    # pairwise records
    calls = []
    for name, make in list(auditor.WITNESSES.items()):
        monkeypatch.setitem(auditor.WITNESSES, name,
                            lambda f, name=name, make=make: calls.append(name) or make(f))
    rep = audit_instance(B31, instance="B(3,1)")
    assert sum("not a summand" in r.witness for r in rep.records) > 6
    assert sorted(calls) == sorted(set(calls)) and "splitting" in calls


def test_lemma_suite_keeps_each_lemma_its_own_witness(B31, monkeypatch):
    # golan_condition3 answering None breaks lem-golan-16-6 and _direct_inside
    # answering False breaks lem-lemint, later in the same loop; each record
    # must carry its own lemma's witness
    monkeypatch.setattr(auditor, "golan_condition3", lambda mod, sub, subs: None)
    monkeypatch.setattr(auditor, "_direct_inside", lambda mod, n, l, k: False)
    by_id = {r.claim_id: r for r in lemma_suite(B31, instance="B(3,1)")}
    golan, lemint = by_id["lem-golan-16-6"], by_id["lem-lemint"]
    assert (golan.verdict, lemint.verdict) == ("fails", "fails")
    assert golan.witness.endswith("/None"), golan.witness
    assert lemint.witness.startswith("N="), lemint.witness
    assert by_id["cor-m-l"].verdict == "holds" and by_id["cor-m-l"].witness == ""


def test_a_truncated_instance_is_unknown_and_the_run_completes(tmp_path, capsys):
    # one hom node cuts End(M) of most instances of order <= 3; each cut
    # instance is one unknown record carrying the limit's message
    cut = Limits(max_hom_nodes=1)
    rep = audit_corpus(order_bound=3, limits=cut)
    assert len(rep.reports) == 8
    unknown = [r for r in rep.all_records() if r.verdict == "unknown"]
    assert unknown
    for rec in unknown:
        assert rec.claim_id == "audit" and not rec.exhaustive
        assert "node limit" in rec.witness or "truncated" in rec.witness, rec.witness
    assert rep.to_jsonl() == audit_corpus(order_bound=3, limits=cut, parallelism=2).to_jsonl()
    from finsemi.cli import run

    out = tmp_path / "cut.jsonl"
    assert run(["--limits", "max_hom_nodes=1", "audit", "--order", "3",
                "--format", "jsonl", "--out", str(out)]) == 0
    assert out.read_text() == rep.to_jsonl()


def test_the_summary_gives_each_unknown_record_its_reason():
    rep = audit_corpus(order_bound=3, limits=Limits(max_hom_nodes=1))
    unknown = [r for r in rep.all_records() if r.verdict == "unknown"]
    assert len(unknown) == 8
    lines = rep.summary_lines()
    assert "  unknown: 8" in lines
    assert [line for line in lines if line.startswith("unknown ")] == [
        f"unknown {r.instance} {r.claim_id}: {r.witness}" for r in unknown]
    assert "unknown sr2-000 audit: End(M) enumeration hit the node limit" in lines


def test_an_engine_error_in_one_instance_is_a_hard_failure(monkeypatch):
    from finsemi.errors import CrosscheckFailure

    real = auditor.audit_instance

    def audit(s, limits, instance=""):
        if instance == "sr2-001":
            raise CrosscheckFailure("two routes disagree")
        return real(s, limits, instance=instance)

    monkeypatch.setattr(auditor, "audit_instance", audit)
    rep = audit_corpus(order_bound=2)
    assert [(r.instance, r.claim_id, r.witness) for r in rep.hard_failures()] == [
        ("sr2-001", "audit", "CrosscheckFailure: two routes disagree")]
    assert {r.instance for r in rep.all_records()} == {"sr2-000", "sr2-001"}
