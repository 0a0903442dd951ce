"""Checks of the benchmark's own machinery, on inputs small enough for the
unit-test suite: the tracer sees every call site and changes no output,
the relabelling is a re-validated isomorphic copy, and the metric list
agrees with BENCHMARK.json.

Every traced benchmark run also checks the traced operation's outputs
against golden.json, on the full workloads.
"""

import inspect
import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from finsemi import auditor, homs, projinj, semisimple, summands  # noqa: E402
from finsemi.catalog import make_B  # noqa: E402


def small_workloads(workdir):
    """Cut-down versions of the three workloads, keyed like WORKLOADS."""
    fixtures = [(name, workloads.relabel(s, workloads.permutation(3, name, s.order)))
                for name, s in workloads.catalog_fixtures()[:3]]
    path = os.path.join(workdir, "b43.sr")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workloads.textio.emit_semiring(make_B(4, 3)))
    return {
        "corpus4": lambda: workloads.digest_corpus4(3, auditor.audit_corpus(order_bound=3)),
        "fixtures": lambda: workloads.verdict_multiset(
            [auditor.audit_instance(s, instance=name) for name, s in fixtures]),
        "analyze": lambda: workloads.digest_analyze(path, workloads.operate_analyze(path)),
    }


def test_every_module_binding_is_rebound_and_restored():
    originals = {}
    for mod_name, mod in tracing.engine_modules().items():
        for fn_name, fn in tracing.traceable(mod).items():
            originals[id(fn)] = f"{mod_name}.{fn_name}"
    with tracing.Tracer():
        for mod in tracing.finsemi_modules():
            missed = [attr for attr, obj in vars(mod).items() if id(obj) in originals]
            assert not missed, f"{mod.__name__} still holds untraced {missed}"
    assert homs.enumerate_homs.__name__ == "enumerate_homs"
    assert not hasattr(homs.enumerate_homs, "_traced_original")


def test_call_counts_agree_whichever_module_calls():
    m = make_B(3, 1).left_module()
    with tracing.Tracer() as tr:
        for mod in (homs, projinj, summands, semisimple, auditor):
            mod.enumerate_homs(m, m)
    st = tr.stats["homs.enumerate_homs"]
    assert st.calls == 5
    assert st.count == 5 * len(homs.enumerate_homs(m, m))


def test_call_counts_match_a_profiler(tmp_path):
    """For every traced function whose body runs on each call (no cache, not
    a generator), the tracer counts exactly the calls a profiler sees."""
    run = small_workloads(str(tmp_path))
    codes = {key: fn.__code__ for key, fn in
             ((f"{m}.{n}", f) for m, mod in tracing.engine_modules().items()
              for n, f in tracing.traceable(mod).items())
             if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)}
    tracing.clear_caches()
    tr = tracing.Tracer()
    tr.install()
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        for op in run.values():
            op()
    finally:
        sys.setprofile(None)
        tr.uninstall()
    counted = {key: tr.stats[key].calls for key in codes}
    assert counted == {key: seen[code] for key, code in codes.items()}
    assert counted["core.linear_map_violations"] > 0
    assert counted["core.congruence_closure"] > 0


def test_tracing_leaves_outputs_unchanged(tmp_path):
    run = small_workloads(str(tmp_path))
    tracing.clear_caches()
    plain = {name: op() for name, op in run.items()}
    tracing.clear_caches()
    with tracing.Tracer() as tr:
        traced = {name: op() for name, op in run.items()}
    assert traced == plain
    metrics = tr.metrics()
    assert sum(metrics[f"{m}.self_s"] for m in tracing.ENGINE_MODULES) > 0
    assert metrics["auditor.audit_instance.calls"] == 8 + 3


def test_self_times_sum_to_at_most_the_outer_span():
    s = make_B(3, 1)
    with tracing.Tracer() as tr:
        auditor.audit_instance(s)
    outer = tr.stats["auditor.audit_instance"].total_s
    assert sum(tr.module_self_s().values()) <= outer * (1 + 1e-9)


def test_relabel_is_a_validated_isomorphic_copy():
    s = make_B(6, 5)
    assert workloads.permutation(0, "B(6,5)", 6) == list(range(6))
    pi = workloads.permutation(4, "B(6,5)", 6)
    assert sorted(pi) == list(range(6)) and pi != list(range(6))
    r = workloads.relabel(s, pi)
    assert (r.zero, r.one) == (pi[s.zero], pi[s.one])
    assert all(r.add[pi[a]][pi[b]] == pi[s.add[a][b]] and r.mul[pi[a]][pi[b]] == pi[s.mul[a][b]]
               for a in range(6) for b in range(6))


def test_percentiles_use_nearest_rank():
    assert tracing.percentiles([]) == {"p50_s": 0.0, "p90_s": 0.0, "max_s": 0.0}
    got = tracing.percentiles([float(x) for x in range(10, 0, -1)])
    assert got == {"p50_s": 5.0, "p90_s": 9.0, "max_s": 10.0}


def test_metric_lists_agree_with_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(name, spec["unit"], spec["better"]) for name, spec in layers.items()]
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(golden) == \
        sorted(workloads.WORKLOADS)
