"""Benchmark for the finsemi engine: three workloads, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload corpus4|fixtures|analyze|all --seed N \
        --seconds S --trace 0|1

``all`` runs the three workloads one after another and prefixes each
metric in the JSON result with its workload's name.

Every operation runs in a fresh interpreter (``worker.py``), because each
``finsemi`` command starts with empty caches and the engine's module-level
caches would otherwise turn repeats into hits.  Operations run one after
another while the next one is expected to end within ``--seconds``;
nothing runs in parallel.

``--trace 0`` reports the end-to-end metrics: the median operation time
``wall_s``, the median set-up time ``setup_s`` (import plus input
building, sampled in every operation and in extra set-up-only processes)
and the median peak resident memory ``peak_rss_mb``.  ``--trace 1`` runs
one traced operation first, then untraced ones, and reports the per-layer
metrics named in ``layers.json`` plus ``trace.overhead_s``, the traced
minus the median untraced operation time.

Every operation's outputs are checked against ``golden.json``; a failure is
an exception (a truncated search raises ``LimitExceeded``) or a mismatch.
The last line printed is the JSON result; the lines before it give each
metric by name and unit, the failure rate and the run's metadata (Python
version, CPU count, commit, seed, sample counts, every operation time and
a host-speed probe timed at the start and end of the run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("corpus4", "fixtures", "analyze")

# Whole-run budget: a run must end within 180 s, whatever the host does.
RUN_BUDGET_S = 170.0
MIN_SETUP_SAMPLES = 7


def probe_s() -> float:
    """Time of a fixed pure-Python loop, to tell a slowed host from a slow
    program.  Not an end-to-end metric."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFF
    return perf_counter() - start


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Worker:
    """Runs ``worker.py`` processes one at a time within the run budget."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.args = [sys.executable, WORKER, workload, str(seed), workdir]
        self.deadline = deadline

    def __call__(self, *flags: str) -> dict:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            return {"error": "run budget exhausted"}
        try:
            proc = subprocess.run(self.args + list(flags), capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        return json.loads(lines[-1])


def failed(op: dict) -> bool:
    return bool(op.get("error") or op.get("mismatches"))


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    """Run operations until the next one is expected to end after
    ``seconds`` (at least one), then set-up-only processes until there are
    MIN_SETUP_SAMPLES set-up times.  A traced run's traced operation comes
    first and counts against ``seconds``."""
    start = perf_counter()
    work = Worker(workload, seed, workdir, start + RUN_BUDGET_S)
    probe_start = probe_s()
    loop_start = perf_counter()
    traced = work("--trace") if trace else None
    ops, spans = [], []
    while not ops or perf_counter() - loop_start + statistics.median(spans) <= seconds:
        op_start = perf_counter()
        ops.append(work())
        spans.append(perf_counter() - op_start)
        if "wall_s" not in ops[-1]:
            break
    setups = [op["setup_s"] for op in ops if "setup_s" in op]
    while len(setups) < MIN_SETUP_SAMPLES and all("setup_s" in op for op in ops):
        extra = work("--setup-only")
        if "setup_s" not in extra:
            ops.append(extra)
            break
        setups.append(extra["setup_s"])
    return {"ops": ops, "traced": traced, "setups": setups,
            "probe_s": [probe_start, probe_s()]}


def end_to_end(good: list, setups: list) -> dict:
    return {
        "wall_s": (statistics.median(op["wall_s"] for op in good), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(op["peak_rss_kib"] / 1024 for op in good), "MiB"),
    }


def per_layer(traced: dict, untraced_wall: float) -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    values = dict(traced["trace"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    # a metric of a cache that the engine no longer has is absent, not failed
    return {name: (values[name], spec["unit"]) for name, spec in layers.items() if name in values}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict | None:
    """Measure one workload, print its metric lines, and return its result
    (None when no timed operation succeeded)."""
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="finsemi-bench-", dir=scratch)
    try:
        run = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = run["ops"] + ([run["traced"]] if trace else [])
    n_failed = sum(failed(op) for op in ops)
    for op in ops:
        if failed(op):
            print(f"FAILED {workload} seed {seed}: "
                  f"{op.get('error') or json.dumps(op['mismatches'])}\n{op.get('traceback', '')}",
                  file=sys.stderr)
    good = [op for op in run["ops"] if not failed(op)]
    if not good or (trace and failed(run["traced"])):
        print(f"error: no timed {workload} operation succeeded", file=sys.stderr)
        return None
    metrics = end_to_end(good, run["setups"])
    if trace:
        metrics = per_layer(run["traced"], metrics["wall_s"][0])

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "commit": git_commit(), "probe_s": run["probe_s"],
        "samples": {"wall_s": len(good), "peak_rss_mb": len(good),
                    "setup_s": len(run["setups"]), "traced": int(trace)},
        "wall_s_samples": [op["wall_s"] for op in good],
        "setup_s_samples": run["setups"],
    }
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit} (n={meta['samples'].get(name, 1)})")
    print(f"{workload} fail_rate = {n_failed / len(ops):.6g} ratio ({n_failed}/{len(ops)})")
    print("meta " + json.dumps(meta))
    return {"attempted": len(ops), "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "finsemi", "__init__.py")):
        print(f"error: no finsemi sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = n_failed = 0
    metrics = {}
    for name in names:
        got = bench(name, args.seed, args.seconds, bool(args.trace))
        if got is None:
            return 1
        attempted += got["attempted"]
        n_failed += got["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in got["metrics"].items()})
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
