"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED WORKDIR [--trace] [--setup-only]

Imports ``finsemi`` from the ``src`` directory next to this one, builds the
workload's inputs (the set-up), runs the timed operation once and checks
its outputs against ``golden.json``.  Prints one JSON line:

    {"setup_s", "wall_s", "peak_rss_kib", "mismatches", "trace"}

or ``{"error", "traceback"}`` when the engine raised.

``--trace`` wraps the engine's public functions (see ``tracer.py``) for
the timed call and adds the per-layer metrics; ``--setup-only`` stops
after the set-up.  Engine exceptions are reported in ``error``, not raised.
"""

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")


def run_once(workload: str, seed: int, workdir: str, trace: bool, setup_only: bool) -> dict:
    t0 = perf_counter()
    sys.path[:0] = [SRC, HERE]
    import finsemi
    if not os.path.abspath(finsemi.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported finsemi from {finsemi.__file__}, not from {SRC}")
    import workloads

    build, operate, digest = workloads.WORKLOADS[workload]
    inputs = build(seed, workdir)
    out = {"setup_s": perf_counter() - t0}
    if setup_only:
        return out

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = perf_counter()
    try:
        result = operate(inputs)
    finally:
        out["wall_s"] = perf_counter() - start
        if tracer:
            tracer.uninstall()
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[workload]
    got = digest(inputs, result)
    out["mismatches"] = {key: {"expected": want, "got": got.get(key)}
                         for key, want in golden.items() if got.get(key) != want}
    if tracer:
        out["trace"] = {**tracer.metrics(), **tracing.cache_metrics()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    try:
        out = run_once(args.workload, args.seed, args.workdir, args.trace, args.setup_only)
    except Exception as exc:  # reported to the parent, which counts the failure
        out = {"error": f"{type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc(limit=8)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
