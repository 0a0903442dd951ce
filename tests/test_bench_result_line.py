"""The benchmark's last stdout line is its JSON result.

Whatever reads ``bench/run.py`` takes the result from its last line, so a
stray print after it, or a run that dies before it, loses the whole run.
Each case is one short run with a one-second budget.  A traced result must
also carry every per-layer metric that ``BENCHMARK.json`` declares: the
runner drops a metric whose engine function or cache no longer exists.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


@pytest.mark.parametrize("workload", ["corpus4", "analyze"])
def test_last_line_is_the_result(workload):
    metrics = _result(workload, 0)
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb"}
    for name, metric in metrics.items():
        value = metric["value"]
        assert math.isfinite(value) and value > 0, (name, value)


def test_traced_result_carries_every_declared_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = _result("corpus4", 1)
    assert set(metrics) == declared
    for name, metric in metrics.items():
        # A function the workload never calls legitimately reads 0.  The
        # overhead is the traced minus the median untraced time, so host
        # noise can make it negative.
        value = metric["value"]
        assert math.isfinite(value), (name, value)
        assert value >= 0 or name == "trace.overhead_s", (name, value)
