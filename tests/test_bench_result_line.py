"""The benchmark's last stdout line is its JSON result.

Whatever reads ``bench/run.py`` takes the result from its last line, so a
stray print after it, or a run that dies before it, loses the whole run.
Each case is one short run (one-second budget, no tracing).
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["corpus4", "analyze"])
def test_last_line_is_the_result(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb"}
    for name, metric in metrics.items():
        value = metric["value"]
        assert math.isfinite(value) and value > 0, (name, value)
