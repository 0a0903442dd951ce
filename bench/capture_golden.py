"""Write golden.json: the output digests of every workload at seed 0.

Usage: python3 bench/capture_golden.py

Run it only at a commit whose outputs are known good; every later
benchmark run checks its outputs against this file.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, (build, operate, digest) in workloads.WORKLOADS.items():
            inputs = build(0, workdir)
            golden[name] = digest(inputs, operate(inputs))
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
