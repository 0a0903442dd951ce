"""Byte-identity gate on the audit report stream.

`audit --order 4 --fixtures --format jsonl` must reproduce the stored
report exactly: refactors of the engine may not move a single verdict or
witness.  The golden file is gzip-compressed; uncompressed it is 5842
lines, 969,868 bytes, sha256 GOLDEN_SHA256 below.  The run takes under a
second (0.44 s on a 2-CPU machine).

Regenerate only for an intended, explained change to the report (say why
in CHANGES.md), from the repository root:

    PYTHONPATH=src python -c 'import sys; from finsemi import cli; sys.exit(cli.run(["audit", "--order", "4", "--fixtures", "--format", "jsonl"]))' | gzip -n -9 > tests/data/audit_order4_fixtures.jsonl.gz

and update GOLDEN_SHA256 to `gunzip -c tests/data/audit_order4_fixtures.jsonl.gz | sha256sum`.
"""

import gzip
import hashlib
import os

from finsemi import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "audit_order4_fixtures.jsonl.gz")
GOLDEN_SHA256 = "d58de239ee5dccbc8f89ed72e7fe3297326d9bcf35919d0bf806cf5e7c1c46b7"


def _first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {i} differs:\n  golden: {w}\n  now:    {g}"
    return f"golden has {len(want_lines)} lines, the run {len(got_lines)}"


def test_golden_file_is_intact():
    with gzip.open(GOLDEN, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_SHA256


def test_audit_order4_fixtures_jsonl_is_byte_identical(capsys):
    assert cli.run(["audit", "--order", "4", "--fixtures", "--format", "jsonl"]) == 0
    got = capsys.readouterr().out
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        want = fh.read()
    assert got == want, _first_difference(want, got)
