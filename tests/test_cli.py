"""Command-line behavior: dispatch, exit codes, deterministic reports."""

import json

import pytest

from finsemi.cli import run

B31_TEXT = """\
semiring
order 3
zero 0
one 1
add
0 1 2
1 2 1
2 1 2
mul
0 0 0
0 1 2
0 2 2
"""


@pytest.fixture()
def b31_file(tmp_path):
    path = tmp_path / "b31.sr"
    path.write_text(B31_TEXT, encoding="utf-8")
    return str(path)


def test_catalog_bni_emits_reference_block(capsys):
    assert run(["catalog", "bni", "--n", "3", "--i", "1"]) == 0
    assert capsys.readouterr().out == B31_TEXT


def test_validate_ok(b31_file, capsys):
    assert run(["validate", b31_file]) == 0
    out = capsys.readouterr().out
    assert "1 semiring(s)" in out


def test_validate_axiom_violation(tmp_path, capsys):
    bad = B31_TEXT.replace("0 2 2", "0 2 1")
    path = tmp_path / "bad.sr"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", str(path)]) == 1


def test_missing_file_is_input_error(capsys):
    assert run(["validate", "/nonexistent/x.sr"]) == 2


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "junk.sr"
    path.write_text("widget\norder 1\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 2


def test_analyze_report(b31_file, capsys):
    assert run(["analyze", b31_file]) == 0
    out = capsys.readouterr().out
    assert "left ideals: 3" in out
    assert "subtractive ideals: 3" in out
    assert "congruences: 4" in out
    assert "ideal-semisimple: False" in out
    assert "congruence-semisimple: False" in out
    assert "C1: False  C2: True" in out


def test_decompose_report(b31_file, capsys):
    assert run(["decompose", b31_file]) == 0
    assert "irreducible summands: 1" in capsys.readouterr().out


def test_audit_small_green(capsys):
    assert run(["audit", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "instances audited: 2" in out
    assert "fails: 0" in out


def test_audit_jsonl_deterministic_across_parallelism(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out8 = tmp_path / "b.jsonl"
    assert run(["audit", "--order", "2", "--format", "jsonl",
                "--out", str(out1), "--parallel", "1"]) == 0
    assert run(["audit", "--order", "2", "--format", "jsonl",
                "--out", str(out8), "--parallel", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_a_hom_limit_in_the_fixture_expectations_keeps_the_report(tmp_path):
    # End(M) of E(M3) and E(N5) is cut inside the rem-indp.5 expectation;
    # each cut expectation is one unknown record and the report is written
    out = tmp_path / "cut.jsonl"
    assert run(["--limits", "max_hom_nodes=1", "audit", "--order", "2", "--fixtures",
                "--format", "jsonl", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    cut = [r for r in records if r["claim_id"] == "rem-indp.5"]
    assert [r["instance"] for r in cut] == ["E(M3)", "E(N5)"]
    for r in cut:
        assert r["verdict"] == "unknown" and not r["exhaustive"]
        assert r["witness"] == "End(M) enumeration hit the node limit"
    assert not [r for r in records if r["verdict"] == "fails"]


def test_catalog_product(b31_file, capsys):
    assert run(["catalog", "product", b31_file, b31_file]) == 0
    assert "order 9" in capsys.readouterr().out


def test_catalog_matrix(b31_file, capsys):
    assert run(["catalog", "matrix", b31_file, "--k", "1"]) == 0
    assert capsys.readouterr().out == B31_TEXT


def test_limits_parsing_rejects_unknown_key(b31_file):
    assert run(["--limits", "bogus=3", "analyze", b31_file]) == 2


def test_limits_parsing_rejects_nonpositive(b31_file):
    assert run(["--limits", "max_results=0", "analyze", b31_file]) == 2


def test_analyze_marks_a_truncated_congruence_enumeration(tmp_path, capsys):
    from finsemi.catalog import chain_lattice, make_end_semiring
    from finsemi.textio import emit_semiring

    # order 20, above the cross-check bound, so the truncated run completes
    path = tmp_path / "ec4.sr"
    path.write_text(emit_semiring(make_end_semiring(chain_lattice(4))), encoding="utf-8")
    assert run(["--limits", "max_steps=3", "analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for head in ("congruences:", "subtractive ideals:", "C1:"):
        assert [line for line in lines if line.startswith(head)][0].endswith("(truncated)"), head
    assert run(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(truncated)" not in out
    assert "subtractive ideals: 4\n" in out


B43_ANALYZE = """\
semiring of order 4 (zero=0, one=1)
flags: commutative=True zerosumfree=True cancellative=False
left ideals: 4
  {0} subtractive
  {0,3}
  {0,2,3}
  {0,1,2,3} subtractive
subtractive ideals: 2
congruences: 4
  classes [0, 0, 0, 0]
  classes [0, 1, 1, 1]
  classes [0, 1, 2, 2]
  classes [0, 1, 2, 3]
direct summands: ['{0}', '{0,1,2,3}']
ideal-simple: False  congruence-simple: False
ideal-semisimple: False  congruence-semisimple: False
C1: True  C2: False  C2': False
"""


def test_analyze_skips_the_map_crosscheck_on_truncated_enumerations(tmp_path, capsys):
    # B(4,3) is below the cross-check bound: the map cross-check needs both
    # enumerations, so a truncated run reports them instead of failing
    assert run(["catalog", "bni", "--n", "4", "--i", "3"]) == 0
    path = tmp_path / "b43.sr"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["--limits", "max_steps=3", "analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for head in ("left ideals:", "subtractive ideals:", "congruences:"):
        assert [line for line in lines if line.startswith(head)][0].endswith("(truncated)"), head
    assert run(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == B43_ANALYZE


def test_analyze_reports_a_truncated_hom_search(b31_file, capsys):
    # the map cross-check of simplicity_profile needs every hom; a cut
    # search is a limit, not an engine bug
    assert run(["--limits", "max_hom_nodes=1", "analyze", b31_file]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: hom enumeration truncated\n"


def test_catalog_end_from_lattice_file(tmp_path, capsys):
    from finsemi.catalog import diamond_m3
    from finsemi.textio import emit_lattice

    path = tmp_path / "m3.lat"
    path.write_text(emit_lattice(diamond_m3()), encoding="utf-8")
    assert run(["catalog", "end", str(path)]) == 0
    assert "order 50" in capsys.readouterr().out


def test_catalog_end_of_one_element_lattice_fails(tmp_path, capsys):
    from finsemi.catalog import chain_lattice
    from finsemi.textio import emit_lattice

    path = tmp_path / "c1.lat"
    path.write_text(emit_lattice(chain_lattice(1)), encoding="utf-8")
    assert run(["catalog", "end", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: End(M) has a single element")


def test_catalog_lattice_distributive_only(tmp_path, capsys):
    from finsemi.catalog import chain_lattice, diamond_m3
    from finsemi.textio import emit_lattice

    chain = tmp_path / "chain.lat"
    chain.write_text(emit_lattice(chain_lattice(3)), encoding="utf-8")
    assert run(["catalog", "lattice", str(chain)]) == 0
    capsys.readouterr()
    m3 = tmp_path / "m3.lat"
    m3.write_text(emit_lattice(diamond_m3()), encoding="utf-8")
    assert run(["catalog", "lattice", str(m3)]) == 1


def test_validate_rejects_a_map_image_outside_the_target(tmp_path, capsys):
    path = tmp_path / "map.sr"
    path.write_text(B31_TEXT + "map\nsource 0\ntarget 0\nimages 0 1 9\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: image_of index out of range\n"


@pytest.mark.parametrize("bad", ["top 5", "join entry 7"])
def test_catalog_lattice_rejects_indices_outside_the_carrier(tmp_path, capsys, bad):
    from finsemi.catalog import chain_lattice
    from finsemi.textio import emit_lattice

    text = emit_lattice(chain_lattice(3))
    text = text.replace("top 2", "top 5") if bad == "top 5" else text.replace("2 2 2", "2 7 2")
    assert text != emit_lattice(chain_lattice(3))
    path = tmp_path / "bad.lat"
    path.write_text(text, encoding="utf-8")
    assert run(["catalog", "lattice", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
