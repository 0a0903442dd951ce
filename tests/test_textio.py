"""Text format round trips and parse errors."""

import pytest

from finsemi.catalog import diamond_m3
from finsemi.errors import AxiomViolations
from finsemi.textio import (
    ParseError,
    emit_lattice,
    emit_map,
    emit_semimodule,
    emit_semiring,
    parse_text,
)

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


def test_parse_b31_block(B31):
    parsed = parse_text(B31_TEXT)
    assert len(parsed.semirings) == 1
    s = parsed.semirings[0]
    assert (s.add, s.mul, s.zero, s.one) == (B31.add, B31.mul, 0, 1)


def test_emit_b31_matches_reference(B31):
    assert emit_semiring(B31) == B31_TEXT


def test_comments_and_blank_lines_ignored():
    text = "# a fixture\n\n" + B31_TEXT.replace("add\n", "add  # rows follow\n")
    assert parse_text(text).semirings[0].add == ((0, 1, 2), (1, 2, 1), (2, 1, 2))


def test_semimodule_roundtrip(B31):
    m = B31.left_module()
    text = emit_semimodule(m)
    parsed = parse_text(text)
    assert len(parsed.semimodules) == 1
    assert parsed.semimodules[0].add == m.add
    assert parsed.semimodules[0].act == m.act


def test_every_catalog_fixture_round_trips(catalog_fixtures):
    for name, s in catalog_fixtures:
        parsed = parse_text(emit_semimodule(s.left_module()))
        assert parsed.semirings == [s], name
        assert parsed.semimodules == [s.left_module()], name


def test_semimodule_without_semiring_rejected():
    with pytest.raises(ParseError):
        parse_text("semimodule\norder 1\nzero 0\nadd\n0\nact\n0\n")


def test_map_block(B31):
    m = B31.left_module()
    text = emit_semiring(B31) + "map\nsource 0\ntarget 0\nimages 0 2 2\n"
    parsed = parse_text(text)
    assert len(parsed.maps) == 1
    assert parsed.maps[0].image_of == (0, 2, 2)


def test_map_block_with_bad_reference(B31):
    text = emit_semiring(B31) + "map\nsource 3\ntarget 0\nimages 0 2 2\n"
    with pytest.raises(ParseError):
        parse_text(text)


def test_nonlinear_map_rejected(B31):
    text = emit_semiring(B31) + "map\nsource 0\ntarget 0\nimages 0 1 1\n"
    with pytest.raises(AxiomViolations):
        parse_text(text)


def test_lattice_roundtrip():
    lat = diamond_m3()
    parsed = parse_text(emit_lattice(lat))
    assert len(parsed.lattices) == 1
    assert parsed.lattices[0].join == lat.join
    assert parsed.lattices[0].meet == lat.meet


def test_unknown_block_rejected():
    with pytest.raises(ParseError):
        parse_text("ring\norder 2\n")


def test_ragged_row_rejected():
    with pytest.raises(ParseError):
        parse_text(B31_TEXT.replace("0 1 2\n1 2 1", "0 1\n1 2 1"))


def test_non_decimal_rejected():
    with pytest.raises(ParseError):
        parse_text(B31_TEXT.replace("0 1 2", "0 x 2", 1))


def test_emit_map_shape(B31):
    m = B31.left_module()
    from finsemi.core import identity_map

    text = emit_map(identity_map(m), 0, 0)
    assert text == "map\nsource 0\ntarget 0\nimages 0 1 2\n"
