"""Line-oriented text format for semirings, semimodules, lattices and maps.

One token per cell, whitespace separated, ``#`` starts a comment line.  A
``semimodule`` block binds to the most recent ``semiring`` block; ``map``
blocks name earlier algebra blocks (0-based, semirings standing for their
left regular modules) as endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import LatticeSpec, validate_lattice
from .core import (
    LinearMap,
    SemimoduleTable,
    SemiringTable,
    validate_semimodule,
    validate_semiring,
)
from .errors import EngineError


class ParseError(EngineError):
    """Malformed input text."""


@dataclass
class ParsedFile:
    semirings: list[SemiringTable] = field(default_factory=list)
    semimodules: list[SemimoduleTable] = field(default_factory=list)
    lattices: list[LatticeSpec] = field(default_factory=list)
    maps: list[LinearMap] = field(default_factory=list)
    # semirings and semimodules in file order; map endpoints index this
    algebras: list = field(default_factory=list)


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


class _Cursor:
    def __init__(self, text: str):
        self.items = list(_tokens(text))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self):
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of file")
        self.pos += 1
        return item


def _expect_scalar(cur: _Cursor, key: str) -> int:
    lineno, words = cur.take()
    if len(words) != 2 or words[0] != key:
        raise ParseError(f"line {lineno}: expected '{key} <n>'")
    try:
        return int(words[1])
    except ValueError:
        raise ParseError(f"line {lineno}: '{words[1]}' is not a decimal index")


def _expect_keyword(cur: _Cursor, key: str) -> None:
    lineno, words = cur.take()
    if words != [key]:
        raise ParseError(f"line {lineno}: expected '{key}'")


def _read_rows(cur: _Cursor, n_rows: int, n_cols: int, what: str) -> list[list[int]]:
    rows = []
    for _ in range(n_rows):
        lineno, words = cur.take()
        try:
            row = [int(w) for w in words]
        except ValueError:
            raise ParseError(f"line {lineno}: non-decimal entry in {what} table")
        if len(row) != n_cols:
            raise ParseError(f"line {lineno}: {what} row needs {n_cols} entries, got {len(row)}")
        rows.append(row)
    return rows


def parse_text(text: str) -> ParsedFile:
    cur = _Cursor(text)
    out = ParsedFile()
    while cur.peek() is not None:
        lineno, words = cur.take()
        kind = words[0]
        if words != [kind]:
            raise ParseError(f"line {lineno}: block header must be a bare keyword")
        if kind == "semiring":
            order = _expect_scalar(cur, "order")
            zero = _expect_scalar(cur, "zero")
            one = _expect_scalar(cur, "one")
            _expect_keyword(cur, "add")
            add = _read_rows(cur, order, order, "add")
            _expect_keyword(cur, "mul")
            mul = _read_rows(cur, order, order, "mul")
            s = validate_semiring(add, mul, zero=zero, one=one)
            out.semirings.append(s)
            out.algebras.append(s)
        elif kind == "semimodule":
            if not out.semirings:
                raise ParseError(f"line {lineno}: semimodule block before any semiring")
            base = out.semirings[-1]
            order = _expect_scalar(cur, "order")
            zero = _expect_scalar(cur, "zero")
            _expect_keyword(cur, "add")
            add = _read_rows(cur, order, order, "add")
            _expect_keyword(cur, "act")
            act = _read_rows(cur, base.order, order, "act")
            m = validate_semimodule(base, add, act, zero=zero)
            out.semimodules.append(m)
            out.algebras.append(m)
        elif kind == "lattice":
            order = _expect_scalar(cur, "order")
            bottom = _expect_scalar(cur, "bottom")
            top = _expect_scalar(cur, "top")
            _expect_keyword(cur, "join")
            join = _read_rows(cur, order, order, "join")
            meet = None
            nxt = cur.peek()
            if nxt is not None and nxt[1] == ["meet"]:
                cur.take()
                meet = _read_rows(cur, order, order, "meet")
            out.lattices.append(validate_lattice(join, bottom, top, meet))
        elif kind == "map":
            src_idx = _expect_scalar(cur, "source")
            tgt_idx = _expect_scalar(cur, "target")
            lineno2, words2 = cur.take()
            if words2[0] != "images":
                raise ParseError(f"line {lineno2}: expected 'images <i0> <i1> ...'")
            try:
                images = [int(w) for w in words2[1:]]
            except ValueError:
                raise ParseError(f"line {lineno2}: non-decimal image index")
            src = _algebra_as_module(out, src_idx, lineno)
            tgt = _algebra_as_module(out, tgt_idx, lineno)
            out.maps.append(LinearMap(src, tgt, tuple(images)))
        else:
            raise ParseError(f"line {lineno}: unknown block '{kind}'")
    return out


def _algebra_as_module(parsed: ParsedFile, idx: int, lineno: int) -> SemimoduleTable:
    if not 0 <= idx < len(parsed.algebras):
        raise ParseError(f"line {lineno}: no algebra block with index {idx}")
    alg = parsed.algebras[idx]
    return alg.left_module() if isinstance(alg, SemiringTable) else alg


# ---------------------------------------------------------------------------
# emission


def _rows(table) -> list[str]:
    return [" ".join(str(v) for v in row) for row in table]


def emit_semiring(s: SemiringTable) -> str:
    lines = ["semiring", f"order {s.order}", f"zero {s.zero}", f"one {s.one}", "add"]
    lines += _rows(s.add)
    lines.append("mul")
    lines += _rows(s.mul)
    return "\n".join(lines) + "\n"


def emit_semimodule(m: SemimoduleTable) -> str:
    """The base semiring's block, then the module's."""
    lines = ["semimodule", f"order {m.order}", f"zero {m.zero}", "add"]
    lines += _rows(m.add)
    lines.append("act")
    lines += _rows(m.act)
    return emit_semiring(m.base) + "\n".join(lines) + "\n"


def emit_lattice(lat: LatticeSpec) -> str:
    lines = ["lattice", f"order {lat.order}", f"bottom {lat.bottom}",
             f"top {lat.top}", "join"]
    lines += _rows(lat.join)
    if lat.meet is not None:
        lines.append("meet")
        lines += _rows(lat.meet)
    return "\n".join(lines) + "\n"


def emit_map(f: LinearMap, source_idx: int, target_idx: int) -> str:
    images = " ".join(str(v) for v in f.image_of)
    return f"map\nsource {source_idx}\ntarget {target_idx}\nimages {images}\n"
