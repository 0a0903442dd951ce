"""Constructors for the named finite semiring families used everywhere else.

Everything returned here goes through full table validation; nothing is
assumed from the construction formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DEFAULT_LIMITS,
    Limits,
    SemiringTable,
    Table,
    _as_table,
    _check_entries,
    _check_indices,
    validate_semimodule,
    validate_semiring,
)
from .errors import (
    AxiomViolations,
    InvalidParameters,
    LimitExceeded,
    NotDistributive,
    Violation,
)
from .homs import enumerate_homs
from .summands import end_semiring


def make_B(n: int, i: int) -> SemiringTable:
    """The semiring on {0..n-1} whose overflow wraps into [i, n) mod (n - i)."""
    if n < 2 or not 0 <= i < n:
        raise InvalidParameters(f"need n >= 2 and 0 <= i < n, got n={n}, i={i}")

    def wrap(v: int) -> int:
        if v < n:
            return v
        return i + (v - i) % (n - i)

    add = tuple(tuple(wrap(a + b) for b in range(n)) for a in range(n))
    mul = tuple(tuple(wrap(a * b) for b in range(n)) for a in range(n))
    return validate_semiring(add, mul, zero=0, one=1)


def boolean_semiring() -> SemiringTable:
    """Two elements with 1 + 1 = 1."""
    return validate_semiring(((0, 1), (1, 1)), ((0, 0), (0, 1)), zero=0, one=1)


def make_product(factors: Sequence[SemiringTable]) -> SemiringTable:
    """Componentwise product; index of a tuple is its mixed-radix value."""
    if not factors:
        raise InvalidParameters("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    orders = [f.order for f in factors]
    total = 1
    for o in orders:
        total *= o

    def unpack(x: int) -> list[int]:
        out = []
        for o in reversed(orders):
            out.append(x % o)
            x //= o
        out.reverse()
        return out

    def pack(comps: Sequence[int]) -> int:
        x = 0
        for o, c in zip(orders, comps):
            x = x * o + c
        return x

    elements = [unpack(x) for x in range(total)]
    add = tuple(
        tuple(pack([f.add[a][b] for f, a, b in zip(factors, ea, eb)]) for eb in elements)
        for ea in elements
    )
    mul = tuple(
        tuple(pack([f.mul[a][b] for f, a, b in zip(factors, ea, eb)]) for eb in elements)
        for ea in elements
    )
    zero = pack([f.zero for f in factors])
    one = pack([f.one for f in factors])
    return validate_semiring(add, mul, zero=zero, one=one)


def make_matrix_semiring(s: SemiringTable, k: int, limits: Limits = DEFAULT_LIMITS) -> SemiringTable:
    """k x k matrices over ``s`` with entrywise sum and convolution product."""
    if k < 1:
        raise InvalidParameters("need k >= 1")
    total = s.order ** (k * k)
    if total > limits.max_carrier:
        raise LimitExceeded(f"matrix carrier {total} exceeds limit {limits.max_carrier}")
    cells = k * k

    def unpack(x: int) -> tuple[int, ...]:
        out = []
        for _ in range(cells):
            out.append(x % s.order)
            x //= s.order
        return tuple(out)

    def pack(entries: Sequence[int]) -> int:
        x = 0
        for e in reversed(entries):
            x = x * s.order + e
        return x

    mats = [unpack(x) for x in range(total)]
    sadd, smul = s.add, s.mul

    def mat_add(a, b):
        return pack([sadd[x][y] for x, y in zip(a, b)])

    def mat_mul(a, b):
        out = []
        for r in range(k):
            for c in range(k):
                acc = s.zero
                for t in range(k):
                    acc = sadd[acc][smul[a[r * k + t]][b[t * k + c]]]
                out.append(acc)
        return pack(out)

    add = tuple(tuple(mat_add(a, b) for b in mats) for a in mats)
    mul = tuple(tuple(mat_mul(a, b) for b in mats) for a in mats)
    zero = pack([s.zero] * cells)
    one = pack([s.one if r == c else s.zero for r in range(k) for c in range(k)])
    return validate_semiring(add, mul, zero=zero, one=one)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class LatticeSpec:
    """A finite lattice given by its join table (meet optional)."""

    order: int
    join: Table
    bottom: int
    top: int
    meet: Table | None = None


def validate_lattice(join: Sequence[Sequence[int]], bottom: int, top: int,
                     meet: Sequence[Sequence[int]] | None = None) -> LatticeSpec:
    n = len(join)
    join_t = _as_table(join, n, n, "join")
    _check_entries(join_t, n, "join")
    meet_t = None
    if meet is not None:
        meet_t = _as_table(meet, n, n, "meet")
        _check_entries(meet_t, n, "meet")
    _check_indices(n, "bottom/top", bottom, top)
    bad: list[Violation] = []
    for a in range(n):
        if join_t[a][a] != a:
            bad.append(Violation("join-idempotent", (a,)))
        if join_t[bottom][a] != a:
            bad.append(Violation("bottom-identity", (a,)))
        if join_t[top][a] != top:
            bad.append(Violation("top-absorbs", (a,)))
        for b in range(n):
            if join_t[a][b] != join_t[b][a]:
                bad.append(Violation("join-commutative", (a, b)))
            for c in range(n):
                if join_t[join_t[a][b]][c] != join_t[a][join_t[b][c]]:
                    bad.append(Violation("join-associative", (a, b, c)))
    if meet_t is not None:
        # meet[a][b] is the greatest lower bound of a and b in the order
        # x <= y iff join(x, y) = y; absorption follows when the join laws hold
        below = [{x for x in range(n) if join_t[x][a] == a} for a in range(n)]
        for a in range(n):
            for b in range(n):
                c = meet_t[a][b]
                if not below[c] >= below[a] & below[b] >= {c}:
                    bad.append(Violation("meet-is-greatest-lower-bound", (a, b)))
    if bad:
        raise AxiomViolations(bad)
    return LatticeSpec(order=n, join=join_t, bottom=bottom, top=top, meet=meet_t)


def lattice_from_leq(leq: Sequence[Sequence[bool]]) -> LatticeSpec:
    """Build a LatticeSpec from a <= relation (must have all joins/meets)."""
    n = len(leq)

    def lub(a: int, b: int) -> int:
        uppers = [x for x in range(n) if leq[a][x] and leq[b][x]]
        for u in uppers:
            if all(leq[u][v] for v in uppers):
                return u
        raise InvalidParameters(f"no join for ({a}, {b})")

    def glb(a: int, b: int) -> int:
        lowers = [x for x in range(n) if leq[x][a] and leq[x][b]]
        for u in lowers:
            if all(leq[v][u] for v in lowers):
                return u
        raise InvalidParameters(f"no meet for ({a}, {b})")

    join = tuple(tuple(lub(a, b) for b in range(n)) for a in range(n))
    meet = tuple(tuple(glb(a, b) for b in range(n)) for a in range(n))
    bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
    top = next(x for x in range(n) if all(leq[y][x] for y in range(n)))
    return validate_lattice(join, bottom, top, meet)


def chain_lattice(n: int) -> LatticeSpec:
    leq = [[a <= b for b in range(n)] for a in range(n)]
    return lattice_from_leq(leq)


def diamond_m3() -> LatticeSpec:
    """0 at the bottom, 4 on top, atoms 1, 2, 3 pairwise incomparable."""
    pairs = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}
    leq = [[a == b or (a, b) in pairs for b in range(5)] for a in range(5)]
    return lattice_from_leq(leq)


def pentagon_n5() -> LatticeSpec:
    """0 < 1 < 3 < 4 on one side, 0 < 2 < 4 on the other."""
    pairs = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4), (2, 4)}
    leq = [[a == b or (a, b) in pairs for b in range(5)] for a in range(5)]
    return lattice_from_leq(leq)


def distributivity_witness(lat: LatticeSpec) -> tuple[int, int, int] | None:
    if lat.meet is None:
        raise InvalidParameters("need a meet table to test distributivity")
    n = lat.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if lat.meet[a][lat.join[b][c]] != lat.join[lat.meet[a][b]][lat.meet[a][c]]:
                    return (a, b, c)
    return None


def make_lattice_semiring(lat: LatticeSpec) -> SemiringTable:
    """Bounded distributive lattice as a semiring: add=join, mul=meet."""
    if lat.meet is None:
        raise InvalidParameters("need a meet table")
    witness = distributivity_witness(lat)
    if witness is not None:
        raise NotDistributive(witness)
    return validate_semiring(lat.join, lat.meet, zero=lat.bottom, one=lat.top)


def make_end_semiring(lat: LatticeSpec, top_preserving: bool = False,
                      limits: Limits = DEFAULT_LIMITS) -> SemiringTable:
    """Endomorphism semiring of the join monoid of ``lat``.

    Addition is pointwise join and multiplication is composition, with
    ``(f * g)(x) = f(g(x))``.  By default the carrier is every map fixing
    the bottom and preserving joins; ``top_preserving`` restricts to maps
    fixing the top as well, with the zero map adjoined so the result still
    has an absorbing zero.  Elements are the maps in image-tuple order.

    The join monoid is a module over the Boolean semiring (0 sends every
    element to the bottom, 1 fixes it), and its linear maps are exactly the
    join maps fixing the bottom.  So the tables are those of
    :func:`summands.end_semiring` of that module, restricted in the
    top-preserving case.  The carrier is counted against ``max_carrier``
    before any table is built.  Raises :class:`DegenerateStructure` on the
    one-element lattice, whose only endomorphism is both zero and one.
    """
    n = lat.order
    act = ((lat.bottom,) * n, tuple(range(n)))
    module = validate_semimodule(boolean_semiring(), lat.join, act, lat.bottom)
    zero_map = (lat.bottom,) * n
    keep = [i for i, f in enumerate(enumerate_homs(module, module, limits))
            if not top_preserving or f.image_of == zero_map or f(lat.top) == lat.top]
    if len(keep) > limits.max_carrier:
        raise LimitExceeded(f"{len(keep)} endomorphisms exceed limit {limits.max_carrier}")
    t = end_semiring(module, limits).semiring
    if not top_preserving:
        return validate_semiring(t.add, t.mul, zero=t.zero, one=t.one)
    pos = {i: k for k, i in enumerate(keep)}
    add = [[pos[t.add[i][j]] for j in keep] for i in keep]
    mul = [[pos[t.mul[i][j]] for j in keep] for i in keep]
    return validate_semiring(add, mul, zero=pos[t.zero], one=pos[t.one])
