"""Finite semirings and semimodules as validated dense tables.

Elements are indices 0..order-1; the distinguished zero/one are explicit
indices and need not sit at positions 0/1.  Subsets of a carrier are plain
Python ints with bitset semantics, iterated in ascending index order so
every enumeration in the package is reproducible.

Each value is checked once.  Input from outside the engine is checked where
it enters: by :func:`validate_semiring`, :func:`validate_semimodule`,
:func:`make_partition`, ``LinearMap(...)`` and :func:`quotient_by_congruence`.
A value the engine derives from checked values (a composite of linear maps,
a quotient by a congruence the engine built, the table of End(M), a table
whose axiom instances the semiring enumeration checked cell by cell) is
correct by construction and is built unchecked, through :func:`_linear_map`,
:func:`_quotient` and :func:`_semiring_table`.  A :class:`SubStructure` is
checked once, when it is built, by its closure (:func:`_closure_mask`).  The
image of a linear map is closed by linearity, so engine code that needs only
a predicate on an image works on the image mask and builds no SubStructure.

Derived structure is built once and stored, outside the dataclass fields,
on the table it is derived from, so every caller shares one object and
every ``lru_cache`` keyed on it hits by identity instead of comparing whole
tables.  A semiring table keeps its left module, its zero module
(:func:`zero_module`) and a generating set under + and ·; a module table
its columns (the action transposed, one column of scalar actions per
element) and its cyclic generator (:func:`_cyclic_generator`), which the
Hom search reads.  Both keep the generating translations that every
closure applies (:func:`_generating_translations`).  All else derived
from a module table sits in its one store, which :func:`_stored` alone
reads and writes: its lattices, by limits (:func:`enumerate_subsemimodules`),
and each promoted subsemimodule (:func:`sub_module`), quotient
(:func:`_quotient`), Bourne quotient (:func:`bourne_quotient`) and zero map
out of it (:func:`zero_map`), by mask, class map, mask and target.  Engine
code that holds a mask it has closed itself reaches a promotion or a Bourne
quotient through :func:`_sub_module` or :func:`_bourne_quotient`, with no
SubStructure.  The whole carrier promotes to the table itself, and the
quotient by the diagonal is the table itself.  A linear map keeps its image
mask, its kernel mask and its k-normality.  The stores are left out of eq,
hash and repr, and a module table pickles without them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterator, Sequence, Union

from .errors import (
    AxiomViolations,
    IncompatiblePartition,
    LimitExceeded,
    NotComposable,
    ShapeError,
    Violation,
)

Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# bitset helpers


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def full_mask(order: int) -> int:
    return (1 << order) - 1


# ---------------------------------------------------------------------------
# limits and enumeration results


@dataclass(frozen=True)
class Limits:
    """Search bounds, and the one rule by which they cut an enumeration.

    Each enumeration counts its steps (its docstring says what one step
    is).  It stops at the step past ``max_steps``, or at a result beyond
    the first ``max_results``; a Hom search counts nodes against
    ``max_hom_nodes`` and has no result cap.  A stopped search keeps the
    results found so far, each a correct one, and returns them with
    ``exhaustive=False`` (see :class:`Enumeration`); an answer that just
    fits under ``max_results`` is no cut.  ``max_carrier`` bounds the
    carrier of a semiring the catalog builds."""

    max_results: int = 200_000
    max_steps: int = 20_000_000
    max_hom_nodes: int = 2_000_000
    max_carrier: int = 4096

    def __post_init__(self):
        # the enumerators put their first result in before any cap check
        if self.max_results < 1:
            raise ValueError(f"max_results must be at least 1, got {self.max_results}")


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class Enumeration:
    """A deterministic list of results plus an ``exhaustive`` marker.

    ``exhaustive=False`` means a limit was hit: each item is correct and
    the items are a subset of the full answer, but "only"-style conclusions
    must not be drawn from them.
    """

    items: tuple
    exhaustive: bool

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def exhaustive_items(self, what: str) -> tuple:
        """The items, or :class:`LimitExceeded` naming ``what`` when a limit
        cut them: for callers whose verdict needs the whole answer."""
        if not self.exhaustive:
            raise LimitExceeded(f"{what} truncated")
        return self.items


class _Cut(Exception):
    """A limit cut the search; raised and caught by :class:`_Budget` only."""


class _Budget:
    """The rule of :class:`Limits` for one search.  :meth:`step` counts one
    step against ``steps`` and :meth:`admit` checks that one more result
    fits under ``results``; past either limit they raise :class:`_Cut`.  As
    a context manager around the search it catches the cut, so the search
    keeps what it found, and sets :attr:`exhaustive` to False.  A search
    with no result cap leaves ``results`` None and never calls admit."""

    __slots__ = ("left", "results", "exhaustive")

    def __init__(self, steps: int, results: int | None = None):
        self.left = steps
        self.results = results
        self.exhaustive = True

    def step(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _Cut

    def admit(self, found: int) -> None:
        """One more result fits beside the ``found`` ones."""
        if found >= self.results:
            raise _Cut

    def __enter__(self) -> _Budget:
        return self

    def __exit__(self, kind, value, traceback) -> bool:
        if kind is _Cut:
            self.exhaustive = False
            return True
        return False


def _join_closure(seen: set, joins, budget: _Budget) -> None:
    """Join-close ``seen`` in place: the closed sets of a lattice are the
    joins of its principal ones (Freese, "Computing congruences
    efficiently", *Algebra Universalis* 59, 2008).  ``joins(x)`` yields the
    join of x with each principal set not below it, and every set that
    ``seen`` holds or gains is extended so.  Each yielded join is one step
    of ``budget``, and a join not yet seen is kept when one more result
    fits.  The walk is depth-first from the last set found; a cut leaves in
    ``seen`` what was found before it."""
    queue = list(seen)
    while queue:
        for bigger in joins(queue.pop()):
            budget.step()
            if bigger not in seen:
                budget.admit(len(seen))
                seen.add(bigger)
                queue.append(bigger)


# ---------------------------------------------------------------------------
# table shape checking


def _is_index(v) -> bool:
    """An int that is not a bool: ``True`` and ``False`` are ints to Python,
    but the text format writes them as words it cannot read back."""
    return isinstance(v, int) and not isinstance(v, bool)


def _as_table(rows: Sequence[Sequence[int]], n_rows: int, n_cols: int, what: str) -> Table:
    if len(rows) != n_rows:
        raise ShapeError(f"{what}: expected {n_rows} rows, got {len(rows)}")
    out = []
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != n_cols:
            raise ShapeError(f"{what}: row {r} has {len(row)} entries, expected {n_cols}")
        for c, v in enumerate(row):
            if not _is_index(v) or v < 0:
                raise ShapeError(f"{what}[{r}][{c}] = {v!r} is not a valid index")
        out.append(row)
    return tuple(out)


def _check_entries(tab: Table, bound: int, what: str) -> None:
    for r, row in enumerate(tab):
        for c, v in enumerate(row):
            if v >= bound:
                raise ShapeError(f"{what}[{r}][{c}] = {v} out of range 0..{bound - 1}")


def _check_indices(n: int, what: str, *values) -> None:
    """Each of ``values`` is an index into a carrier of ``n`` elements."""
    if not all(_is_index(v) and 0 <= v < n for v in values):
        raise ShapeError(f"{what} index out of range")


def _check_mask(n: int, what: str, mask) -> None:
    """``mask`` is a subset of a carrier of ``n`` elements, as a bitset."""
    if not _is_index(mask) or mask < 0 or mask >> n:
        raise ShapeError(f"{what} {mask!r} is not a subset of the {n} elements")


# ---------------------------------------------------------------------------
# semirings


@dataclass(frozen=True)
class SemiringTable:
    """A validated finite semiring given by addition/multiplication tables.

    The hash is the one the frozen dataclass would generate, the hash of the
    field tuple in field order, but it is computed once and stored
    (``_hash``, not a dataclass field, so it is left out of eq and repr).
    Every ``lru_cache`` key and dict that holds a table then hashes it in
    constant time instead of rehashing its whole ``add`` and ``mul``."""

    order: int
    add: Table
    mul: Table
    zero: int
    one: int
    commutative: bool
    zerosumfree: bool
    cancellative: bool

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.order, self.add, self.mul, self.zero, self.one,
                     self.commutative, self.zerosumfree, self.cancellative))

    def left_module(self) -> SemimoduleTable:
        """This semiring as a left semimodule over itself.  Every call on one
        table returns the same object, so everything stored on that module
        (its subtractive lattice, see :func:`enumerate_subsemimodules`) is
        shared by every caller."""
        return self._left_module

    @cached_property
    def _left_module(self) -> SemimoduleTable:
        return SemimoduleTable(base=self, order=self.order, add=self.add,
                               act=self.mul, zero=self.zero)

    @cached_property
    def _zero_module(self) -> SemimoduleTable:
        return SemimoduleTable(base=self, order=1, add=((0,),),
                               act=((0,),) * self.order, zero=0)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A set that generates the carrier under + and ·, together with
        zero and one, greedy in index order (:func:`_generators`).  Computed
        once per table, as above."""
        cols = tuple(zip(*self.mul))
        return tuple(_generators((self.add, self.mul, cols), (self.zero, self.one)))

    @cached_property
    def generating_translations(self) -> tuple[Table, Table]:
        """:func:`_generating_translations`, computed once per table, as
        above."""
        return _generating_translations(self)

    def __repr__(self) -> str:
        return f"SemiringTable(order={self.order}, zero={self.zero}, one={self.one})"


def semiring_violations(add: Table, mul: Table, zero: int, one: int) -> list[Violation]:
    """All semiring axiom failures for the given tables, in a fixed order.

    The identities, the absorbing zero, additive commutativity and
    zero != one are checked over all elements and pairs.  The laws on
    triples (both associative laws, both distributive laws) would take n³
    steps; when the quadratic checks pass, they are first decided exactly
    at the elements of a set G that generates the carrier under +
    (:func:`_generators`), in O(|G|·n²) steps.  Only if that
    fails does the all-triples scan run, which lists every failure.  Light's
    associativity test (A. H. Clifford and G. B. Preston, *The Algebraic
    Theory of Semigroups*, vol. 1, AMS 1961) carries over as follows, with
    + commutative, 0 its identity and 0 absorbing for ·.  In each case the
    set of elements where the law holds contains 0 and is closed under +,
    so it contains every sum of elements of G, which is the whole carrier S:

    - **Additive associativity.**  Let A be the set of b with
      (x+b)+y = x+(b+y) for all x, y.  0 is in A.  If a and b are in A,
      so is a+b: (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y) = x+(a+(b+y))
      = x+((a+b)+y), using a, b, a, b in A in turn.
    - **Distributivity.**  With + associative, fix a and let D be the set
      of x with a(x+c) = ax+ac for all c.  0 is in D, as a0 = 0.  If x and
      y are in D, a((x+y)+c) = a(x+(y+c)) = ax+(ay+ac) = (ax+ay)+ac
      = a(x+y)+ac, so x+y is in D.  The right law is the mirror image.
    - **Multiplicative associativity.**  With both distributive laws, let
      M be the set of b with (xb)y = x(by) for all x, y.  0 is in M, as
      both sides are 0.  If b and c are in M, (x(b+c))y = (xb)y+(xc)y
      = x(by)+x(cy) = x((b+c)y).  (M is also closed under ·, by the
      argument for A.)

    So when the laws hold at G the scan would find nothing, and the list
    is the same either way.
    """
    n = len(add)
    rng = range(n)
    out: list[Violation] = []
    if zero == one:
        out.append(Violation("zero-ne-one", (zero,)))
    for a in rng:
        if add[zero][a] != a or add[a][zero] != a:
            out.append(Violation("additive-identity", (a,)))
        if mul[one][a] != a or mul[a][one] != a:
            out.append(Violation("multiplicative-identity", (a,)))
        if mul[zero][a] != zero or mul[a][zero] != zero:
            out.append(Violation("absorbing-zero", (a,)))
    for a in rng:
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                out.append(Violation("additive-commutativity", (a, b)))
    if not out and _holds_on_additive_generators(add, mul, zero):
        return out
    for a in rng:
        for b in rng:
            ab_add = add[a][b]
            ab_mul = mul[a][b]
            for c in rng:
                if add[ab_add][c] != add[a][add[b][c]]:
                    out.append(Violation("additive-associativity", (a, b, c)))
                if mul[ab_mul][c] != mul[a][mul[b][c]]:
                    out.append(Violation("multiplicative-associativity", (a, b, c)))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    out.append(Violation("left-distributivity", (a, b, c)))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    out.append(Violation("right-distributivity", (a, b, c)))
    return out


def _generators(tables: Sequence[Table], free: Sequence[int]) -> list[int]:
    """A set that generates the carrier, together with the elements
    ``free``, under the binary operations ``tables``, chosen greedily in
    index order.  Each element not yet reached is added, and the reached
    set is closed by applying every table to each newly reached element z
    and every reached y as ``t[z][y]``, so the whole walk applies each
    table to O(n²) pairs.  A non-commutative operation goes in twice, as
    its table and its transpose, so that y·z is reached as well as z·y."""
    n = len(tables[0])
    reached = [False] * n
    members: list[int] = []
    gens = []
    for k, g in enumerate((*free, *range(n))):
        if reached[g]:
            continue
        if k >= len(free):
            gens.append(g)
        reached[g] = True
        members.append(g)
        todo = [g]
        while todo:
            x = todo.pop()
            for t in tables:
                row = t[x]
                for y in members:
                    z = row[y]
                    if not reached[z]:
                        reached[z] = True
                        members.append(z)
                        todo.append(z)
    return gens


def _holds_on_additive_generators(add: Table, mul: Table, zero: int) -> bool:
    """Additive associativity, both distributive laws and multiplicative
    associativity at each additive generator g, as in
    :func:`semiring_violations`.  Each law is compared a row at a time:
    ``itemgetter(*row)(t)`` is the row ``(t[row[0]], t[row[1]], ...)``,
    built in one call."""
    add = tuple(map(tuple, add))
    mul = tuple(map(tuple, mul))
    cols = tuple(zip(*mul))
    through_row = [itemgetter(*row) for row in mul]
    through_col = [itemgetter(*col) for col in cols]
    rng = range(len(add))
    for g in _generators((add,), (zero,)):
        plus_g, times_g = itemgetter(*add[g]), itemgetter(*mul[g])
        # (x+g)+y = x+(g+y), a(g+c) = ag+ac, (g+c)a = ga+ca, (xg)y = x(gy)
        if not all(add[add[x][g]] == plus_g(add[x])
                   and plus_g(mul[x]) == through_row[x](add[mul[x][g]])
                   and plus_g(cols[x]) == through_col[x](add[mul[g][x]])
                   and mul[mul[x][g]] == times_g(mul[x])
                   for x in rng):
            return False
    return True


def validate_semiring(add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                      zero: int, one: int) -> SemiringTable:
    """Validate raw tables and return a SemiringTable with computed flags."""
    n = len(add)
    if n == 0:
        raise ShapeError("empty carrier")
    add_t = _as_table(add, n, n, "add")
    mul_t = _as_table(mul, n, n, "mul")
    _check_entries(add_t, n, "add")
    _check_entries(mul_t, n, "mul")
    _check_indices(n, "zero/one", zero, one)
    violations = semiring_violations(add_t, mul_t, zero, one)
    if violations:
        raise AxiomViolations(violations)
    return _semiring_table(add_t, mul_t, zero, one)


def _semiring_table(add: Table, mul: Table, zero: int, one: int) -> SemiringTable:
    """A SemiringTable with its computed flags, built without checks.

    Precondition: ``add`` and ``mul`` are square tuple tables over one
    carrier, ``zero`` and ``one`` index into it, and
    :func:`semiring_violations` finds nothing.  ``tests/test_core.py::
    test_engine_built_values_pass_the_public_checks`` checks every table
    the engine builds this way."""
    n = len(add)
    commutative = all(mul[a][b] == mul[b][a] for a in range(n) for b in range(a + 1, n))
    v_mask, k_mask = _v_and_k_masks(add, zero, n)
    return SemiringTable(order=n, add=add, mul=mul, zero=zero, one=one,
                         commutative=commutative,
                         zerosumfree=v_mask == 1 << zero,
                         cancellative=k_mask == full_mask(n))


def _v_and_k_masks(add: Table, zero: int, n: int) -> tuple[int, int]:
    v = 0
    for s in range(n):
        if any(add[s][t] == zero for t in range(n)):
            v |= 1 << s
    k = 0
    for x in range(n):
        row = add[x]
        if len(set(row)) == n:
            k |= 1 << x
    return v, k


def v_and_k_sets(s: SemiringTable) -> tuple[int, int]:
    """(V(S), K+(S)) as bitmasks: zero-sum elements and cancellative elements."""
    return _v_and_k_masks(s.add, s.zero, s.order)


# ---------------------------------------------------------------------------
# semimodules


@dataclass(frozen=True)
class SemimoduleTable:
    """A validated finite left semimodule over a SemiringTable.

    ``act[s][m]`` is the action of scalar ``s`` on element ``m``.  The hash
    is the field-tuple hash, stored once (``_hash``, not a dataclass field),
    as for :class:`SemiringTable`.
    """

    base: SemiringTable
    order: int
    add: Table
    act: Table
    zero: int

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.base, self.order, self.add, self.act, self.zero))

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``act`` transposed: ``columns[x]`` is (s.x for each scalar s).
        Computed once per table; not a dataclass field, so it is left out of
        eq, hash and repr, and a table pickles without it."""
        return tuple(zip(*self.act))

    @cached_property
    def cyclic_generator(self) -> int | None:
        """The least element whose scalar orbit is the whole carrier, or
        None (see :func:`_cyclic_generator`); read off :attr:`columns` once
        per table, not a dataclass field, as above."""
        n = self.order
        if self.base.order < n:
            return None
        return next((g for g, col in enumerate(self.columns) if len(set(col)) == n), None)

    @cached_property
    def generating_translations(self) -> tuple[Table, Table]:
        """:func:`_generating_translations`, computed once per table, not a
        dataclass field, as above."""
        return _generating_translations(self)

    @cached_property
    def _store(self) -> dict:
        """The structure derived so far (see :func:`_stored`); not a
        dataclass field, so it is left out of eq, hash and repr."""
        return {}

    def __getstate__(self) -> dict:
        """The dataclass fields alone.  The store can hold a table keyed by
        a table that refers back to this one, which unpickling would hash
        before its fields are set; the store refills on demand."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __repr__(self) -> str:
        return f"SemimoduleTable(order={self.order}, base_order={self.base.order})"


def _stored(m: SemimoduleTable, build, key):
    """``build(m, key)``, built on the first call and kept in ``m``'s store
    under (build, key), the builder naming the kind; later calls with an
    equal key return that same object.  The store's only reader and writer."""
    store = m._store
    try:
        return store[build, key]
    except KeyError:
        pass  # build outside the handler, so its errors do not chain to this
    value = store[build, key] = build(m, key)
    return value


def semimodule_violations(base: SemiringTable, add: Table, act: Table, zero: int) -> list[Violation]:
    n = len(add)
    rng = range(n)
    out: list[Violation] = []
    for m in rng:
        if add[zero][m] != m or add[m][zero] != m:
            out.append(Violation("additive-identity", (m,)))
    for a in rng:
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                out.append(Violation("additive-commutativity", (a, b)))
    for a in rng:
        for b in rng:
            ab = add[a][b]
            for c in rng:
                if add[ab][c] != add[a][add[b][c]]:
                    out.append(Violation("additive-associativity", (a, b, c)))
    S = base
    for s in S.elements():
        row = act[s]
        for m in rng:
            for m2 in rng:
                if row[add[m][m2]] != add[row[m]][row[m2]]:
                    out.append(Violation("action-distributes-over-module-add", (s, m, m2)))
    for s in S.elements():
        for s2 in S.elements():
            for m in rng:
                if act[S.add[s][s2]][m] != add[act[s][m]][act[s2][m]]:
                    out.append(Violation("action-distributes-over-scalar-add", (s, s2, m)))
                if act[S.mul[s][s2]][m] != act[s][act[s2][m]]:
                    out.append(Violation("action-associativity", (s, s2, m)))
    for m in rng:
        if act[S.one][m] != m:
            out.append(Violation("unit-action", (m,)))
        if act[S.zero][m] != zero:
            out.append(Violation("zero-scalar-kills", (m,)))
    for s in S.elements():
        if act[s][zero] != zero:
            out.append(Violation("zero-element-absorbs", (s,)))
    return out


def validate_semimodule(base: SemiringTable, add: Sequence[Sequence[int]],
                        act: Sequence[Sequence[int]], zero: int) -> SemimoduleTable:
    n = len(add)
    if n == 0:
        raise ShapeError("empty carrier")
    add_t = _as_table(add, n, n, "add")
    act_t = _as_table(act, base.order, n, "act")
    _check_entries(add_t, n, "add")
    _check_entries(act_t, n, "act")
    _check_indices(n, "zero", zero)
    violations = semimodule_violations(base, add_t, act_t, zero)
    if violations:
        raise AxiomViolations(violations)
    return SemimoduleTable(base=base, order=n, add=add_t, act=act_t, zero=zero)


def zero_module(base: SemiringTable) -> SemimoduleTable:
    """The one-element module over ``base``: one object per semiring table."""
    return base._zero_module


def product_module(a: SemimoduleTable, b: SemimoduleTable) -> SemimoduleTable:
    """External direct sum; index of (x, y) is ``x * b.order + y``."""
    if a.base is not b.base and a.base != b.base:
        raise IncompatiblePartition("product needs a shared base semiring")
    nb = b.order
    n = a.order * nb
    idx = lambda x, y: x * nb + y
    add = tuple(
        tuple(idx(a.add[x][x2], b.add[y][y2]) for x2 in range(a.order) for y2 in range(nb))
        for x in range(a.order) for y in range(nb)
    )
    act = tuple(
        tuple(idx(a.act[s][x], b.act[s][y]) for x in range(a.order) for y in range(nb))
        for s in range(a.base.order)
    )
    return SemimoduleTable(base=a.base, order=n, add=add, act=act,
                           zero=idx(a.zero, b.zero))


# ---------------------------------------------------------------------------
# substructures


@dataclass(frozen=True)
class SubStructure:
    """A subset of a semimodule carrier closed under addition and action."""

    parent: SemimoduleTable
    members: int

    def __post_init__(self):
        m, mask = self.parent, self.members
        _check_mask(m.order, "members", mask)
        if not mask >> m.zero & 1:
            raise IncompatiblePartition("substructure must contain zero")
        escaped = _closure_mask(m, mask) & ~mask
        if escaped:
            raise IncompatiblePartition(f"not closed: the closure adds {sorted(bits(escaped))}")

    def elements(self) -> Iterator[int]:
        return bits(self.members)

    @property
    def subtractive_closure_members(self) -> int:
        return _subtractive_closure_mask(self.parent, self.members)

    def is_subtractive(self) -> bool:
        return self.subtractive_closure_members == self.members

    def __repr__(self) -> str:
        return f"SubStructure({sorted(bits(self.members))})"


def _closure_mask(m: Parent, seed: int, base: int = 0) -> int:
    """Smallest subset containing ``base``, ``seed`` and zero that is closed
    under addition and under every scalar map: a subsemimodule, or a
    two-sided ideal when ``m`` is a semiring.  Only the scalar maps of the
    base semiring's generators are applied (the second part of
    :func:`_generating_translations`): a set that holds zero and is closed
    under + and under those is closed under every scalar.

    ``base`` must itself be closed (a closed mask, or 0).  Its sums and
    scalar images are then already inside it, so only the elements outside
    it are worked: each is summed with every member once and mapped by every
    generating scalar row.  The search returns as soon as the mask is the
    whole carrier."""
    add = m.add
    rows = m.generating_translations[1]
    full = full_mask(m.order)
    mask = base | seed | 1 << m.zero
    if mask == full:
        return mask
    members = list(bits(mask))
    work = list(bits(mask & ~base))
    while work:
        x = work.pop()
        first_new = len(work)
        row = add[x]
        for y in members:
            z = row[y]
            if not mask >> z & 1:
                mask |= 1 << z
                work.append(z)
        for t in rows:
            z = t[x]
            if not mask >> z & 1:
                mask |= 1 << z
                work.append(z)
        if len(work) > first_new:
            if mask == full:
                return mask
            members.extend(work[first_new:])
    return mask


def _subtractive_extend(m: SemimoduleTable, mask: int) -> int:
    """The subtractive closure of a subsemimodule N (``mask``): every x with
    x + l in N for some l in N.

    One element decides it.  Let T be the sum of all members of N.  If
    x + l is in N, so is x + T = (x + l) + (the sum of the other members);
    and T itself is in N.  So x belongs iff x + T is in N.  The result is a
    subsemimodule, and it is subtractive: from y + z and z in it, say
    y + z + l1 and z + l2 in N, the member l = z + l2 + l1 of N has
    y + l = (y + z + l1) + l2 in N."""
    add = m.add
    total = m.zero
    for l in bits(mask):
        total = add[total][l]
    return mask_of(x for x, y in enumerate(add[total]) if mask >> y & 1)


def _subtractive_closed_closure(m: SemimoduleTable, seed: int, base: int = 0) -> int:
    """Smallest subtractive subsemimodule containing ``base`` and ``seed``;
    ``base`` must be closed, as for :func:`_closure_mask`.  One step of
    :func:`_subtractive_extend` on the closure of the two is subtractive
    and closed, so no further round is needed."""
    return _subtractive_extend(m, _closure_mask(m, seed, base))


@lru_cache(maxsize=200_000)
def _subtractive_closure_mask(m: SemimoduleTable, mask: int) -> int:
    return _subtractive_extend(m, mask)


def generated_subsemimodule(m: SemimoduleTable, seed) -> SubStructure:
    """Smallest SubStructure of ``m`` containing ``seed`` (iterable or mask);
    :class:`ShapeError` on an element or a mask outside the carrier."""
    if not isinstance(seed, int):
        seed = tuple(seed)
        _check_indices(m.order, "seed", *seed)
        seed = mask_of(seed)
    _check_mask(m.order, "seed", seed)
    return SubStructure(m, _closure_mask(m, seed))


def subtractive_closure(sub: SubStructure) -> SubStructure:
    """The subtractive closure, itself a SubStructure of the same parent."""
    return SubStructure(sub.parent, sub.subtractive_closure_members)


def sub_module(sub: SubStructure) -> tuple[SemimoduleTable, tuple[int, ...]]:
    """Promote a SubStructure to its own SemimoduleTable.

    Returns the promoted module plus ``to_parent``: new index -> parent index.
    The whole carrier promotes to the parent itself; stored by mask.
    """
    return _sub_module(sub.parent, sub.members)


def _sub_module(parent: SemimoduleTable, mask: int) -> tuple[SemimoduleTable, tuple[int, ...]]:
    """:func:`sub_module` of a mask that the engine has closed itself,
    with no SubStructure built for it."""
    return _stored(parent, _promote, mask)


def _promote(parent: SemimoduleTable, mask: int) -> tuple[SemimoduleTable, tuple[int, ...]]:
    if mask == full_mask(parent.order):
        return parent, tuple(range(parent.order))
    to_parent = tuple(bits(mask))
    back = {p: i for i, p in enumerate(to_parent)}.__getitem__
    add = tuple(tuple(map(back, map(parent.add[x].__getitem__, to_parent))) for x in to_parent)
    act = tuple(tuple(map(back, map(row.__getitem__, to_parent))) for row in parent.act)
    mod = SemimoduleTable(base=parent.base, order=len(to_parent), add=add, act=act,
                          zero=back(parent.zero))
    return mod, to_parent


# ---------------------------------------------------------------------------
# congruences

Parent = Union[SemimoduleTable, SemiringTable]


def _normalize_class_of(raw: Sequence[int]) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out)


@dataclass(frozen=True)
class CongruencePartition:
    """A partition compatible with every operation of ``parent``.

    Class ids are normalized by first occurrence in carrier order, so equal
    partitions compare equal as dataclasses.
    """

    parent: Parent
    class_of: tuple[int, ...]

    def n_classes(self) -> int:
        return max(self.class_of) + 1

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def class_masks(self) -> list[int]:
        masks = [0] * self.n_classes()
        for x, c in enumerate(self.class_of):
            masks[c] |= 1 << x
        return masks

    def zero_class_mask(self) -> int:
        zero = self.parent.zero
        c = self.class_of[zero]
        return self.class_masks()[c]

    def is_discrete(self) -> bool:
        return self.n_classes() == len(self.class_of)

    def is_universal(self) -> bool:
        return self.n_classes() == 1

    def __repr__(self) -> str:
        return f"CongruencePartition({self.class_of})"


def discrete_partition(parent: Parent) -> CongruencePartition:
    n = parent.order
    return CongruencePartition(parent, tuple(range(n)))


def universal_partition(parent: Parent) -> CongruencePartition:
    return CongruencePartition(parent, (0,) * parent.order)


def _translations(parent: Parent) -> list[tuple[int, ...]]:
    """Every unary polynomial translation that a congruence must respect:
    x -> x + c for each c (row c of the commutative addition), then the
    scalar maps: the action of each scalar on a semimodule, left and right
    multiplication by each element, interleaved, on a semiring.  The
    checker :func:`partition_violations` reads these, so that it does not
    rest on the generator argument of :func:`_generating_translations` that
    it checks."""
    out = list(parent.add)
    if isinstance(parent, SemimoduleTable):
        out.extend(parent.act)
    else:
        for row, col in zip(parent.mul, zip(*parent.mul)):
            out += (row, col)
    return out


def _generating_translations(parent: Parent) -> tuple[Table, Table]:
    """Translations that every closure in the engine needs, as a pair of
    image-row tuples (sums, scalars): x -> x + g for each g of a set G that
    generates the carrier under + (:func:`_generators`), then the scalar
    maps of a set T that, with 0 and 1, generates the base semiring S under
    + and · (:attr:`SemiringTable.generators`): x -> t.x on a semimodule,
    x -> t.x and x -> x.t on a semiring.  Each table stores its pair as
    ``generating_translations``.

    An equivalence ~ closed under these is closed under every translation
    (Freese, "Computing congruences efficiently", *Algebra Universalis* 59,
    2008, for the general case; the argument is that of the generator gate
    of :func:`semiring_violations`):

    - **Sums.**  The set of c with x + c ~ y + c whenever x ~ y holds 0,
      and with c it holds c + g for each g in G, since (x + c) + g ~
      (y + c) + g.  So it holds every sum of generators: the carrier.
    - **Scalars.**  The set of s with s.x ~ s.y whenever x ~ y holds 0
      (both sides are 0), 1 and T.  It is closed under ·, as
      (st).x = s.(t.x) ~ s.(t.y) = (st).y, and under +, as
      (s+t).x = s.x + t.x ~ s.y + t.x ~ s.y + t.y by the sums.  So it is
      all of S.  Right multiplication on a semiring is the mirror image:
      x(st) = (xs)t and x(s+t) = xs + xt.

    The same argument with "s.x is in N for every x in N" in place of
    "s.x ~ s.y" shows that a set N that holds zero and is closed under +
    and under the scalars of T is closed under every scalar: the closures
    of :func:`_closure_mask` and :func:`_subtractive_down_sets` read the
    second part only."""
    add = parent.add
    sums = tuple(add[g] for g in _generators((add,), (parent.zero,)))
    if isinstance(parent, SemimoduleTable):
        scalars = tuple(parent.act[t] for t in parent.base.generators)
    else:
        mul = parent.mul
        scalars = tuple(row for t in parent.generators
                        for row in (mul[t], tuple(r[t] for r in mul)))
    return sums, scalars


def _cyclic_generator(parent: Parent) -> int | None:
    """An element g whose scalar orbit is the whole carrier, or None.

    A congruence relating g to zero is universal: g ~ 0 gives s.g ~ s.0 = 0
    for every scalar s.  For a semiring, ``one`` is such an element, since
    x = x.1 ~ x.0 = 0."""
    if isinstance(parent, SemiringTable):
        return parent.one
    return parent.cyclic_generator


def congruence_closure(parent: Parent, pairs) -> CongruencePartition:
    """Smallest congruence relating all ``pairs``.

    The pairs are closed under the generating translations of
    :func:`_generating_translations` only, which give the same congruence.
    The classes are a flat list of class ids, each the least member of its
    class, merged by :func:`_merge`.  Each merged pair is queued once, and
    its image under a translation costs two list reads.  Stops with the
    universal partition as soon as zero is related to a cyclic generator
    (see :func:`_cyclic_generator`).  Raises :class:`ShapeError` on a pair
    outside the carrier."""
    n = parent.order
    pairs = tuple(pairs)
    _check_indices(n, "pair", *(x for pair in pairs for x in pair))
    sums, scalars = parent.generating_translations
    trans = sums + scalars
    zero, gen = parent.zero, _cyclic_generator(parent)
    cls, size = list(range(n)), [1] * n
    queue = []
    for x, y in pairs:
        p, q = cls[x], cls[y]
        if p != q:
            _merge(cls, size, p, q)
            queue.append((x, y))
    while queue:
        a, b = queue.pop()
        for t in trans:
            x, y = t[a], t[b]
            p, q = cls[x], cls[y]
            if p != q:
                _merge(cls, size, p, q)
                if gen is not None and cls[zero] == cls[gen]:
                    return universal_partition(parent)
                queue.append((x, y))
    return CongruencePartition(parent, _normalize_class_of(cls))


def _merge(cls: list[int], size: list[int], p: int, q: int) -> None:
    """Merge classes ``p`` and ``q`` of the flat class map ``cls`` in place,
    under the smaller id; ``size`` counts the members of each class id.
    Each id is the least member of its class, so the other class's members
    are found from its own index on, by the list's own search."""
    if q < p:
        p, q = q, p
    i = q
    for _ in range(size[q]):
        i = cls.index(q, i)
        cls[i] = p
    size[p] += size[q]


def partition_violations(parent: Parent, class_of: Sequence[int]) -> list[Violation]:
    """Compatibility failures of an equivalence given by ``class_of``."""
    n = parent.order
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if class_of[a] == class_of[b]]
    out: list[Violation] = []
    for t in _translations(parent):
        for a, b in pairs:
            if class_of[t[a]] != class_of[t[b]]:
                out.append(Violation("translation-compatibility", (a, b, t[a], t[b])))
    return out


def make_partition(parent: Parent, class_of: Sequence[int]) -> CongruencePartition:
    if len(class_of) != parent.order:
        raise ShapeError("class_of length must equal the carrier size")
    violations = partition_violations(parent, class_of)
    if violations:
        raise IncompatiblePartition(str(violations[0]))
    return CongruencePartition(parent, _normalize_class_of(class_of))


def bourne_congruence(m: SemimoduleTable, sub: SubStructure) -> CongruencePartition:
    """The congruence with x ~ y iff x + n = y + n' for some n, n' in ``sub``."""
    if sub.parent != m:
        raise IncompatiblePartition("substructure belongs to a different module")
    # an equivalence (see _reach): each class is named by its least member
    reach = _reach(m.add, sub.members)
    least = [next(a for a in range(x + 1) if reach[a] & reach[x]) for x in range(m.order)]
    part = CongruencePartition(m, _normalize_class_of(least))
    # the kernel of the canonical projection is exactly the subtractive closure
    if part.zero_class_mask() != sub.subtractive_closure_members:
        raise IncompatiblePartition("zero class differs from the subtractive closure")
    return part


def _reach(add: Table, mask: int) -> list[int]:
    """``reach[x]`` is the mask of x + u over u in ``mask``; x and y are
    Bourne-related through ``mask`` when their reaches meet.

    Precondition: ``mask`` holds zero and is closed under +.  Then "the
    reaches meet" is already an equivalence, with no transitive closure to
    take: it is reflexive (x + 0 = x + 0) and symmetric, and from
    x + u1 = y + u2 and y + u3 = z + u4 with every ui in the mask follows
    x + (u1 + u3) = y + u2 + u3 = z + (u2 + u4), with both sums in the
    mask.  If the mask is closed under the action too, it is a congruence:
    x + u1 = y + u2 gives (x + c) + u1 = (y + c) + u2 and s.x + s.u1 = s.y + s.u2."""
    members = list(bits(mask))
    out = []
    for row in add:
        r = 0
        for u in members:
            r |= 1 << row[u]
        out.append(r)
    return out


def bourne_quotient(m: SemimoduleTable, sub: SubStructure) -> tuple[SemimoduleTable, LinearMap]:
    """M/K by the Bourne congruence of K = ``sub``, plus the canonical
    projection; stored on ``m`` by the mask of K."""
    if sub.parent != m:
        raise IncompatiblePartition("substructure belongs to a different module")
    return _bourne_quotient(m, sub.members)


def _bourne_quotient(m: SemimoduleTable, mask: int) -> tuple[SemimoduleTable, LinearMap]:
    """:func:`bourne_quotient` by a mask that the engine has closed itself.
    The mask is checked as a SubStructure, and the zero class by
    :func:`bourne_congruence`, once: when the quotient is first built."""
    return _stored(m, _bourne_build, mask)


def _bourne_build(m: SemimoduleTable, mask: int) -> tuple[SemimoduleTable, LinearMap]:
    return _quotient(m, bourne_congruence(m, SubStructure(m, mask)))


def _is_k_normal(add: Table, image_of: Sequence[int], kernel_mask: int) -> bool:
    """Whether a map given by ``image_of`` on a carrier with addition ``add``
    is k-normal: f(x) = f(y) implies x + k = y + k' for some k, k' in the
    kernel.  A kernel holds zero and is closed under +, so that relation is
    an equivalence (see :func:`_reach`), and each fibre is compared with its
    first element only."""
    reach = _reach(add, kernel_mask)
    first: dict[int, int] = {}
    for x, v in enumerate(image_of):
        if not reach[first.setdefault(v, x)] & reach[x]:
            return False
    return True


def quotient_by_congruence(m: SemimoduleTable, rho: CongruencePartition):
    """Quotient module plus the canonical (surjective, k-normal) projection.

    Raises :class:`IncompatiblePartition` unless ``rho`` is a congruence of
    ``m``."""
    if rho.parent != m:
        raise IncompatiblePartition("partition belongs to a different parent")
    bad = partition_violations(m, rho.class_of)
    if bad:
        raise IncompatiblePartition(str(bad[0]))
    return _quotient(m, rho)


def _quotient(m: SemimoduleTable, rho: CongruencePartition):
    """:func:`quotient_by_congruence` without its checks.

    Precondition: ``rho`` is a congruence of ``m``, as every partition that
    :func:`bourne_congruence`, :func:`congruence_closure` and
    :func:`enumerate_congruences` return is.  ``tests/test_core.py::
    test_engine_built_values_pass_the_public_checks`` checks every
    partition the engine passes here.

    The diagonal gives ``m`` itself with its identity map.  Stored on
    ``m`` by class map."""
    return _stored(m, _quotient_build, rho.class_of)


def _quotient_build(m: SemimoduleTable, class_of: tuple[int, ...]):
    k = max(class_of) + 1
    if k == m.order:
        return m, _linear_map(m, m, class_of)
    rep = [0] * k
    for x in range(m.order - 1, -1, -1):
        rep[class_of[x]] = x
    cls = class_of.__getitem__
    add = tuple(tuple(map(cls, map(m.add[r].__getitem__, rep))) for r in rep)
    act = tuple(tuple(map(cls, map(row.__getitem__, rep))) for row in m.act)
    quot = SemimoduleTable(base=m.base, order=k, add=add, act=act,
                           zero=class_of[m.zero])
    return quot, _linear_map(m, quot, class_of)


# ---------------------------------------------------------------------------
# linear maps (shared foundation; analysis lives in the homs module)


class _once:
    """``cached_property`` that sets the attribute with ``object.__setattr__``
    instead of writing ``__dict__``, which would give each instance a dict
    of its own: about 230 bytes more per linear map on CPython 3.11."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class LinearMap:
    """A total map between semimodules over the same base, kept as an image array."""

    source: SemimoduleTable
    target: SemimoduleTable
    image_of: tuple[int, ...]

    def __post_init__(self):
        _check_indices(self.target.order, "image_of", *self.image_of)
        bad = linear_map_violations(self.source, self.target, self.image_of)
        if bad:
            raise AxiomViolations(bad)

    def __call__(self, x: int) -> int:
        return self.image_of[x]

    def image_mask(self) -> int:
        return self._image_mask

    def kernel_mask(self) -> int:
        return self._kernel_mask

    def is_k_normal(self) -> bool:
        """f(x) = f(y) implies x + k = y + k' for some k, k' in the kernel
        (see :func:`_is_k_normal`)."""
        return self._k_normal

    # computed once per map; not dataclass fields, so they are left out of
    # eq, hash and repr

    @_once
    def _image_mask(self) -> int:
        return mask_of(self.image_of)

    @_once
    def _kernel_mask(self) -> int:
        tz = self.target.zero
        return mask_of(x for x, y in enumerate(self.image_of) if y == tz)

    @_once
    def _k_normal(self) -> bool:
        return _is_k_normal(self.source.add, self.image_of, self._kernel_mask)

    def is_injective(self) -> bool:
        return len(set(self.image_of)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.image_of)) == self.target.order

    def is_zero(self) -> bool:
        tz = self.target.zero
        return all(y == tz for y in self.image_of)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.target != self.source:
            raise NotComposable("endpoints do not match")
        return _linear_map(inner.source, self.target,
                           tuple(self.image_of[y] for y in inner.image_of))

    def __repr__(self) -> str:
        return f"LinearMap({list(self.image_of)})"


def _linear_map(source: SemimoduleTable, target: SemimoduleTable,
                image_of: tuple[int, ...]) -> LinearMap:
    """A LinearMap built without ``__post_init__``'s check.

    Precondition: ``image_of`` is a tuple and
    :func:`linear_map_violations` finds nothing for it, as for a composite
    of linear maps, a quotient projection, or an image array the caller
    has just checked.  ``tests/test_core.py::
    test_engine_built_values_pass_the_public_checks`` checks every map the
    engine builds this way."""
    f = object.__new__(LinearMap)
    object.__setattr__(f, "source", source)
    object.__setattr__(f, "target", target)
    object.__setattr__(f, "image_of", image_of)
    return f


def _linear_map_scan(source: SemimoduleTable, target: SemimoduleTable,
                     image_of: Sequence[int]) -> Iterator[Violation]:
    """The violations of linearity of ``image_of``, lazily, in a fixed
    order: a base or length mismatch alone, else zero, then each pair
    x <= y, then each scalar and element."""
    if source.base != target.base:
        yield Violation("shared-base", ())
        return
    if len(image_of) != source.order:
        yield Violation("total-map", (len(image_of),))
        return
    if image_of[source.zero] != target.zero:
        yield Violation("preserves-zero", (source.zero,))
    for x in range(source.order):
        fx = image_of[x]
        for y in range(x, source.order):
            if image_of[source.add[x][y]] != target.add[fx][image_of[y]]:
                yield Violation("additive", (x, y))
    for s in range(source.base.order):
        src_row, tgt_row = source.act[s], target.act[s]
        for x in range(source.order):
            if image_of[src_row[x]] != tgt_row[image_of[x]]:
                yield Violation("scalar", (s, x))


def linear_map_violations(source: SemimoduleTable, target: SemimoduleTable,
                          image_of: Sequence[int]) -> list[Violation]:
    return list(_linear_map_scan(source, target, image_of))


def _is_linear(source: SemimoduleTable, target: SemimoduleTable,
               image_of: Sequence[int]) -> bool:
    """Whether :func:`linear_map_violations` is empty, stopping at the first."""
    return next(_linear_map_scan(source, target, image_of), None) is None


def identity_map(m: SemimoduleTable) -> LinearMap:
    return LinearMap(m, m, tuple(range(m.order)))


def zero_map(source: SemimoduleTable, target: SemimoduleTable) -> LinearMap:
    """The zero map, checked once and stored on ``source`` by target: later
    calls for an equal target return that same map."""
    return _stored(source, _zero_map_build, target)


def _zero_map_build(source: SemimoduleTable, target: SemimoduleTable) -> LinearMap:
    return LinearMap(source, target, (target.zero,) * source.order)


def inclusion_map(sub: SubStructure) -> tuple[SemimoduleTable, LinearMap]:
    """Promote ``sub`` and return (promoted module, inclusion into the parent)."""
    mod, to_parent = sub_module(sub)
    return mod, LinearMap(mod, sub.parent, to_parent)


# ---------------------------------------------------------------------------
# enumeration of subsemimodules and congruences


def enumerate_subsemimodules(m: SemimoduleTable, limits: Limits = DEFAULT_LIMITS,
                             subtractive_only: bool = False) -> Enumeration:
    """All SubStructures of ``m`` in ascending bitset order.

    The search starts from the least closed set and extends each closed set
    it finds by every element outside it (:func:`_join_closure`).  An
    extension is closed from the new element only, on top of the closed set
    (see :func:`_closure_mask`), and ends early when it reaches the whole
    carrier.  With ``subtractive_only`` each extension is also closed
    subtractively, so the search walks the lattice of subtractive
    subsemimodules directly and reaches exactly those.  When the addition
    of ``m`` is idempotent, the subtractive lattice is read off the
    principal down-sets instead, with no closure (see
    :func:`_subtractive_down_sets`).

    Each tried extension (each tried down-set) is one step of
    :class:`Limits`; a cut keeps real SubStructures (subtractive, with
    ``subtractive_only``).  Each lattice, full or subtractive, is stored on
    ``m`` by ``limits``, cut or not.
    """
    return _stored(m, _lattice, (limits, subtractive_only))


def _lattice(m: SemimoduleTable, key: tuple[Limits, bool]) -> Enumeration:
    limits, subtractive_only = key
    if subtractive_only and _is_idempotent(m):
        return _subtractive_down_sets(m, limits)
    close = _subtractive_closed_closure if subtractive_only else _closure_mask
    full = full_mask(m.order)
    seen = {close(m, 0)}
    with _Budget(limits.max_steps, limits.max_results) as budget:
        _join_closure(seen, lambda current: (close(m, 1 << x, current)
                                             for x in bits(full & ~current)), budget)
    subs = tuple(SubStructure(m, mask) for mask in sorted(seen))
    return Enumeration(items=subs, exhaustive=budget.exhaustive)


def _subtractive_down_sets(m: SemimoduleTable, limits: Limits) -> Enumeration:
    """The subtractive subsemimodules of an additively idempotent ``m``: the
    down-sets D(c) = {x : x + c = c} with s.c + c = c for every scalar s.

    With x + x = x the carrier is a join-semilattice, x <= y iff x + y = y.
    A subtractive N is a down-set: y in N and x + y = y give x in N.  It
    holds T, the sum of its members, and every member x has x + T = T; so
    N = D(T).  Conversely each D(c) holds zero, is closed under addition
    (x + y + c = x + c + y + c = c) and is subtractive: x + y and y in D(c)
    give x <= x + y <= c.  Each scalar s is additive, hence monotone, so
    D(c) is closed under s iff s.c lies in D(c), that is s.c + c = c.  It
    is tested for the generating scalars of
    :func:`_generating_translations` only: D(c) holds zero and is closed
    under +, so closed under those it is closed under every scalar.
    Distinct c give distinct D(c).

    D(zero) = {zero} is the least and is put in before any step; every other
    candidate c, in ascending order, is one step."""
    add, n = m.add, m.order
    scalars = m.generating_translations[1]
    found = [1 << m.zero]
    with _Budget(limits.max_steps, limits.max_results) as budget:
        for c in bits(full_mask(n) ^ 1 << m.zero):
            budget.step()
            if all(add[row[c]][c] == c for row in scalars):
                budget.admit(len(found))
                found.append(mask_of(x for x in range(n) if add[x][c] == c))
    subs = tuple(SubStructure(m, mask) for mask in sorted(found))
    return Enumeration(items=subs, exhaustive=budget.exhaustive)


def enumerate_congruences(parent: Parent, limits: Limits = DEFAULT_LIMITS) -> Enumeration:
    """All congruences of a semimodule (or semiring), in ascending order of
    their class maps.

    Con(A) is a sublattice of the lattice of equivalences, and every
    congruence is a join of principal ones.  So each principal congruence
    Cg(a, b) over the pairs of :func:`_principal_pairs` (every pair a < b,
    or only the covering pairs when the addition is idempotent) is closed
    once, and the diagonal is then join-closed over the distinct ones
    (:func:`_join_closure`); a join merges two class maps and applies no
    translation.  A join with Cg(a, b) is skipped when a and b are already
    related, because the result is then the congruence itself.

    Each principal closure and each join is one step of :class:`Limits`; a
    cut keeps real congruences.
    """
    seen = {tuple(range(parent.order))}
    principals: dict[tuple[int, ...], tuple[int, int]] = {}
    with _Budget(limits.max_steps, limits.max_results) as budget:
        for a, b in _principal_pairs(parent):
            budget.step()
            principals.setdefault(congruence_closure(parent, [(a, b)]).class_of, (a, b))
        _join_closure(seen, lambda rho: (_join(rho, cg) for cg, (a, b) in principals.items()
                                         if rho[a] != rho[b]), budget)
    ordered = tuple(CongruencePartition(parent, key) for key in sorted(seen))
    return Enumeration(items=ordered, exhaustive=budget.exhaustive)


def _join(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The join of two equivalences given by normalized class maps: a flat
    map over the classes of ``x`` (see :func:`_merge`), merging two of them
    whenever a class of ``y`` meets both."""
    k = max(x) + 1
    cls, size = list(range(k)), [1] * k
    first: dict[int, int] = {}
    for cx, cy in zip(x, y):
        p, q = cls[first.setdefault(cy, cx)], cls[cx]
        if p != q:
            _merge(cls, size, p, q)
    return _normalize_class_of([cls[c] for c in x])


def _is_idempotent(parent: Parent) -> bool:
    """x + x = x for every x."""
    add = parent.add
    return all(add[x][x] == x for x in range(parent.order))


def _principal_pairs(parent: Parent) -> list[tuple[int, int]]:
    """Index pairs a < b whose principal congruences generate Con(parent),
    in the order of ``combinations``: every pair, or, when the addition is
    idempotent, only the covering pairs of the additive order.

    With x + x = x the carrier is a join-semilattice under x <= y iff
    x + y = y, and y covers x when x <= y, x != y and no third element c
    has x <= c <= y.  Take a congruence ~; the argument uses only the
    translations x -> x + c, which a semiring and a semimodule both have
    (the lattice case is in Freese, Jezek and Nation, *Free Lattices*,
    AMS 1995, ch. II).
    - If a ~ b then a = a + a ~ a + b and b = b + b ~ a + b; conversely
      those two give a ~ b.  So Cg(a, b) = Cg(a, a + b) v Cg(b, a + b),
      a join over two comparable pairs.
    - If a <= x <= c and a ~ c then x = a + x ~ c + x = c.  So each
      covering pair (x_i, x_i+1) of a maximal chain a = x_0, ..., x_k = c
      lies in Cg(a, c), and by transitivity Cg(a, c) is their join.
    Every principal congruence, hence every congruence, is then a join of
    principal congruences of covering pairs."""
    n = parent.order
    pairs = combinations(range(n), 2)
    if not _is_idempotent(parent):
        return list(pairs)
    add = parent.add
    below = [mask_of(a for a in range(n) if add[a][b] == b) for b in range(n)]
    above = [mask_of(c for c in range(n) if add[a][c] == c) for a in range(n)]

    def covers(lo: int, hi: int) -> bool:
        return above[lo] & below[hi] == 1 << lo | 1 << hi

    return [(a, b) for a, b in pairs if covers(a, b) or covers(b, a)]
