"""Linear maps between finite semimodules: Hom-set enumeration, kernels,
normality classification, exactness of short sequences (given by their two
maps f: L -> M and g: M -> N) and isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Sequence

from .core import (
    DEFAULT_LIMITS,
    Enumeration,
    LinearMap,
    Limits,
    SemimoduleTable,
    SubStructure,
    Table,
    _closure_mask,
    _cyclic_generator,
    _linear_map,
    _subtractive_closure_mask,
    bourne_quotient,
    linear_map_violations,
    zero_map,
    zero_module,
)
from .errors import LimitExceeded, NotComposable


# ---------------------------------------------------------------------------
# generating sets and derivations


@lru_cache(maxsize=65536)
def generating_set(m: SemimoduleTable) -> tuple[int, ...]:
    """A small generating set, grown greedily in ascending element order."""
    gens: list[int] = []
    closed = _closure_mask(m, 0)
    while closed != (1 << m.order) - 1:
        x = next(i for i in range(m.order) if not closed >> i & 1)
        gens.append(x)
        closed = _closure_mask(m, closed | 1 << x)
    return tuple(gens)


@lru_cache(maxsize=65536)
def _derivations(m: SemimoduleTable) -> tuple[tuple, ...]:
    """How each element is built from the generators, in dependency order.

    Entries are ("zero",), ("gen", i), ("add", x, y) or ("act", s, x) where
    x, y are earlier-derived elements.
    """
    gens = generating_set(m)
    how: dict[int, tuple] = {m.zero: ("zero",)}
    order: list[int] = [m.zero]
    for i, g in enumerate(gens):
        if g not in how:
            how[g] = ("gen", i)
            order.append(g)
        frontier = True
        while frontier:
            frontier = False
            known = list(order)
            for x in known:
                for y in known:
                    z = m.add[x][y]
                    if z not in how:
                        how[z] = ("add", x, y)
                        order.append(z)
                        frontier = True
                for s in range(m.base.order):
                    z = m.act[s][x]
                    if z not in how:
                        how[z] = ("act", s, x)
                        order.append(z)
                        frontier = True
    return tuple((x, how[x]) for x in order)


@lru_cache(maxsize=65536)
def _stages(m: SemimoduleTable) -> tuple[tuple[tuple, ...], ...]:
    """Derivation entries grouped by which generator unlocks them."""
    gens = generating_set(m)
    stages: list[list[tuple]] = [[] for _ in range(len(gens) + 1)]
    stage = 0
    for x, rule in _derivations(m):
        if rule[0] == "gen":
            stage = rule[1] + 1
        stages[stage].append((x, rule))
    return tuple(tuple(st) for st in stages)


@lru_cache(maxsize=262144)
def _scalar_signature(m: SemimoduleTable, x: int) -> tuple[int, ...]:
    """Iso-invariant collapse data of one element: the partition of the
    scalars by their action on x, each scalar labelled by the block it
    opens in scalar order.

    The partition also fixes which of x, 2x, 3x, ... coincide, hence the
    additive tail and period of x: kx = (k.1)x, so jx = kx iff the scalars
    j.1 and k.1 act alike on x.  :func:`find_isomorphism` compares these
    only between modules over one base, so adding the tail and period to
    the key would not change its answers."""
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(v, len(remap)) for v in m.columns[x])


def _first_scalars(m: SemimoduleTable, g: int) -> dict[int, int]:
    """For each element s.g of the orbit of ``g``, the first scalar s that
    reaches it."""
    first: dict[int, int] = {}
    for s, x in enumerate(m.columns[g]):
        first.setdefault(x, s)
    return first


def _hom_candidates(source: SemimoduleTable, target: SemimoduleTable, g: int) -> list[int]:
    """Target elements that can be the image of ``g`` under a linear map, in
    element order: those v with s.g = t.g => s.v = t.v for all scalars.

    The test reads whole columns (:attr:`core.SemimoduleTable.columns`):
    with ``reps[s]`` the first scalar t with t.g = s.g, v passes iff its
    column taken at ``reps`` is its column.  Zero differs from one, so
    there are at least two scalars and ``reps`` picks a tuple.  The test
    implies that the additive tail/period of v divides into g's, as
    k.g = (1 + ... + 1).g.
    """
    first = _first_scalars(source, g)
    reps = itemgetter(*map(first.__getitem__, source.columns[g]))
    return [v for v, col in enumerate(target.columns) if reps(col) == col]


def enumerate_homs(source: SemimoduleTable, target: SemimoduleTable,
                   limits: Limits = DEFAULT_LIMITS) -> Enumeration:
    """All S-linear maps source -> target, ordered by image tuple.

    A cyclic source (one whose scalar orbit of some g is the whole carrier,
    see :func:`core._cyclic_generator`) takes the Yoneda path,
    :func:`_yoneda_homs`: one map per target element whose column of
    scalar actions passes g's scalar-partition test, one tuple comparison
    per element.  Any other source takes the DFS,
    :func:`_dfs_homs`, which backtracks over images of a generating set
    with forced propagation after every choice.  Each candidate image is
    one node against ``max_hom_nodes``; the zero map is always present in
    an exhaustive result, and a non-exhaustive one only ever drops maps,
    never invents them.
    """
    return _enumerate_homs_cached(source, target, limits.max_hom_nodes)


@lru_cache(maxsize=65536)
def _enumerate_homs_cached(source: SemimoduleTable, target: SemimoduleTable,
                           max_nodes: int) -> Enumeration:
    if source.base != target.base:
        return Enumeration(items=(), exhaustive=True)
    g = _cyclic_generator(source)
    if g is None:
        return _dfs_homs(source, target, max_nodes)
    return _yoneda_homs(source, target, g, max_nodes)


def _yoneda_homs(source: SemimoduleTable, target: SemimoduleTable, g: int,
                 max_nodes: int) -> Enumeration:
    """Hom(C, N) for a cyclic C = S.g: each v in N with s.g = t.g => s.v = t.v
    gives the map s.g -> s.v, and every linear map is one of these, with
    v = f(g).  The map is well defined by the test, additive because
    s.g + t.g = (s + t).g, and S-linear and zero-preserving by the module
    axioms.  :func:`_hom_candidates` applies exactly that test, and the map
    of each candidate v is v's column taken at the first scalar reaching
    each element."""
    first = _first_scalars(source, g)
    scalars = tuple(map(first.__getitem__, range(source.order)))
    columns = target.columns
    found: list[LinearMap] = []
    exhaustive = True
    for nodes, v in enumerate(_hom_candidates(source, target, g), 1):
        if nodes > max_nodes:
            exhaustive = False
            break
        found.append(_linear_map(source, target, tuple(map(columns[v].__getitem__, scalars))))
    found.sort(key=lambda f: f.image_of)
    return Enumeration(items=tuple(found), exhaustive=exhaustive)


def _dfs_homs(source: SemimoduleTable, target: SemimoduleTable,
              max_nodes: int) -> Enumeration:
    """Hom(source, target) by backtracking over the images of
    :func:`generating_set`, each choice propagated through
    :func:`_stages`; the modules share a base."""
    gens = generating_set(source)
    stages = _stages(source)
    candidates = [_hom_candidates(source, target, g) for g in gens]
    n = source.order
    sadd, sact = source.add, source.act
    tadd, tact = target.add, target.act
    n_scalars = source.base.order
    found: list[LinearMap] = []
    img = [-1] * n
    known: list[int] = []
    nodes = 0
    exhaustive = True

    def replay_stage(si: int) -> int:
        """Force images for stage ``si``; return how many were set, or -1."""
        added = 0
        for x, rule in stages[si]:
            kind = rule[0]
            if kind == "zero":
                v = target.zero
            elif kind == "gen":
                v = img[x] if img[x] >= 0 else -2
            elif kind == "add":
                v = tadd[img[rule[1]]][img[rule[2]]]
            else:
                v = tact[rule[1]][img[rule[2]]]
            if kind != "gen":
                if img[x] >= 0 and img[x] != v:
                    _undo(added)
                    return -1
                if img[x] < 0:
                    img[x] = v
                    known.append(x)
                    added += 1
        # consistency among all currently known elements
        for x in known:
            fx = img[x]
            row, trow = sadd[x], tadd[fx]
            for y in known:
                z = row[y]
                if img[z] >= 0 and img[z] != trow[img[y]]:
                    _undo(added)
                    return -1
            for s in range(n_scalars):
                z = sact[s][x]
                if img[z] >= 0 and img[z] != tact[s][fx]:
                    _undo(added)
                    return -1
        return added

    def _undo(count: int) -> None:
        for _ in range(count):
            img[known.pop()] = -1

    def dfs(depth: int) -> None:
        nonlocal nodes, exhaustive
        if not exhaustive:
            return
        if depth == len(gens):
            # the last replay_stage checked every pair and scalar, and the
            # zero rule fixed zero
            found.append(_linear_map(source, target, tuple(img)))
            return
        g = gens[depth]
        for v in candidates[depth]:
            nodes += 1
            if nodes > max_nodes:
                exhaustive = False
                return
            img[g] = v
            known.append(g)
            added = replay_stage(depth + 1)
            if added >= 0:
                dfs(depth + 1)
                _undo(added)
            img[known.pop()] = -1

    base = replay_stage(0)
    if base >= 0:
        dfs(0)
    found.sort(key=lambda f: f.image_of)
    return Enumeration(items=tuple(found), exhaustive=exhaustive)


class _MapKeys:
    """The maps out of one source, each by its key, and the tables of sums
    and composites built on those keys a row at a time.

    A linear map is fixed by its images of a generating set, so those
    images are its key.  Out of a cyclic source with generator g (see
    :func:`core._cyclic_generator`) f is keyed by f(g), an int: the key of
    f + h is f(g) + h(g), and the key of f after h is f(h(g)).  Out of any
    other source f is keyed by its images of :func:`generating_set`, a
    tuple, and the same rules apply to each entry.  :func:`projinj.hom_monoid`
    reads the sums, :func:`summands.end_semiring` the sums and composites."""

    def __init__(self, maps: Sequence[LinearMap]):
        source = maps[0].source
        g = _cyclic_generator(source)
        if g is None:
            gens = generating_set(source)
            self.key = lambda image_of: tuple(map(image_of.__getitem__, gens))
        else:
            self.key = itemgetter(g)
        self.cyclic = g is not None
        self.index = {self.key(f.image_of): i for i, f in enumerate(maps)}

    def _rows(self, steps) -> Table:
        """Row i holds the index of the key ``steps[i]`` makes of each key."""
        keys, at = list(self.index), self.index.__getitem__
        return tuple(tuple(map(at, map(step, keys))) for step in steps)

    def sums(self, add: Table) -> Table:
        """The table of pointwise sums under the target addition ``add``."""
        if self.cyclic:
            return self._rows([add[a].__getitem__ for a in self.index])
        return self._rows([lambda hk, rows=tuple(map(add.__getitem__, fk)):
                           tuple(map(getitem, rows, hk)) for fk in self.index])

    def composites(self, maps: Sequence[LinearMap]) -> Table:
        """The table of composites: row i is ``maps[i]`` after each map."""
        if self.cyclic:
            return self._rows([f.image_of.__getitem__ for f in maps])
        return self._rows([lambda hk, im=f.image_of.__getitem__: tuple(map(im, hk))
                           for f in maps])


# ---------------------------------------------------------------------------
# kernels, images, normality


def kernel_image(f: LinearMap) -> tuple[SubStructure, SubStructure, SubStructure]:
    """(Ker f, f(L), closure of f(L)); the kernel is always subtractive."""
    ker = SubStructure(f.source, f.kernel_mask())
    img = SubStructure(f.target, f.image_mask())
    return ker, img, SubStructure(f.target, img.subtractive_closure_members)


@dataclass(frozen=True)
class NormalityProfile:
    k_normal: bool
    i_normal: bool

    @property
    def normal(self) -> bool:
        return self.k_normal and self.i_normal


def normality_profile(f: LinearMap) -> NormalityProfile:
    img = f.image_mask()
    i_normal = _subtractive_closure_mask(f.target, img) == img
    return NormalityProfile(k_normal=f.is_k_normal(), i_normal=i_normal)


# ---------------------------------------------------------------------------
# isomorphism search


def find_isomorphism(m: SemimoduleTable, n: SemimoduleTable) -> LinearMap | None:
    """The first S-linear bijection m -> n among the enumerated homs, or None.

    Modules whose element signatures (:func:`_scalar_signature`) differ as
    multisets are rejected without a search.  Otherwise the answer is the
    first injective map of :func:`enumerate_homs`, which on equal orders is
    a bijection.  On an exhaustive enumeration that is the first bijection
    in image-tuple order; a truncated one drops maps, so its first bijection
    need not be.  Raises :class:`LimitExceeded` when the enumeration is
    truncated and holds no bijection, since one may lie beyond the cut."""
    if m.base != n.base or m.order != n.order:
        return None
    if (sorted(_scalar_signature(m, x) for x in range(m.order))
            != sorted(_scalar_signature(n, x) for x in range(n.order))):
        return None
    homs = enumerate_homs(m, n)
    iso = next((f for f in homs if f.is_injective()), None)
    if iso is None and not homs.exhaustive:
        raise LimitExceeded("hom enumeration truncated before an isomorphism was found")
    return iso


def are_isomorphic(m: SemimoduleTable, n: SemimoduleTable) -> bool:
    return find_isomorphism(m, n) is not None


# ---------------------------------------------------------------------------
# short exact sequences


@dataclass(frozen=True)
class JunctionClass:
    """Exactness flags at the middle module of a composable pair of maps."""

    proper_exact: bool
    semi_exact: bool
    exact: bool


def classify_junction(f: LinearMap, g: LinearMap) -> JunctionClass:
    if f.target != g.source:
        raise NotComposable("junction maps do not meet")
    img = f.image_mask()
    ker_mask = g.kernel_mask()
    proper = img == ker_mask
    semi = _subtractive_closure_mask(f.target, img) == ker_mask
    exact = proper and g.is_k_normal()
    return JunctionClass(proper_exact=proper, semi_exact=semi, exact=exact)


def is_short_exact(f: LinearMap, g: LinearMap) -> bool:
    """0 -> L -f-> M -g-> N -> 0 is exact at L, M and N, checked in that order
    up to the first inexact junction, the ends against the zero module.
    Raises :class:`NotComposable` when f and g do not meet."""
    if f.target != g.source:
        raise NotComposable("f and g do not meet")
    z = zero_module(f.source.base)
    return all(classify_junction(a, b).exact
               for a, b in ((zero_map(z, f.source), f), (f, g), (g, zero_map(g.target, z))))


def short_exact_equivalences(f: LinearMap, g: LinearMap) -> dict[str, bool]:
    """The three equivalent descriptions of 0 -> L -f-> M -g-> N -> 0.

    ``exact``: :func:`is_short_exact`.  ``iso``: f corestricts to an
    isomorphism L -> Ker(g) and the induced map M/f(L) -> N is an
    isomorphism.  ``explicit``: f injective, f(L) = Ker(g), g surjective
    and k-normal.  All three agree on every finite instance; the auditor
    asserts that.  Raises :class:`NotComposable` when f and g do not meet.
    """
    m, n = g.source, g.target
    exact = is_short_exact(f, g)

    embeds = f.is_injective() and f.image_mask() == g.kernel_mask()
    explicit = embeds and g.is_surjective() and g.is_k_normal()

    iso = False
    if embeds:
        # f corestricted to its image is then automatically an isomorphism,
        # and the image is subtractive, as every kernel is
        quot, proj = bourne_quotient(m, SubStructure(m, f.image_mask()))
        # g induces a map on M/f(L) iff it is constant on each class
        induced = tuple(v for _, v in sorted(set(zip(proj.image_of, g.image_of))))
        if len(induced) == quot.order and not linear_map_violations(quot, n, induced):
            witness = _linear_map(quot, n, induced)
            iso = witness.is_injective() and witness.is_surjective()
    return {"exact": exact, "iso": iso, "explicit": explicit}
