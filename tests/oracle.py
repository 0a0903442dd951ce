"""Deliberately naive reference routes for checking the engine's verdicts.

Every route here works from the definitions: substructures from all 2^n
subsets, congruences from all set partitions, the Bourne relation from its
defining equation closed transitively, isomorphism from all bijections,
homs from all n^m maps, and from those homs the exactness of Hom sequences
and the splittings of 0 -> K -> M -> M/K -> 0; small semirings up to
isomorphism from all tables and all relabellings.
The routes that walk neither admit larger carriers: a principal
congruence is a naive fixpoint under every translation, and a certificate
of congruence-simplicity closes one pair that way and argues the rest
from translations.
Nothing is pruned, cached or shared with ``finsemi``: the routes read only
plain operation tables, those ``finsemi.catalog`` builds or an engine result
under comparison.  So where the engine and this module agree, two
independent routes agree.

A module is a ``Module`` of plain tables over a base semiring of
``len(act)`` scalars, with ``act[s][x]`` the action of scalar ``s`` on
``x``.  A semiring is anything with ``order``/``zero``/``add``/``mul``
tables.  Subsets are frozensets of carrier indices.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import NamedTuple, Sequence

# routes that walk every subset or partition refuse carriers above this;
# 9 admits the square of an order-3 module (2^9 subsets, 21147 partitions)
MAX_BRUTE_ORDER = 9


class Module(NamedTuple):
    order: int
    zero: int
    add: Sequence[Sequence[int]]
    act: Sequence[Sequence[int]]


def left_module(s) -> Module:
    """A semiring table (anything with order/zero/add/mul) acting on itself."""
    return Module(s.order, s.zero, s.add, s.mul)


def as_module(m) -> Module:
    """A module table (anything with order/zero/add/act) as plain tables."""
    return Module(m.order, m.zero, m.add, m.act)


def _check_brute(m) -> None:
    if m.order > MAX_BRUTE_ORDER:
        raise ValueError(f"order {m.order} is too large for brute force")


def _all_subsets(n: int):
    for k in range(n + 1):
        yield from (frozenset(c) for c in combinations(range(n), k))


def _mask(subset) -> int:
    return sum(1 << x for x in subset)


# ---------------------------------------------------------------------------
# substructures


def is_submodule(m: Module, sub: frozenset) -> bool:
    return (m.zero in sub
            and all(m.add[x][y] in sub for x in sub for y in sub)
            and all(row[x] in sub for row in m.act for x in sub))


def is_subtractive(m: Module, sub: frozenset, within: frozenset | None = None) -> bool:
    """x + y in sub and y in sub imply x in sub, for every x in ``within``
    (the whole carrier by default)."""
    xs = range(m.order) if within is None else within
    return all(x in sub for x in xs for y in sub if m.add[x][y] in sub)


def submodules(m: Module, subtractive: bool = False) -> list[list[int]]:
    """Every subsemimodule, from all 2^n subsets, in ascending bitset order."""
    _check_brute(m)
    found = [s for s in _all_subsets(m.order)
             if is_submodule(m, s) and (not subtractive or is_subtractive(m, s))]
    return [sorted(s) for s in sorted(found, key=_mask)]


def generated_submodule(m: Module, seed) -> frozenset:
    """The least submodule containing ``seed``: zero and the seed, with all
    sums of two members and all scalar images added in rounds until a round
    adds nothing."""
    sub = frozenset({m.zero, *seed})
    while True:
        bigger = (sub | {m.add[x][y] for x in sub for y in sub}
                  | {row[x] for row in m.act for x in sub})
        if bigger == sub:
            return sub
        sub = bigger


def is_ideal_simple(m: Module) -> bool:
    return m.order > 1 and len(submodules(m)) == 2


# ---------------------------------------------------------------------------
# congruences and quotients


def _transitive_closure(n: int, rel: set) -> set:
    """Reflexive-transitive closure by Warshall's algorithm."""
    reach = [[x == y or (x, y) in rel for y in range(n)] for x in range(n)]
    for k in range(n):
        for x in range(n):
            if reach[x][k]:
                for y in range(n):
                    if reach[k][y]:
                        reach[x][y] = True
    return {(x, y) for x in range(n) for y in range(n) if reach[x][y]}


def _classes(n: int, rel: set) -> list[list[int]]:
    """Classes of an equivalence relation, ordered by least member."""
    out: list[list[int]] = []
    for x in range(n):
        if not any(x in c for c in out):
            out.append([y for y in range(n) if (x, y) in rel])
    return out


def bourne_classes(m: Module, ideal) -> list[list[int]]:
    """x ~ y iff x + i = y + j for some i, j in ``ideal``, closed transitively."""
    rel = {(x, y) for x in range(m.order) for y in range(m.order)
           if any(m.add[x][i] == m.add[y][j] for i in ideal for j in ideal)}
    return _classes(m.order, _transitive_closure(m.order, rel))


def is_k_normal(m: Module, f: Sequence[int]) -> bool:
    """f(x) = f(y) implies x + k = y + k' for some k, k' in the kernel,
    checked on every pair."""
    ker = [x for x in range(m.order) if f[x] == f[m.zero]]
    return all(any(m.add[x][k] == m.add[y][j] for k in ker for j in ker)
               for x in range(m.order) for y in range(m.order) if f[x] == f[y])


def golan_condition3(m: Module, sub, others) -> bool:
    """Some N' among ``others`` has M = N + N', with each Bourne relation
    (:func:`bourne_classes`) meeting the other part in single elements."""
    def trivial_on(ideal, part) -> bool:
        return all(len(set(c) & set(part)) <= 1 for c in bourne_classes(m, ideal))

    return any({m.add[x][y] for x in sub for y in other} == set(range(m.order))
               and trivial_on(sub, other) and trivial_on(other, sub)
               for other in others)


def is_congruence(m: Module, classes: list[list[int]]) -> bool:
    cls = {x: k for k, c in enumerate(classes) for x in c}
    return (all(cls[m.add[x][z]] == cls[m.add[y][z]]
                for c in classes for x in c for y in c for z in range(m.order))
            and all(cls[row[x]] == cls[row[y]]
                    for row in m.act for c in classes for x in c for y in c))


def quotient(m: Module, classes: list[list[int]]) -> Module:
    """The quotient by a congruence given as classes; class k is element k."""
    if not is_congruence(m, classes):
        raise ValueError("the classes are not a congruence")
    cls = {x: k for k, c in enumerate(classes) for x in c}
    rep = [c[0] for c in classes]
    add = [[cls[m.add[a][b]] for b in rep] for a in rep]
    act = [[cls[row[a]] for a in rep] for row in m.act]
    return Module(len(classes), cls[m.zero], add, act)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def congruences(m: Module) -> list[list[list[int]]]:
    """Every congruence, from all set partitions of the carrier."""
    _check_brute(m)
    return [p for p in _set_partitions(list(range(m.order))) if is_congruence(m, p)]


def is_congruence_simple(m: Module) -> bool:
    return m.order > 1 and len(congruences(m)) == 2


# ---------------------------------------------------------------------------
# semirings: two-sided ideals and semiring congruences


def two_sided_ideals(s) -> list[list[int]]:
    """Every two-sided ideal (zero, closed under addition and under
    multiplication by any element on either side), from all 2^n subsets,
    in ascending bitset order."""
    _check_brute(s)
    rng = range(s.order)
    found = [i for i in _all_subsets(s.order)
             if s.zero in i
             and all(s.add[x][y] in i for x in i for y in i)
             and all(s.mul[r][x] in i and s.mul[x][r] in i for r in rng for x in i)]
    return [sorted(i) for i in sorted(found, key=_mask)]


def is_semiring_congruence(s, classes: list[list[int]]) -> bool:
    """Compatible with addition and with multiplication on both sides."""
    cls = {x: k for k, c in enumerate(classes) for x in c}
    return all(cls[op[x][z]] == cls[op[y][z]] and cls[op[z][x]] == cls[op[z][y]]
               for op in (s.add, s.mul)
               for c in classes for x in c for y in c for z in range(s.order))


def semiring_congruences(s) -> list[list[list[int]]]:
    """Every semiring congruence, from all set partitions of the carrier."""
    _check_brute(s)
    return [p for p in _set_partitions(list(range(s.order))) if is_semiring_congruence(s, p)]


def bimodule(s) -> Module:
    """A semiring acting on itself from both sides: one scalar row for each
    left and each right multiplication.  Its submodules are the two-sided
    ideals, and its congruences the semiring congruences."""
    rng = range(s.order)
    act = [list(s.mul[c]) for c in rng] + [[s.mul[x][c] for x in rng] for c in rng]
    return Module(s.order, s.zero, s.add, act)


def translations(s) -> list[list[int]]:
    """The maps x -> x + c for every c, then every scalar row of a Module,
    or x -> cx and x -> xc for every c of a semiring, as image lists."""
    m = s if isinstance(s, Module) else bimodule(s)
    rng = range(m.order)
    return [[m.add[x][c] for x in rng] for c in rng] + [list(row) for row in m.act]


def congruence_of_pair(s, a: int, b: int) -> list[list[int]]:
    """The least congruence of a Module, or semiring congruence of a
    semiring, relating a and b, as classes ordered by least member.

    Classes are merged as sets.  Each pair that merges two classes has its
    images under every translation that lie in two classes related in
    turn, until no pair is left or one class holds the whole carrier.  The result is the equivalence
    the merged pairs generate; it is closed under every translation, since
    each merged pair's images are related, and it is the least such, since
    each merged pair is forced.  An equivalence closed under the
    translations is compatible with every operation, as
    x + y ~ x' + y ~ x' + y' (and alike for products)."""
    n = s.order
    trans = translations(s)
    cls = [frozenset({x}) for x in range(n)]
    todo = [(a, b)]
    while todo and len(cls[a]) < n:
        x, y = todo.pop()
        if y not in cls[x]:
            merged = cls[x] | cls[y]
            for z in merged:
                cls[z] = merged
            todo += [(u, v) for t in trans if (v := t[y]) not in cls[u := t[x]]]
    return sorted({min(c): sorted(c) for c in cls}.values())


def generated_by(tables, seed) -> frozenset:
    """The least set holding ``seed`` and closed under every binary
    operation in ``tables``, in rounds until a round adds nothing."""
    sub = frozenset(seed)
    while True:
        bigger = sub | {t[x][y] for t in tables for x in sub for y in sub}
        if bigger == sub:
            return sub
        sub = bigger


def certifies_congruence_simple(s) -> bool:
    """True when this route confirms that s, a Module or a semiring (under
    semiring congruences), is congruence-simple; False means only that it
    confirms nothing.

    s is congruence-simple iff Cg(a, b) is universal for every pair a < b.
    The least congruence of the first pair is computed outright.  A later
    pair (a, b) is universal when some translation t maps it to an earlier
    pair with t(a) != t(b), because every congruence relating a and b
    relates t(a) and t(b).  By induction over the pairs in order, every pair
    is then universal.  No subset or partition is walked, so carriers above
    MAX_BRUTE_ORDER are admitted.
    """
    if s.order < 2:
        return False
    pairs = list(combinations(range(s.order), 2))
    if len(congruence_of_pair(s, *pairs[0])) != 1:
        return False
    trans = translations(s)
    return all(any(t[a] != t[b] and (min(t[a], t[b]), max(t[a], t[b])) < (a, b)
                   for t in trans)
               for a, b in pairs[1:])


# ---------------------------------------------------------------------------
# isomorphism


def is_linear(a: Module, b: Module, f: Sequence[int]) -> bool:
    """f carries zero, addition and the action of a into b."""
    n = range(a.order)
    return (f[a.zero] == b.zero
            and all(f[a.add[x][y]] == b.add[f[x]][f[y]] for x in n for y in n)
            and all(f[ra[x]] == rb[f[x]] for ra, rb in zip(a.act, b.act) for x in n))


def isomorphic(a: Module, b: Module) -> bool:
    """Some bijection carries zero, addition and the action of a onto b."""
    if a.order != b.order or len(a.act) != len(b.act):
        return False
    _check_brute(a)
    return any(is_linear(a, b, f) for f in permutations(range(a.order)))


# ---------------------------------------------------------------------------
# homs and the Hom sequences of 0 -> K -> M -> M/K -> 0


def homs(a: Module, b: Module) -> list[tuple[int, ...]]:
    """Every linear map a -> b, from all n^m maps, in lexicographic order."""
    return [f for f in product(range(b.order), repeat=a.order) if is_linear(a, b, f)]


def restrict(m: Module, members) -> tuple[Module, list[int]]:
    """A submodule as a module of its own, with element k the k-th least
    member, plus the inclusion into m as an image list."""
    elems = sorted(members)
    index = {x: k for k, x in enumerate(elems)}
    return Module(len(elems), index[m.zero],
                  [[index[m.add[x][y]] for y in elems] for x in elems],
                  [[index[row[x]] for x in elems] for row in m.act]), elems


def _monoid_sequence(a, b, c, first, second, add_b, zero_c) -> tuple[bool, bool, bool, bool]:
    """Flags of 0 -> A -first-> B -second-> C -> 0, for Hom sets given as
    lists of image tuples and B added by ``add_b``: first is injective, its
    image is the kernel of second, second is k-normal (equal values only
    where b + k = b' + k' for some k, k' in the kernel), and second is
    surjective."""
    images = {first(f) for f in a}
    value = {f: second(f) for f in b}
    kernel = [f for f in b if value[f] == zero_c]
    reach = {f: {add_b(f, k) for k in kernel} for f in b}
    k_normal = all(reach[f] & reach[g] for f in b for g in b if value[f] == value[g])
    return (len(images) == len(a), images == set(kernel), k_normal,
            set(value.values()) == set(c))


def _canonical_sequence(m: Module, ideal):
    """K as a module with its inclusion, and M/K with its projection."""
    k, incl = restrict(m, ideal)
    classes = bourne_classes(m, ideal)
    proj = [next(i for i, c in enumerate(classes) if x in c) for x in range(m.order)]
    return k, incl, quotient(m, classes), proj


def _pointwise_sum(t: Module):
    return lambda f, g: tuple(t.add[x][y] for x, y in zip(f, g))


def projective_sequence(p: Module, m: Module, ideal) -> tuple[bool, bool, bool, bool]:
    """The flags of 0 -> Hom(P, K) -> Hom(P, M) -> Hom(P, M/K) -> 0 for a
    subtractive ``ideal`` K of m, the maps composing with the inclusion and
    with the projection."""
    k, incl, q, proj = _canonical_sequence(m, ideal)
    return _monoid_sequence(
        homs(p, k), homs(p, m), homs(p, q),
        lambda f: tuple(incl[y] for y in f), lambda f: tuple(proj[y] for y in f),
        _pointwise_sum(m), (q.zero,) * p.order)


def injective_sequence(j: Module, m: Module, ideal) -> tuple[bool, bool, bool, bool]:
    """The flags of 0 -> Hom(M/K, J) -> Hom(M, J) -> Hom(K, J) -> 0 for a
    subtractive ``ideal`` K of m, the maps composing with the projection and
    with the inclusion."""
    k, incl, q, proj = _canonical_sequence(m, ideal)
    return _monoid_sequence(
        homs(q, j), homs(m, j), homs(k, j),
        lambda f: tuple(f[proj[x]] for x in range(m.order)), lambda f: tuple(f[x] for x in incl),
        _pointwise_sum(j), (j.zero,) * k.order)


def first_splittings(m: Module, ideal) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """The first retraction r: M -> K with r.incl = id_K and the first
    section h: M/K -> M with proj.h = id_{M/K} of 0 -> K -> M -> M/K -> 0,
    in the order of :func:`homs`, each None when there is none."""
    k, incl, q, proj = _canonical_sequence(m, ideal)
    retraction = next((r for r in homs(m, k)
                       if all(r[y] == x for x, y in enumerate(incl))), None)
    section = next((h for h in homs(q, m)
                    if all(proj[y] == c for c, y in enumerate(h))), None)
    return retraction, section


# ---------------------------------------------------------------------------
# endomorphism semirings of finite lattices


def join_endomorphisms(join: Sequence[Sequence[int]], bottom: int) -> list[tuple[int, ...]]:
    """Every map fixing ``bottom`` and preserving joins, from all n^n maps,
    in lexicographic order."""
    n = len(join)
    return [f for f in product(range(n), repeat=n)
            if f[bottom] == bottom
            and all(f[join[a][b]] == join[f[a]][f[b]] for a in range(n) for b in range(n))]


def _down_set(m: Module, c: int) -> frozenset:
    """{x : x + c = c}, the down-set of c in the additive order."""
    return frozenset(x for x in range(m.order) if m.add[x][c] == c)


def idempotent_subtractive_submodules(m: Module,
                                      within: frozenset | None = None) -> list[frozenset]:
    """Subtractive subsemimodules of an additively idempotent module,
    contained in ``within`` (the whole carrier by default) and subtractive
    relative to it.

    Such a subsemimodule N is a down-set (y in N and x + y = y give x in N)
    that holds the join c of its members, so N is the down-set of c.  Every
    principal down-set inside ``within`` is therefore a candidate, and each
    one is checked against the definitions.
    """
    if any(m.add[x][x] != x for x in range(m.order)):
        raise ValueError("the down-set route needs an additively idempotent module")
    carrier = frozenset(range(m.order)) if within is None else within
    found = {d for d in (_down_set(m, c) for c in carrier)
             if d <= carrier and is_submodule(m, d) and is_subtractive(m, d, carrier)}
    return sorted(found, key=_mask)


def idempotent_c2_c2prime(m: Module) -> tuple[bool, bool]:
    """C2 and C2' for an additively idempotent module.

    For every subtractive M and every L maximal among the subtractive
    subsemimodules of M other than M, the Bourne quotient M/L must be
    ideal-simple (C2) or congruence-simple (C2').  Quotients are checked
    from all their subsets and all their set partitions.
    """
    c2 = c2p = True
    for big in idempotent_subtractive_submodules(m):
        inner = [n for n in idempotent_subtractive_submodules(m, big) if n != big]
        maximal = [n for n in inner if not any(n < o for o in inner)]
        restricted, elems = restrict(m, big)
        index = {x: k for k, x in enumerate(elems)}
        for small in maximal:
            local = [index[x] for x in small]
            q = quotient(restricted, bourne_classes(restricted, local))
            c2 = c2 and is_ideal_simple(q)
            c2p = c2p and is_congruence_simple(q)
    return c2, c2p


# ---------------------------------------------------------------------------
# small semirings up to isomorphism


def _is_semiring(add, mul) -> bool:
    """Every semiring axiom, with zero 0 and one 1, over all elements."""
    n = range(len(add))
    return (all(add[0][x] == add[x][0] == x and mul[1][x] == mul[x][1] == x
                and mul[0][x] == mul[x][0] == 0 for x in n)
            and all(add[x][y] == add[y][x] for x in n for y in n)
            and all(add[add[x][y]][z] == add[x][add[y][z]]
                    and mul[mul[x][y]][z] == mul[x][mul[y][z]]
                    and mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                    and mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
                    for x in n for y in n for z in n))


def semirings(n: int, commutative: bool = False) -> list[tuple[tuple, tuple]]:
    """One (add, mul) pair per isomorphism class of semirings on 0..n-1 with
    zero 0 and one 1 (commutative ones only if asked), in ascending order.

    Every symmetric addition table with 0 as identity that is associative,
    then every multiplication table with 0 absorbing and 1 as identity,
    is checked against all the axioms.  The pairs are walked in ascending
    order, and each one not yet seen is kept and its images under every
    relabelling fixing 0 and 1 are marked as seen, so the least member of
    each class is kept.
    """
    if n < 2:
        return []
    rng = range(n)
    upper = [(x, y) for x in range(1, n) for y in range(x, n)]
    adds = []
    for values in product(rng, repeat=len(upper)):
        add = [[x if y == 0 else y if x == 0 else 0 for y in rng] for x in rng]
        for (x, y), v in zip(upper, values):
            add[x][y] = add[y][x] = v
        if all(add[add[x][y]][z] == add[x][add[y][z]] for x in rng for y in rng for z in rng):
            adds.append(tuple(map(tuple, add)))
    inner = [(x, y) for x in range(2, n) for y in range(2, n)]
    pairs = []
    for add in adds:
        for values in product(rng, repeat=len(inner)):
            mul = [[0 if 0 in (x, y) else y if x == 1 else x if y == 1 else 0 for y in rng]
                   for x in rng]
            for (x, y), v in zip(inner, values):
                mul[x][y] = v
            if (_is_semiring(add, mul)
                    and (not commutative or all(mul[x][y] == mul[y][x] for x in rng for y in rng))):
                pairs.append((add, tuple(map(tuple, mul))))
    kept, seen = [], set()
    for add, mul in sorted(pairs):
        if (add, mul) in seen:
            continue
        kept.append((add, mul))
        for images in permutations(range(2, n)):
            pi = (0, 1) + images
            inv = [0] * n
            for old, new in enumerate(pi):
                inv[new] = old
            seen.add((tuple(tuple(pi[add[inv[x]][inv[y]]] for y in rng) for x in rng),
                      tuple(tuple(pi[mul[inv[x]][inv[y]]] for y in rng) for x in rng)))
    return kept
