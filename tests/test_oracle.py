"""The naive routes of ``oracle`` against the engine.

These settle the facts the acceptance criteria 2-4 pin: the ``B(3,1)``
Bourne quotient, the ideal lists of ``B(p+1,p)``, and the subtractive left
ideals and C2/C2' verdicts of the endomorphism semirings ``E(M3)`` and
``E(N5)``.  Each fact is computed by both routes and, where a hand
calculation gives it, compared with that value too.  They also check the
semiring-level ideal- and congruence-simplicity verdicts, and their
witnesses, on every small semiring, the congruence lattices and
principal congruences of small modules and semirings, the
subsemimodule lattices, generated subsemimodules and hom sets of small
modules, which masks ``SubStructure`` accepts, the Bourne congruence of
every subsemimodule, the normality of every hom and Golan's condition 3
on small modules, the subtractive lattices of additively idempotent modules read
off their principal down-sets, the four projectivity and injectivity deciders against naive Hom
sequences, the congruence-simplicity of ``E(M3)`` and ``E(N5)`` above the
brute-force cap, through the oracle's translation certificate, the list
of semirings of order at most 4 up to isomorphism, and the additive-generator
gate of ``semiring_violations`` on every order-3 candidate table.
"""

from itertools import combinations, permutations, product

import pytest

import oracle
from finsemi.auditor import InstanceFacts, enumerate_semirings
from finsemi.catalog import (
    boolean_semiring,
    chain_lattice,
    diamond_m3,
    make_B,
    make_end_semiring,
    make_lattice_semiring,
    make_product,
    pentagon_n5,
)
from finsemi.core import (
    DEFAULT_LIMITS,
    LinearMap,
    Limits,
    SemimoduleTable,
    SubStructure,
    _closure_mask,
    _holds_on_additive_generators,
    bits,
    bourne_congruence,
    congruence_closure,
    enumerate_congruences,
    enumerate_subsemimodules,
    generated_subsemimodule,
    linear_map_violations,
    product_module,
    quotient_by_congruence,
    semiring_violations,
    sub_module,
    subtractive_closure,
    validate_semiring,
)
from finsemi.errors import IncompatiblePartition
from finsemi.homs import are_isomorphic, enumerate_homs, find_isomorphism, normality_profile
from finsemi.projinj import (
    bounded_family,
    is_e_injective,
    is_e_projective,
    is_i_injective,
    is_k_projective,
)
from finsemi.semisimple import (
    condition_profile,
    is_module_congruence_simple,
    semiring_simplicity_profile,
)
from finsemi.summands import golan_condition3


def _engine_lists(m, subtractive_only=False):
    return [sorted(bits(t.members))
            for t in enumerate_subsemimodules(m, subtractive_only=subtractive_only)]


# ---------------------------------------------------------------------------
# criterion 2: B(3,1) modulo the ideal {0, 2}


def test_b31_bourne_quotient_is_not_the_ideal():
    s = make_B(3, 1)
    m = s.left_module()
    ideal = SubStructure(m, 0b101)
    rho = bourne_congruence(m, ideal)
    quot, _ = quotient_by_congruence(m, rho)
    imod = sub_module(ideal)[0]

    naive = oracle.left_module(s)
    classes = oracle.bourne_classes(naive, [0, 2])
    # 1 + i = 1 for i in {0, 2}, while 0 + i and 2 + j only take the values 0 and 2
    assert classes == [[0, 2], [1]]
    assert [sorted(bits(c)) for c in rho.class_masks()] == classes

    naive_quot = oracle.quotient(naive, classes)
    assert naive_quot.order == 2
    assert naive_quot.add[1][1] == naive_quot.zero  # [1] + [1] = [2] = [0]
    assert oracle.isomorphic(naive_quot, oracle.as_module(quot))

    naive_ideal = oracle.as_module(imod)
    assert naive_ideal.add[1][1] == 1  # 2 + 2 = 2
    assert not oracle.isomorphic(naive_quot, naive_ideal)
    assert not are_isomorphic(quot, imod)


# ---------------------------------------------------------------------------
# criterion 3: the ideals of B(p+1, p)


@pytest.mark.parametrize("p", [3, 5])
def test_bp1p_ideal_lists(p):
    s = make_B(p + 1, p)
    naive = oracle.left_module(s)
    # k * x is x added k times, so the ideals are {0} with every T in {1..p}
    # closed under addition capped at p
    capped_closed = [[0, *t] for k in range(p + 1) for t in combinations(range(1, p + 1), k)
                     if all(min(a + b, p) in t for a in t for b in t)]
    capped_closed.sort(key=lambda t: sum(1 << x for x in t))
    assert oracle.submodules(naive) == capped_closed
    assert _engine_lists(s.left_module()) == capped_closed
    trivial = [[0], list(range(p + 1))]
    assert oracle.submodules(naive, subtractive=True) == trivial
    assert _engine_lists(s.left_module(), subtractive_only=True) == trivial


@pytest.mark.parametrize("n, i", [(n, i) for n in range(2, 6) for i in range(n)])
def test_bni_ideal_lists_agree(n, i):
    s = make_B(n, i)
    naive = oracle.left_module(s)
    for subtractive in (False, True):
        assert oracle.submodules(naive, subtractive) == _engine_lists(s.left_module(), subtractive)


# ---------------------------------------------------------------------------
# criterion 4: E(M3) and E(N5)


@pytest.mark.parametrize("make_lattice, sizes", [
    (diamond_m3, [1, 5, 5, 5, 50]),
    (pentagon_n5, [1, 5, 5, 13, 43]),
], ids=["E(M3)", "E(N5)"])
def test_endomorphism_subtractive_left_ideals(make_lattice, sizes):
    lat = make_lattice()
    e = make_end_semiring(lat)
    endos = oracle.join_endomorphisms(lat.join, lat.bottom)
    index = {f: k for k, f in enumerate(endos)}
    n = lat.order
    # the catalog carrier is the same list of maps in the same order
    assert e.add == tuple(tuple(index[tuple(lat.join[f[x]][g[x]] for x in range(n))]
                                for g in endos) for f in endos)
    assert e.mul == tuple(tuple(index[tuple(f[g[x]] for x in range(n))]
                                for g in endos) for f in endos)

    naive = oracle.idempotent_subtractive_submodules(oracle.left_module(e))
    engine = [frozenset(bits(t.members))
              for t in enumerate_subsemimodules(e.left_module(), subtractive_only=True)]
    assert naive == engine
    assert sorted(len(t) for t in naive) == sorted(sizes)
    # exactly the annihilators L_a = {f : f(a) = bottom}, one per lattice element
    annihilators = {frozenset(k for k, f in enumerate(endos) if f[a] == lat.bottom)
                    for a in range(n)}
    assert set(naive) == annihilators


@pytest.mark.parametrize("make_lattice", [diamond_m3, pentagon_n5, lambda: chain_lattice(4)],
                         ids=["M3", "N5", "C4"])
def test_top_preserving_endomorphism_tables(make_lattice):
    # the maps fixing the top, plus the zero map, in lexicographic order
    lat = make_lattice()
    n = lat.order
    zero, identity = (lat.bottom,) * n, tuple(range(n))
    endos = [f for f in oracle.join_endomorphisms(lat.join, lat.bottom)
             if f[lat.top] == lat.top or f == zero]
    index = {f: k for k, f in enumerate(endos)}
    e = make_end_semiring(lat, top_preserving=True)
    assert (e.order, e.zero, e.one) == (len(endos), index[zero], index[identity])
    assert e.add == tuple(tuple(index[tuple(lat.join[f[x]][g[x]] for x in range(n))]
                                for g in endos) for f in endos)
    assert e.mul == tuple(tuple(index[tuple(f[g[x]] for x in range(n))]
                                for g in endos) for f in endos)


@pytest.mark.parametrize("make_lattice, top_preserving, expected", [
    (diamond_m3, False, (True, True)),
    (pentagon_n5, False, (True, True)),
    (diamond_m3, True, (False, True)),
    (pentagon_n5, True, (False, True)),
], ids=["E(M3)", "E(N5)", "E(M3)-top", "E(N5)-top"])
def test_endomorphism_c2_and_c2prime(make_lattice, top_preserving, expected):
    e = make_end_semiring(make_lattice(), top_preserving=top_preserving)
    cp = condition_profile(e)
    assert oracle.idempotent_c2_c2prime(oracle.left_module(e)) == expected
    assert (cp.c2, cp.c2prime) == expected


@pytest.mark.parametrize("s", [
    boolean_semiring(),
    make_lattice_semiring(chain_lattice(4)),
    make_product([boolean_semiring()] * 3),
    make_end_semiring(chain_lattice(3)),
    make_end_semiring(chain_lattice(3), top_preserving=True),
], ids=["B", "C4", "BxBxB", "E(C3)", "E(C3)-top"])
def test_down_set_route_matches_all_subsets(s):
    m = oracle.left_module(s)
    by_down_sets = [sorted(t) for t in oracle.idempotent_subtractive_submodules(m)]
    assert by_down_sets == oracle.submodules(m, subtractive=True)
    cp = condition_profile(s)
    assert oracle.idempotent_c2_c2prime(m) == (cp.c2, cp.c2prime)


# ---------------------------------------------------------------------------
# semiring simplicity: two-sided ideals and semiring congruences


def _canonical(classes) -> list[list[int]]:
    return sorted(sorted(c) for c in classes)


def _check_semiring_simplicity(name, s) -> None:
    rep = semiring_simplicity_profile(s)
    ideals = oracle.two_sided_ideals(s)
    congs = [_canonical(p) for p in oracle.semiring_congruences(s)]
    assert rep.ideal_simple == (len(ideals) == 2), name
    assert rep.congruence_simple == (len(congs) == 2), name
    if rep.ideal_simple:
        assert rep.ideal_witness_mask is None, name
    else:
        witness = sorted(bits(rep.ideal_witness_mask))
        assert witness in ideals and 1 < len(witness) < s.order, name
    if rep.congruence_simple:
        assert rep.congruence_witness is None, name
    else:
        classes = _canonical(bits(c) for c in rep.congruence_witness.class_masks())
        assert classes in congs and 1 < len(classes) < s.order, name


def test_semiring_simplicity_on_every_semiring_up_to_order_four():
    corpus = [s for order in (2, 3, 4) for s in enumerate_semirings(order)]
    assert len(corpus) == 48
    for k, s in enumerate(corpus):
        _check_semiring_simplicity(f"sr{s.order}, index {k}", s)


def test_semiring_simplicity_on_every_small_bni():
    for n in range(2, 6):
        for i in range(n):
            _check_semiring_simplicity(f"B({n},{i})", make_B(n, i))


def test_translation_certificate_is_sound_on_small_semirings(relabelled):
    # wherever the certificate holds, all set partitions agree; and it
    # holds somewhere, so it is not vacuous.  Every labelling of the
    # semirings of order at most 4 is tried, since the certificate depends
    # on which pair comes first
    certified = 0
    for name, s in _small_semirings():
        labellings = permutations(range(s.order)) if s.order <= 4 else [range(s.order)]
        for pi in labellings:
            r = relabelled(s, list(pi))
            if oracle.certifies_congruence_simple(r):
                certified += 1
                assert len(oracle.semiring_congruences(r)) == 2, (name, pi)
                assert semiring_simplicity_profile(r).congruence_simple, (name, pi)
    assert certified


@pytest.mark.parametrize("make_lattice", [diamond_m3, pentagon_n5], ids=["E(M3)", "E(N5)"])
def test_endomorphism_congruence_simplicity_above_the_brute_force_cap(make_lattice):
    # orders 50 and 43: no partition walk, but the certificate confirms the
    # engine's verdict, and confirms nothing on the top-preserving variant,
    # which the engine reports as not congruence-simple
    s = make_end_semiring(make_lattice())
    assert s.order > oracle.MAX_BRUTE_ORDER
    assert semiring_simplicity_profile(s).congruence_simple
    assert oracle.certifies_congruence_simple(s)
    top = make_end_semiring(make_lattice(), top_preserving=True)
    assert not semiring_simplicity_profile(top).congruence_simple
    assert not oracle.certifies_congruence_simple(top)


# ---------------------------------------------------------------------------
# congruence lattices: the principal table and its joins against all partitions


def _engine_congruences(parent) -> list[list[list[int]]]:
    cons = enumerate_congruences(parent)
    assert cons.exhaustive
    return [_canonical(bits(c) for c in rho.class_masks()) for rho in cons]


def _least_containing(n: int, congs: list[list[list[int]]], a: int, b: int) -> list[list[int]]:
    """The meet of every congruence relating a and b, as classes."""
    related = [{(x, y) for c in p for x in c for y in c}
               for p in congs if any(a in c and b in c for c in p)]
    meet = set.intersection(*related)
    return _canonical({frozenset(y for y in range(n) if (x, y) in meet) for x in range(n)})


def _check_congruences(name, parent, oracle_congs) -> None:
    congs = sorted(_canonical(p) for p in oracle_congs)
    assert sorted(_engine_congruences(parent)) == congs, name
    n = parent.order
    for a in range(n):
        for b in range(a + 1, n):
            got = _canonical(bits(c) for c in congruence_closure(parent, [(a, b)]).class_masks())
            assert got == _least_containing(n, congs, a, b), (name, a, b)


def _corpus():
    corpus = [(f"sr{s.order}, index {k}", s)
              for k, s in enumerate(s for order in (2, 3, 4) for s in enumerate_semirings(order))]
    assert len(corpus) == 48
    return corpus


def _small_semirings():
    bni = [(f"B({n},{i})", make_B(n, i)) for n in range(2, 6) for i in range(n)]
    return _corpus() + bni


def _is_cyclic(m) -> bool:
    """Some element's scalar orbit is the whole carrier."""
    return any(len({row[g] for row in m.act}) == m.order for g in range(m.order))


def test_module_congruences_on_every_small_semiring():
    for name, s in _small_semirings():
        _check_congruences(name, s.left_module(), oracle.congruences(oracle.left_module(s)))


def test_semiring_congruences_on_every_small_semiring():
    for name, s in _small_semirings():
        _check_congruences(name, s, oracle.semiring_congruences(s))


def test_congruences_of_a_module_with_no_cyclic_generator():
    mb = boolean_semiring().left_module()
    m = product_module(mb, mb)
    assert not _is_cyclic(m)
    _check_congruences("B+B", m, oracle.congruences(oracle.as_module(m)))


# ---------------------------------------------------------------------------
# closures under the generating translations against closures under all


FIXTURE_NAMES = ["B(3,1)", "B(3,2)", "B(4,3)", "B(6,5)", "BxB", "BxBxB", "E(M3)", "E(N5)"]


def _plain(parent):
    """The oracle's tables of a module, or of a semiring acting on itself
    from both sides."""
    if isinstance(parent, SemimoduleTable):
        return oracle.as_module(parent)
    return oracle.bimodule(parent)


def _translation_sweep(catalog_fixtures):
    """The semirings of order at most 4, their left modules and every member
    of their bounded families, then the eight catalog fixtures and their
    left modules."""
    for name, s, family in _families():
        yield name, s
        for k, mod in enumerate(family):
            yield f"{name} family {k}", mod
    for name, s in catalog_fixtures:
        yield name, s
        yield f"{name} left module", s.left_module()


def _check_principal_congruences(name, parent) -> None:
    plain = _plain(parent)
    for a, b in combinations(range(parent.order), 2):
        got = _canonical(bits(c) for c in congruence_closure(parent, [(a, b)]).class_masks())
        assert got == oracle.congruence_of_pair(plain, a, b), (name, a, b)


def test_principal_congruences_against_every_translation():
    for name, s, family in _families():
        for k, parent in enumerate([s, *family]):
            _check_principal_congruences(f"{name} ({k})", parent)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_principal_congruences_of_the_fixtures_against_every_translation(catalog_fixtures, name):
    assert [n for n, _ in catalog_fixtures] == FIXTURE_NAMES
    s = dict(catalog_fixtures)[name]
    for parent in (s, s.left_module()):
        _check_principal_congruences(name, parent)


def test_principal_closures_against_the_naive_closure(catalog_fixtures):
    # the subsemimodule, or two-sided ideal, generated by each element
    for name, parent in _translation_sweep(catalog_fixtures):
        plain = _plain(parent)
        for x in range(parent.order):
            assert set(bits(_closure_mask(parent, 1 << x))) == \
                oracle.generated_submodule(plain, {x}), (name, x)


def test_congruence_simplicity_against_the_certificate(catalog_fixtures):
    # the certificate is sound, not complete: where it holds the engine must
    # say simple; on small carriers all partitions decide both ways
    certified = 0
    for name, parent in _translation_sweep(catalog_fixtures):
        plain = _plain(parent)
        simple = is_module_congruence_simple(parent)[0]
        if oracle.certifies_congruence_simple(plain):
            certified += 1
            assert simple, name
        if parent.order <= 6:
            assert simple == oracle.is_congruence_simple(plain), name
    assert certified > 2


def test_stored_generating_sets_generate_their_carriers(catalog_fixtures):
    # the sums are x -> x + g for a set of g that generates the carrier under
    # +; the scalars are the maps of a set of scalars that generates the base
    # semiring under + and . together with 0 and 1
    for name, parent in _translation_sweep(catalog_fixtures):
        sums, scalars = parent.generating_translations
        gens = [row[parent.zero] for row in sums]
        assert [parent.add[g] for g in gens] == list(sums), name
        assert oracle.generated_by([parent.add], {parent.zero, *gens}) == \
            set(range(parent.order)), name
        if isinstance(parent, SemimoduleTable):
            base = parent.base
            assert list(scalars) == [parent.act[t] for t in base.generators], name
        else:
            base = parent
            assert list(scalars) == [row for t in base.generators for row in
                                     (base.mul[t], tuple(r[t] for r in base.mul))], name
        assert oracle.generated_by([base.add, base.mul], {base.zero, base.one, *base.generators}) \
            == set(range(base.order)), name


# ---------------------------------------------------------------------------
# the closure kernel: subsemimodule lattices and generated subsemimodules


def _closure_sweep():
    """Every left module of order at most 4, and M + M for the left modules
    M of B(3,1) and B(3,2), which have no cyclic generator, so a closure
    there seldom reaches the whole carrier."""
    mods = [(name, s.left_module()) for name, s in _corpus()]
    for n, i in [(3, 1), (3, 2)]:
        m = make_B(n, i).left_module()
        p = product_module(m, m)
        assert not _is_cyclic(p)
        mods.append((f"B({n},{i})+B({n},{i})", p))
    return mods


@pytest.mark.parametrize("subtractive", [False, True], ids=["all", "subtractive"])
def test_subsemimodule_lattices_of_small_modules(subtractive):
    for name, m in _closure_sweep():
        subs = enumerate_subsemimodules(m, subtractive_only=subtractive)
        assert subs.exhaustive, name
        assert [sorted(bits(t.members)) for t in subs] == \
            oracle.submodules(oracle.as_module(m), subtractive), name


def test_generated_subsemimodules_of_small_modules():
    # the least submodule containing a seed is the meet of those that do
    for name, m in _closure_sweep():
        subs = [frozenset(t) for t in oracle.submodules(oracle.as_module(m))]
        for seed in range(1 << m.order):
            members = frozenset(bits(seed))
            least = frozenset.intersection(*(t for t in subs if members <= t))
            assert set(bits(generated_subsemimodule(m, seed).members)) == least, (name, seed)


def test_subtractive_closures_of_small_modules():
    # the subtractive closure of a subsemimodule is the meet of the
    # subtractive ones that contain it
    for name, m in _closure_sweep():
        naive = oracle.as_module(m)
        subtractive = [frozenset(t) for t in oracle.submodules(naive, subtractive=True)]
        for sub in enumerate_subsemimodules(m):
            members = frozenset(bits(sub.members))
            least = frozenset.intersection(*(t for t in subtractive if members <= t))
            assert set(bits(subtractive_closure(sub).members)) == least, (name, members)


def _subtractive_walk(m) -> list[int]:
    """The subtractive lattice by the closure walk: from the least
    subtractive subsemimodule, close each one found with every element
    outside it, until nothing new appears."""
    from finsemi import core

    start = core._subtractive_closed_closure(m, 0)
    seen, queue = {start}, [start]
    while queue:
        current = queue.pop()
        for x in range(m.order):
            if not current >> x & 1:
                bigger = core._subtractive_closed_closure(m, 1 << x, current)
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return sorted(seen)


def _idempotent_modules():
    """The additively idempotent family members of the semirings of order
    at most 4, and the left modules of the idempotent fixtures, of E(C4)
    and of the top-preserving End variants."""
    b = boolean_semiring()
    semirings = [make_product([b, b]), make_product([b, b, b]),
                 make_end_semiring(chain_lattice(4)),
                 make_end_semiring(diamond_m3()), make_end_semiring(pentagon_n5()),
                 make_end_semiring(diamond_m3(), top_preserving=True),
                 make_end_semiring(pentagon_n5(), top_preserving=True)]
    mods = [(name, mod) for name, _, family in _families() for mod in family]
    mods += [(repr(s), s.left_module()) for s in semirings]
    return [(name, m) for name, m in mods
            if all(m.add[x][x] == x for x in range(m.order))]


def test_down_set_route_of_idempotent_modules():
    # up to the brute-force cap against all subsets, above it against the
    # closure walk, which modules whose addition is not idempotent still take
    routes = {"oracle": 0, "walk": 0}
    for name, m in _idempotent_modules():
        subt = enumerate_subsemimodules(m, subtractive_only=True)
        assert subt.exhaustive, name
        got = [t.members for t in subt]
        if m.order <= oracle.MAX_BRUTE_ORDER:
            want = [sum(1 << x for x in t)
                    for t in oracle.submodules(oracle.as_module(m), subtractive=True)]
            routes["oracle"] += 1
        else:
            want = _subtractive_walk(m)
            routes["walk"] += 1
        assert got == want, name
    assert routes["oracle"] > 100 and routes["walk"] == 5


@pytest.mark.parametrize("limits", [Limits(max_steps=3), Limits(max_results=2)],
                         ids=["max_steps=3", "max_results=2"])
@pytest.mark.parametrize("make_lattice", [diamond_m3, pentagon_n5], ids=["E(M3)", "E(N5)"])
def test_truncated_down_set_route(make_lattice, limits):
    # a cut keeps real subtractive subsemimodules of the full lattice; one
    # step per candidate other than zero, and a result cap that the lattice
    # just fits is no cut
    m = make_end_semiring(make_lattice()).left_module()
    full = enumerate_subsemimodules(m, subtractive_only=True)
    assert full.exhaustive and len(full) == 5
    cut = enumerate_subsemimodules(m, limits, subtractive_only=True)
    assert not cut.exhaustive
    assert 1 <= len(cut) <= min(limits.max_results, limits.max_steps + 1)
    assert {t.members for t in cut} < {t.members for t in full}
    naive = oracle.as_module(m)
    assert all(oracle.is_subtractive(naive, frozenset(bits(t.members))) for t in cut)
    for enough in (Limits(max_steps=m.order - 1), Limits(max_results=len(full))):
        again = enumerate_subsemimodules(m, enough, subtractive_only=True)
        assert again.exhaustive and again.items == full.items
    short = enumerate_subsemimodules(m, Limits(max_steps=m.order - 2), subtractive_only=True)
    assert not short.exhaustive


def test_two_generator_subsemimodules_of_squares():
    # a closure from two generators needs sums of two derived elements; from
    # one generator x it gets them from the action, as sx + tx = (s + t)x
    for name, s in _corpus():
        m = s.left_module()
        p = product_module(m, m)
        naive = oracle.as_module(p)
        for a, b in combinations(range(p.order), 2):
            got = generated_subsemimodule(p, [a, b]).members
            assert set(bits(got)) == oracle.generated_submodule(naive, [a, b]), (name, a, b)


# ---------------------------------------------------------------------------
# the substructure primitives: the closure check and the Bourne relation


def _substructure_sweep():
    """The modules of :func:`_closure_sweep` and B + B, the sum of two
    Boolean left modules, which has no cyclic generator."""
    mb = boolean_semiring().left_module()
    return _closure_sweep() + [("B+B", product_module(mb, mb))]


def test_substructures_are_exactly_the_subsemimodules():
    for name, m in _substructure_sweep():
        naive = oracle.as_module(m)
        for mask in range(1 << m.order):
            try:
                SubStructure(m, mask)
                accepted = True
            except IncompatiblePartition:
                accepted = False
            assert accepted == oracle.is_submodule(naive, frozenset(bits(mask))), (name, mask)


def test_bourne_congruences_of_every_subsemimodule():
    # the oracle closes the defining relation transitively; the engine reads
    # classes off meeting reaches, which needs no closure
    kinds = set()
    for name, m in _substructure_sweep():
        naive = oracle.as_module(m)
        for members in oracle.submodules(naive):
            rho = bourne_congruence(m, SubStructure(m, sum(1 << x for x in members)))
            assert [sorted(bits(c)) for c in rho.class_masks()] == \
                oracle.bourne_classes(naive, members), (name, members)
            kinds.add(oracle.is_subtractive(naive, frozenset(members)))
    assert kinds == {False, True}


def _same_base_pairs():
    """(source, target) pairs over one base among the left modules of
    order at most 4 and B + B."""
    pairs = [(name, m, m) for name, m in _substructure_sweep() if m.order <= 4]
    mb = boolean_semiring().left_module()
    bb = product_module(mb, mb)
    return pairs + [("B->B+B", mb, bb), ("B+B->B", bb, mb)]


def test_normality_profiles_of_every_hom():
    verdicts = set()
    for name, a, b in _same_base_pairs():
        naive_a, naive_b = oracle.as_module(a), oracle.as_module(b)
        for image_of in oracle.homs(naive_a, naive_b):
            got = normality_profile(LinearMap(a, b, image_of))
            want = (oracle.is_k_normal(naive_a, image_of),
                    oracle.is_subtractive(naive_b, frozenset(image_of)))
            assert (got.k_normal, got.i_normal) == want, (name, image_of)
            verdicts.add(want)
    assert len(verdicts) == 4


def test_stored_map_facts_of_every_hom():
    # the image, kernel and k-normality each map keeps equal a fresh
    # computation, on the maps the engine builds and on checked ones
    verdicts = set()
    for name, a, b in _same_base_pairs():
        naive_a = oracle.as_module(a)
        engine = {f.image_of: f for f in enumerate_homs(a, b)}
        for image_of in oracle.homs(naive_a, oracle.as_module(b)):
            kernel = sum(1 << x for x, y in enumerate(image_of) if y == b.zero)
            image = sum(1 << y for y in set(image_of))
            k_normal = oracle.is_k_normal(naive_a, image_of)
            for f in (engine[image_of], LinearMap(a, b, image_of)):
                for _ in range(2):
                    assert (f.kernel_mask(), f.image_mask(), f.is_k_normal()) == \
                        (kernel, image, k_normal), (name, image_of)
                assert {"_kernel_mask", "_image_mask", "_k_normal"} <= set(vars(f))
            assert engine[image_of] == LinearMap(a, b, image_of)
            assert hash(engine[image_of]) == hash(LinearMap(a, b, image_of))
            verdicts.add(k_normal)
    assert verdicts == {False, True}


def _one_sided_restriction():
    """A semiring of order 5 whose left module is {0, 3} + {0, 2, 4}, where
    the Bourne relation of {0, 2, 4} restricted to {0, 3} is the diagonal,
    while that of {0, 3} relates 0 and 4, as 0 + 3 = 4 + 3 = 3: Golan's
    condition 3 must test both restrictions."""
    add = [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 1, 2], [3, 1, 1, 3, 3], [4, 1, 2, 3, 4]]
    mul = [[0] * 5, [0, 1, 2, 3, 4], [0, 2, 2, 0, 0], [0, 3, 4, 3, 4], [0, 4, 4, 0, 0]]
    return ("order 5", validate_semiring(add, mul, zero=0, one=1).left_module())


def test_golan_condition3_of_every_subsemimodule():
    verdicts = set()
    for name, m in [*_substructure_sweep(), _one_sided_restriction()]:
        naive = oracle.as_module(m)
        subs = oracle.submodules(naive)
        engine_subs = [SubStructure(m, sum(1 << x for x in t)) for t in subs]
        for t, sub in zip(subs, engine_subs):
            want = oracle.golan_condition3(naive, t, subs)
            assert golan_condition3(m, sub, engine_subs) == want, (name, t)
            verdicts.add(want)
    assert verdicts == {False, True}


# ---------------------------------------------------------------------------
# hom sets, and the deciders against the Hom sequences they decide


def _families():
    for name, s in _corpus():
        yield name, s, bounded_family(s)


def test_hom_sets_of_small_modules():
    # sums of two family members are sources with no cyclic generator, where
    # a hom is not fixed by the action on one element
    non_cyclic = 0
    for name, _, family in _families():
        sums = [product_module(a, b) for a, b in combinations(family, 2)
                if a.order * b.order <= 4]
        non_cyclic += sum(not _is_cyclic(p) for p in sums)
        for a in family + sums:
            for b in family:
                homs = enumerate_homs(a, b)
                assert homs.exhaustive
                assert [f.image_of for f in homs] == \
                    oracle.homs(oracle.as_module(a), oracle.as_module(b)), name
    assert non_cyclic


def test_isomorphism_search_against_all_bijections(relabelled):
    # the family keeps one member per isomorphism class, so equal-order
    # members are never isomorphic; each member is isomorphic to a copy
    # with every element moved
    pairs = 0
    for name, _, family in _families():
        for mod in family:
            rotation = [(x + 1) % mod.order for x in range(mod.order)]
            copies = [(other, other is mod) for other in family
                      if other.order == mod.order]
            copies.append((relabelled(mod, rotation), True))
            for other, expected in copies:
                assert oracle.isomorphic(oracle.as_module(mod), oracle.as_module(other)) \
                    == expected, name
                iso = find_isomorphism(mod, other)
                assert (iso is not None) == are_isomorphic(mod, other) == expected, name
                if iso is not None:
                    assert iso.is_injective() and iso.is_surjective(), name
                    assert linear_map_violations(mod, other, iso.image_of) == [], name
                pairs += 1
    assert pairs > 48


@pytest.mark.parametrize("decider, lifting, route", [
    (is_e_projective, is_k_projective, oracle.projective_sequence),
    (is_e_injective, is_i_injective, oracle.injective_sequence),
], ids=["projective", "injective"])
def test_deciders_against_hom_sequences(decider, lifting, route):
    failed = set()
    for name, s, family in _families():
        m, naive = s.left_module(), oracle.left_module(s)
        ideals = oracle.submodules(naive, subtractive=True)
        for mod in family:
            flags = [route(oracle.as_module(mod), naive, k) for k in ideals]
            # A -> B is injective, and its image is the kernel of B -> C
            assert all(left and image_is_kernel for left, image_is_kernel, _, _ in flags), name
            expected = [(sum(1 << x for x in k), left, image_is_kernel and k_normal, right)
                        for k, (left, image_is_kernel, k_normal, right) in zip(ideals, flags)]
            got = [(r.kernel_mask, r.left, r.middle, r.right) for r in decider(mod, m).records]
            assert got == expected, name
            # exactness at C is the lifting verdict
            assert lifting(mod, m).holds == all(r[3] for r in expected), name
            failed |= {i for r in expected for i in (2, 3) if not r[i]}
    assert failed == {2, 3}  # exactness fails at B somewhere and at C somewhere


def test_splittings_against_naive_sequences():
    # the engine reads each splitting off the lifting pass: the first lift
    # of the identity test map at kernel K
    b = boolean_semiring()
    fixtures = [("B(3,1)", make_B(3, 1)), ("B(3,2)", make_B(3, 2)), ("B(4,3)", make_B(4, 3)),
                ("B(6,5)", make_B(6, 5)), ("BxB", make_product([b, b]))]
    shapes = set()
    for name, s in _corpus() + fixtures:
        naive = oracle.left_module(s)
        expected = {sum(1 << x for x in k): oracle.first_splittings(naive, k)
                    for k in oracle.submodules(naive, subtractive=True)}
        assert InstanceFacts(s, DEFAULT_LIMITS, "reduced").splittings == expected, name
        shapes |= {(r is not None, h is not None) for r, h in expected.values()}
    # split both ways, left only (as in B(3,1)) and neither
    assert {(True, True), (True, False), (False, False)} <= shapes


@pytest.mark.parametrize("commutative", [False, True], ids=["all", "commutative"])
def test_semiring_enumeration_against_all_tables(commutative):
    # the engine prunes one cell search by the axioms and dedups by canonical
    # form; the oracle checks every table and marks whole isomorphism classes
    for order in (2, 3, 4):
        engine = [(s.add, s.mul) for s in enumerate_semirings(order, commutative)]
        assert engine == oracle.semirings(order, commutative), order


def test_generator_gate_against_all_order_three_candidates():
    # every symmetric addition with 0 as identity and every multiplication
    # with 0 absorbing and 1 as identity: the quadratic axioms hold, so the
    # verdict rests on the additive-generator gate alone
    rng = range(3)
    verdicts = []
    for a11, a12, a22, m22 in product(rng, repeat=4):
        add = ((0, 1, 2), (1, a11, a12), (2, a12, a22))
        mul = ((0, 0, 0), (0, 1, 2), (0, 2, m22))
        naive = oracle._is_semiring(add, mul)
        assert _holds_on_additive_generators(add, mul, 0) == naive, (add, mul)
        assert (semiring_violations(add, mul, 0, 1) == []) == naive, (add, mul)
        verdicts.append(naive)
    assert len(verdicts) == 81 and 0 < sum(verdicts) < 81
