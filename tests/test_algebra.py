import gc
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from test_properties import finite_modules, modules_with_free_factors
from gpspec.algebra import (
    AlgebraError,
    BaseRing,
    EnumerationBoundError,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    Ideal,
    InfiniteEnumerationError,
    ModuleMismatchError,
    QuotientMap,
    _enumerate_block_subgroups,
    annihilator,
    colon_ideals,
    enumerate_submodules,
    ideal_times_module,
    lattice,
    quotient_module,
)
from gpspec.dsl import parse_model
from gpspec.maps import analyze_natural_map
from gpspec.spectra import (
    graded_radical,
    in_primary_spectrum,
    is_cancellation,
    is_graded_primary,
    is_graded_prime,
    is_multiplication,
)
from gpspec.topology import PSPEC, build_space, variety

Z = BaseRing(0)
Z2G = GradingGroup((2,))
rng = random.Random(1)


def zmod_module(n, ring=None):
    """Z_n concentrated in degree 0 over the given ring (default Z/n)."""
    ring = ring or BaseRing(n)
    return GradedModule(ring, Z2G, [(n, (0,))])


def zxz():
    return GradedModule(Z, Z2G, [(0, (0,)), (0, (1,))])


# -- rings and ideals -------------------------------------------------------


def test_ring_validation():
    with pytest.raises(AlgebraError):
        BaseRing(1)
    with pytest.raises(AlgebraError):
        BaseRing(-3)
    assert BaseRing(0).is_field is False
    assert BaseRing(7).is_field is True
    assert BaseRing(8).is_field is False


def test_ideal_canonicalization():
    assert Z.ideal(-4).gen == 4
    r6 = BaseRing(6)
    assert r6.ideal(4).gen == 2
    assert r6.ideal(0).gen == 6
    assert r6.ideal(6).gen == 6
    assert r6.zero_ideal.is_zero
    assert Z.ideal(0).is_zero


def test_ideal_containment_order():
    # (c) <= (d) iff d | c, with (0) of Z meaning {0}
    assert Z.ideal(2).contains(Z.ideal(4))
    assert not Z.ideal(4).contains(Z.ideal(2))
    assert Z.ideal(2).contains(Z.ideal(0))
    assert not Z.ideal(0).contains(Z.ideal(2))
    r12 = BaseRing(12)
    assert r12.ideal(2).contains(r12.ideal(4))
    assert r12.ideal(2).contains(r12.zero_ideal)
    assert not r12.ideal(3).contains(r12.ideal(2))


def test_ideal_radical_examples():
    # (4) over Z -> (2): 2^2 = 4 forces 2 into the radical, odd elements stay out
    assert Z.ideal(4).radical() == Z.ideal(2)
    # zero ideal of Z_8 -> (2): 2^3 = 0 in Z_8
    assert BaseRing(8).zero_ideal.radical() == BaseRing(8).ideal(2)
    # zero ideal of Z_6 -> (0): exhaustively, no smaller ideal works
    assert BaseRing(6).zero_ideal.radical() == BaseRing(6).zero_ideal
    assert Z.ideal(0).radical() == Z.ideal(0)
    assert Z.ideal(12).radical() == Z.ideal(6)


def test_ideal_radical_exhaustive_all_n_up_to_60():
    for n in range(2, 61):
        ring = BaseRing(n)
        for I in ring.ideals():
            expected = oracles.radical_oracle(I)
            got = I.radical()
            assert {r for r in range(n) if got.contains_element(r)} == expected, (n, I)


def test_ideal_prime_maximal():
    assert Z.ideal(0).is_prime and not Z.ideal(0).is_maximal
    assert Z.ideal(5).is_prime and Z.ideal(5).is_maximal
    assert not Z.ideal(6).is_prime
    r6 = BaseRing(6)
    assert [p.gen for p in r6.prime_ideals()] == [2, 3]
    assert not r6.zero_ideal.is_prime
    r5 = BaseRing(5)
    assert r5.zero_ideal.is_prime  # Z_5 is a field


# -- modules and elements ---------------------------------------------------


def test_module_validation():
    with pytest.raises(AlgebraError):
        GradedModule(BaseRing(6), Z2G, [(4, (0,))])  # 4 does not divide 6
    with pytest.raises(AlgebraError):
        GradedModule(BaseRing(6), Z2G, [(0, (0,))])  # Z factor over Z_6
    with pytest.raises(AlgebraError):
        GradedModule(Z, Z2G, [(1, (0,))])  # order 1 factor
    M = GradedModule(BaseRing(6), Z2G, [(6, (0,)), (3, (1,))])
    assert M.size == 18 and M.exponent == 6


@pytest.mark.parametrize("ring, factors, message", [
    (Z, [(1, (0,))], "factor order must be 0 or >= 2: 1"),
    (Z, [(-4, (0,))], "factor order must be 0 or >= 2: -4"),
    (BaseRing(6), [(4, (0,))], "factor order 4 does not divide ring modulus 6"),
    (BaseRing(6), [(0, (0,))], "factor order 0 does not divide ring modulus 6"),
    (Z, [(2, (0, 1))], "degree arity 2 != 1"),
    # every degree's arity is checked before any order, and the first bad
    # order wins
    (Z, [(1, (0,)), (2, (0, 1))], "degree arity 2 != 1"),
    (Z, [(2, (0,)), (-1, (1,)), (3, ())], "degree arity 0 != 1"),
    (BaseRing(6), [(4, (0,)), (1, (1,))], "factor order 4 does not divide ring modulus 6"),
    (BaseRing(12), [(6, (1,)), (0, (0,)), (1, (0,))],
     "factor order 0 does not divide ring modulus 12"),
])
def test_module_construction_errors(ring, factors, message):
    with pytest.raises(AlgebraError) as info:
        GradedModule(ring, Z2G, factors)
    assert type(info.value) is AlgebraError and str(info.value) == message


PRESENTATION_GROUPS = ((1,), (2,), (3,), (2, 2))
PRESENTATION_MODULI = (0, 2, 6, 12, 10**12)
# factor orders: over Z, 0, 2-12 and near 10^12; over Z/n, the divisors of n
# among 2-12, 10^6, 5*10^11 and 10^12; invalid, 1 and negatives, and orders
# that do not divide n
ONE_IN_TEN = st.sampled_from((False,) * 9 + (True,))
BAD_ORDERS = st.one_of(st.integers(-3, 1), st.sampled_from((5, 7, 8, 10**12 - 1)))


def factor_orders(modulus: int):
    if modulus == 0:
        return st.one_of(st.sampled_from((0, *range(2, 13))),
                         st.integers(10**12 - 3, 10**12 + 3))
    return st.sampled_from([d for d in (*range(2, 13), 10**6, 5 * 10**11, 10**12)
                            if modulus % d == 0])


@st.composite
def presentations(draw):
    """(ring, group, factors, generators): 0-4 factors, about one in ten with
    an invalid order and one in ten with a degree of the wrong arity, the
    degree entries negative or past the group's orders as often as not; and
    0-2 generators with entries up to 10^12 in size."""
    modulus = draw(st.sampled_from(PRESENTATION_MODULI))
    ring, group = BaseRing(modulus), GradingGroup(draw(st.sampled_from(PRESENTATION_GROUPS)))
    arity = len(group.cyclic_orders)
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        bad_order, bad_arity = draw(ONE_IN_TEN), draw(ONE_IN_TEN)
        order = draw(BAD_ORDERS if bad_order else factor_orders(modulus))
        size = draw(st.sampled_from((0, arity + 1))) if bad_arity else arity
        degree = draw(st.lists(st.integers(-7, 7), min_size=size, max_size=size))
        factors.append((order, tuple(degree)))
    vector = st.tuples(*[st.integers(-(10**12), 10**12)] * len(factors))
    return ring, group, factors, draw(st.lists(vector, max_size=2))


def built(make):
    try:
        return make()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(presentations())
@example((BaseRing(6), Z2G, [(4, (0,)), (2, (0, 1))], []))  # arity before order
@example((Z, GradingGroup((2, 2)), [(0, (-1, 5)), (10**12, (3, -4)), (4, (1, 1))], []))
def test_module_construction_matches_the_reference(case):
    ring, group, factors, gens = case
    want = built(lambda: oracles.module_fields(ring, group, factors))
    M = built(lambda: GradedModule(ring, group, factors))
    if not isinstance(M, GradedModule):
        assert M == want
        return
    reduced, slots, moduli, key_hash = want
    assert M.factors == reduced and list(M.slots.items()) == slots
    assert M.degrees == tuple(g for g, _ in slots)
    assert {g: M.moduli_rows(g) for g in M.degrees} == moduli
    again = GradedModule(ring, group, reduced)
    assert M == again and again == M and M != GradedModule(BaseRing(7), group, [])
    assert hash(M) == hash((ring, group, reduced)) == key_hash == hash(again)
    N = M.submodule(gens)
    assert hash(N) == hash((M, N.blocks)) == hash(again.submodule(gens))
    assert N == again.submodule(gens)


def test_submodule_generator_arity_error():
    M = GradedModule(Z, Z2G, [(2, (0,)), (0, (1,))])
    with pytest.raises(ModuleMismatchError, match=r"^vector arity 3 != 2 factors$"):
        M.submodule([(1, 2), (1, 2, 3)])


# the oracle corpus, free factors, Z/n rings and mixed degrees
PARITY_MODULES = oracles.oracle_corpus() + [
    zxz(),
    GradedModule(Z, Z2G, [(0, (0,)), (4, (1,)), (0, (1,))]),
    GradedModule(Z, GradingGroup((3,)), [(12, (0,)), (0, (1,)), (9, (2,)), (0, (0,))]),
    GradedModule(BaseRing(10**12), Z2G, [(10**12, (0,)), (10**6, (1,)), (4, (0,))]),
    GradedModule(Z, GradingGroup((2, 2)), [(0, (1, 1)), (6, (0, 0)), (3, (1, 1))]),
]
# small entries, zeros and entries within 10 of +-10^12
ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.integers(10**12 - 10, 10**12 + 10),
    st.integers(-(10**12) - 10, -(10**12) + 10),
)


@st.composite
def modules_with_generators(draw):
    M = draw(st.sampled_from(PARITY_MODULES))
    gens = draw(st.lists(st.tuples(*[ENTRIES] * M.rank), max_size=4))
    for k, v in enumerate(gens):  # some generators project to zero in one degree
        if draw(st.booleans()):
            v, scale = list(v), draw(st.sampled_from((0, 1, -(10**12))))
            for i in M.slots[draw(st.sampled_from(M.degrees))]:
                v[i] = scale * M.factors[i][0]
            gens[k] = tuple(v)
    return M, gens


# one- and two-column degrees, free and finite, over Z and Z/10^12
NEAR = 10**12 - 1
BIG_ENTRY_MODULES = [
    GradedModule(Z, Z2G, [(0, (0,)), (0, (1,)), (6, (1,))]),
    GradedModule(BaseRing(10**12), Z2G, [(10**12, (1,)), (10**12, (0,)), (5 * 10**11, (0,))]),
]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(modules_with_generators())
@example((BIG_ENTRY_MODULES[0], [(NEAR, 0, 0), (0, -NEAR, NEAR + 2), (0, 10**12, 6)]))
@example((BIG_ENTRY_MODULES[1], [(NEAR, -NEAR, 0), (0, NEAR + 1, 10**12), (10**12, 0, 7)]))
@example((BIG_ENTRY_MODULES[1], [(0, 10**12, 5 * 10**11)]))  # zero in both degrees
# unreduced generators: negative entries and entries near 10^12 in small
# torsion slots, in one-, two- and three-column degrees
@example((GradedModule(Z, Z2G, [(9, (1,)), (4, (0,)), (6, (0,))]),
          [(-(10**12) - 7, -3, 10**12 + 5), (10**12 + 1, -(10**12) + 1, -1)]))
@example((GradedModule(Z, Z2G, [(4, (0,)), (6, (0,)), (8, (0,))]),
          [(-(10**12) + 3, 10**12 + 1, -5), (-1, -(10**12), NEAR)]))
@example((GradedModule(BaseRing(12), Z2G, [(4, (0,)), (6, (1,))]), [(-5, -(10**12) - 1)]))
def test_submodule_blocks_match_the_component_route(case):
    M, gens = case
    assert M.submodule(gens).blocks == oracles.component_blocks(M, gens)


def test_generator_vectors_match_the_embedding_route_on_the_oracle_corpus():
    subs = [N for M in oracles.oracle_corpus() for N in enumerate_submodules(M)]
    for N in subs:
        assert N.generator_vectors() == oracles.embedded_generator_vectors(N), N


@st.composite
def generated_modules_with_generators(draw):
    M = draw(st.one_of(finite_modules(), modules_with_free_factors()))
    return M, draw(st.lists(st.tuples(*[ENTRIES] * M.rank), max_size=3))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(modules_with_generators(), generated_modules_with_generators()))
@example((BIG_ENTRY_MODULES[1], [(NEAR, -NEAR, 0), (0, NEAR + 1, 10**12)]))
def test_generator_vectors_match_the_embedding_route(case):
    M, gens = case
    N = M.submodule(gens)
    assert N.generator_vectors() == oracles.embedded_generator_vectors(N)


def test_is_full_reads_the_colon():
    # (N : M) is the unit ideal exactly when every block is the identity
    subs = [N for M in oracles.oracle_corpus() for N in enumerate_submodules(M)]
    subs += [GradedModule(ring, Z2G, []).zero_submodule for ring in (Z, BaseRing(6))]
    M = GradedModule(Z, Z2G, [(0, (0,)), (4, (0,)), (6, (1,))])
    pick = random.Random(15)
    for _ in range(200):
        gens = [tuple(pick.randint(-6, 6) for _ in range(3)) for _ in range(pick.randint(0, 3))]
        subs.append(M.submodule(gens))
    subs += [M.full_submodule, M.submodule([(1, 1, 0), (0, 3, 1), (0, 2, 0)])]
    assert sum(N.is_full for N in subs) > len(oracles.oracle_corpus()) + 3
    for N in subs:
        assert N.is_full == oracles.identity_blocks_full(N), (N.module.text(), N.text())


def test_homogeneous_decomposition():
    M = zxz()
    comps = M.homogeneous_components((3, -2))
    assert comps == {(0,): (3, 0), (1,): (0, -2)}
    assert oracles.is_homogeneous(M, (3, 0))
    assert not oracles.is_homogeneous(M, (3, 1))
    assert oracles.degree_of(M, (0, 5)) == (1,)
    assert oracles.degree_of(M, (0, 0)) is None
    # decomposition sums back to the element
    for _ in range(20):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        total = (0, 0)
        for comp in M.homogeneous_components(v).values():
            total = tuple(a + b for a, b in zip(total, comp))
        assert total == M.reduce_vector(v)


def test_vector_reduction_arity():
    M = zxz()
    with pytest.raises(ModuleMismatchError):
        M.reduce_vector((1, 2, 3))


# -- submodule canonical form ----------------------------------------------


def test_submodule_from_generators_examples():
    M = zxz()
    # gcd(4, 6) = 2 in the degree-0 block
    N = M.submodule([(4, 0), (6, 0)])
    assert N == M.submodule([(2, 0)])
    assert N.text() == "(2,0)"
    # empty generators give the zero submodule
    assert M.submodule([]).is_zero
    # a mixed generator splits into homogeneous components
    full = M.submodule([(1, 1)])
    assert full.is_full


def test_canonical_form_soundness_random():
    corpus = [
        zmod_module(6),
        zmod_module(8),
        GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))]),
        GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))]),
        GradedModule(BaseRing(12), Z2G, [(12, (0,)), (2, (1,))]),
    ]
    for M in corpus:
        elems = M.elements()
        for _ in range(25):
            gens_a = [elems[rng.randrange(len(elems))] for _ in range(rng.randint(0, 3))]
            gens_b = [elems[rng.randrange(len(elems))] for _ in range(rng.randint(0, 3))]
            A, B = M.submodule(gens_a), M.submodule(gens_b)
            same_span = oracles.span_closure(M, gens_a) == oracles.span_closure(M, gens_b)
            assert (A == B) == same_span, (M.text(), gens_a, gens_b)
            assert A.element_set() == oracles.span_closure(M, gens_a)


def test_lattice_ops_examples():
    M = zxz()
    N = M.submodule([(4, 0)])
    N2 = M.submodule([(0, 4)])
    # the intersection from the worked two-factor example is zero
    assert N.intersect(N2).is_zero
    assert N.plus(M.zero_submodule) == N
    assert M.submodule([(4, 0), (6, 0)]).contains_element((2, 0))
    assert not N.contains_element((2, 0))
    assert N.plus(N2) == M.submodule([(4, 4)])  # mixed generator splits


def test_lattice_ops_against_closure_oracle():
    M = GradedModule(Z, Z2G, [(4, (0,)), (6, (1,))])
    elems = M.elements()
    for _ in range(15):
        ga = [elems[rng.randrange(len(elems))] for _ in range(2)]
        gb = [elems[rng.randrange(len(elems))] for _ in range(2)]
        A, B = M.submodule(ga), M.submodule(gb)
        ea, eb = A.element_set(), B.element_set()
        assert A.plus(B).element_set() == oracles.span_closure(M, list(ea | eb))
        assert A.intersect(B).element_set() == ea & eb
        assert A.contains(B) == (eb <= ea)
        assert (A == B) == (ea == eb)


def test_lattice_memo_matches_fresh_module():
    # every pair on Z4@0 + Z8@1 + Z2@0 against the same pair on an equal
    # fresh module, whose memo holds nothing yet
    M = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))])
    subs = enumerate_submodules(M)
    for N in subs:
        for N2 in subs:
            for op in ("plus", "intersect"):
                got = getattr(N, op)(N2)
                fresh = GradedModule(Z, Z2G, M.factors)
                F, F2 = GradedSubmodule(fresh, N.blocks), GradedSubmodule(fresh, N2.blocks)
                assert getattr(F, op)(F2).blocks == got.blocks


def test_one_enumeration_per_module():
    # the bound is checked outside the memo, so every bound, the default
    # included, and the lattice table share one enumeration of M
    M = GradedModule(Z, Z2G, [(4, (0,)), (2, (1,))])
    table = lattice(M, 64)
    subs = enumerate_submodules(M)
    assert table.subs is subs and lattice(M) is table
    assert enumerate_submodules(M, bound=M.size) is subs
    assert sum(value == subs for value in M.memo.values()) == 1
    with pytest.raises(EnumerationBoundError):
        lattice(M, M.size - 1)


def test_lattice_table_against_hnf_route():
    # the table's meet, join and containment against intersect, plus and
    # contains through HNF, on every pair; the masks against the elements
    models = sorted((Path(__file__).parent.parent / "models").glob("*.gps"))
    corpus = [parse_model(p.read_text()).module for p in models]
    extra = [[(4, (0,)), (8, (1,)), (2, (0,))], [(6, (0,))] * 2, [(32, (0,))] * 2]
    modules = [M for M in corpus if M.is_finite] + [GradedModule(Z, Z2G, f) for f in extra]
    assert len(modules) == 15
    for M in modules:
        subs, lat = enumerate_submodules(M), lattice(M)
        assert lat.subs == subs and lattice(M) is lat
        if M.size <= 64:
            elements = M.elements()
            for N, mask in zip(subs, lat.masks):
                assert mask == sum(1 << k for k, v in enumerate(elements) if N.contains_element(v))
        for i, A in enumerate(subs):
            assert lat.position[A] == i and lat.index[lat.masks[i]] == i
            for j, B in enumerate(subs):
                assert subs[lat.meet(i, j)] == A.intersect(B), (M.text(), A, B)
                assert subs[lat.join(i, j)] == A.plus(B), (M.text(), A, B)
                assert bool(lat.up[j] >> i & 1) == A.contains(B), (M.text(), A, B)


def test_module_memo_matches_fresh_module():
    # every other value memoised on the module: a repeated call returns the
    # identical memoised data (the radical's and witness's blocks, wrapped
    # afresh) and adds no entry, an equal fresh module gives an equal value
    for factors in ([(4, (0,)), (2, (1,))], [(6, (0,))], [(2, (0,)), (2, (0,))]):
        M, fresh = GradedModule(Z, Z2G, factors), GradedModule(Z, Z2G, factors)
        subs = enumerate_submodules(M)
        assert enumerate_submodules(M) is subs and enumerate_submodules(fresh) == subs
        assert enumerate_submodules(M, bound=64) is enumerate_submodules(M, bound=64)
        for N in subs:
            F = GradedSubmodule(fresh, N.blocks)
            for g in M.degrees:
                inv = N.quotient_invariants(g)
                assert N.quotient_invariants(g) is inv and F.quotient_invariants(g) == inv
            assert N.colon() is N.colon() and F.colon() == N.colon()
            if N.is_proper:
                r, entries = graded_radical(N), len(M.memo)
                again = graded_radical(N)
                assert again == r and again.submodule.blocks is r.submodule.blocks
                assert len(M.memo) == entries and graded_radical(F) == r
        m, entries = is_multiplication(M), len(M.memo)
        again = is_multiplication(M)
        assert again == m and len(M.memo) == entries and is_multiplication(fresh) == m
        if m.witness is not None:
            assert again.witness.blocks is m.witness.blocks
        assert is_cancellation(M) is is_cancellation(M)
        assert is_cancellation(fresh) == is_cancellation(M)
        sp, sp2 = build_space(M), build_space(fresh)
        assert build_space(M) is sp
        assert build_space(M, kind=PSPEC, bound=64) is build_space(M, bound=64, kind=PSPEC)
        fields = ("points", "closed_masks", "witnesses", "base", "radicals")
        assert [getattr(sp2, f) for f in fields] == [getattr(sp, f) for f in fields]
        rho, rho2 = analyze_natural_map(M), analyze_natural_map(fresh)
        assert analyze_natural_map(M) is rho
        fields = ("reduced", "images", "injective", "surjective", "continuity_ok",
                  "image_identities_ok", "open_closed", "homeomorphism", "fibers")
        assert [getattr(rho2, f) for f in fields] == [getattr(rho, f) for f in fields]


def test_one_memo_entry_per_call_however_spelled():
    # defaults and keywords reach one memoised body, so every spelling of a
    # call shares one space and one analysis, and their varieties agree
    M = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,))])
    sp = build_space(M)
    assert build_space(M, PSPEC, 20000) is sp
    assert build_space(M, PSPEC, bound=20000) is sp
    assert analyze_natural_map(M) is analyze_natural_map(M, PSPEC, 20000)
    assert analyze_natural_map(M).space is sp
    for N in enumerate_submodules(M):
        assert variety(build_space(M), N) == variety(analyze_natural_map(M).space, N)


def _use_every_memo(M):
    for N in enumerate_submodules(M):
        if N.is_proper:
            graded_radical(N)
    is_multiplication(M)
    build_space(M)
    analyze_natural_map(M)


def test_memo_is_freed_with_its_module():
    # derived values live in the module's own memo, so nothing outside it
    # keeps the module alive once its last reference goes
    M = GradedModule(Z, Z2G, [(4, (0,)), (2, (1,))])
    _use_every_memo(M)
    ref = weakref.ref(M)
    del M
    gc.collect()
    assert ref() is None


def test_memo_keys_hold_blocks_not_modules():
    M = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))])
    # equal submodules built apart share one entry per query
    N, twin = M.submodule([(2, 0, 0)]), M.submodule([(6, 0, 0), (4, 0, 0)])
    assert N == twin and N is not twin
    for query in (GradedSubmodule.colon, GradedSubmodule.colon_radical, graded_radical,
                  lambda X: X.quotient_invariants((1,))):
        query(N)
        entries = len(M.memo)
        query(twin)
        assert len(M.memo) == entries
    # distinct submodules never share one: one colon entry per submodule
    subs = enumerate_submodules(M)
    for X in subs:
        X.colon()
    colon = GradedSubmodule.colon.__wrapped__
    assert sum(key[0] is colon for key in M.memo) == len(subs) == 32
    # on the query path no key holds a submodule, and no key ever holds M
    assert not any(isinstance(part, GradedSubmodule) for key in M.memo for part in key)
    _use_every_memo(M)
    assert not any(part is M for key in M.memo for part in key)


def _ask_every_query(modulus, group, factors, gens):
    """Build M and N from plain data, ask every query of the query path and
    return a weak reference to M: nothing else leaves the call."""
    M = GradedModule(BaseRing(modulus), GradingGroup(group), factors)
    N = M.submodule(gens)
    for g in M.degrees:
        N.quotient_invariants(g)
    ideal_times_module(N.colon(), M)
    N.colon_radical()
    for query in (is_graded_prime, is_graded_primary, graded_radical, in_primary_spectrum):
        try:
            query(N)
        except AlgebraError:  # N = M, or an unknown radical: refusals are answers too
            pass
    is_multiplication(M)
    is_cancellation(M)
    return weakref.ref(M)


def _collector_frees(modules):
    """Ask every query on each module of `modules`, given as plain data, and
    return the modules still alive afterwards together with the number of
    objects the cyclic collector freed, in automatic collections while the
    queries ran and in a full collection after them.  gc.callbacks reports
    the automatic collections, so the count is exact with the collector on."""
    gc.collect()
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    gc.callbacks.append(count)
    try:
        refs = [_ask_every_query(*data) for data in modules]
    finally:
        gc.callbacks.remove(count)
    alive = [data for data, ref in zip(modules, refs) if ref() is not None]
    return alive, sum(freed) + gc.collect()


QUERY_PATH_MODULES = (
    # free factors with entries near 10^12, in one degree and in two
    (0, (2,), [(0, (0,)), (0, (1,))], [(10**12, 0), (0, 999999999989)]),
    (0, (2,), [(0, (0,)), (0, (0,)), (6, (1,))], [(10**12, 2 * 10**12 + 6, 3)]),
    (0, (2,), [(0, (0,))], [(948657719435,)]),
    # Z/n with n past DEFAULT_ENUM_BOUND, alone and beside a small factor
    (0, (2,), [(1000003 * 1000033, (0,))], [(1000003,)]),
    (0, (2,), [(408904141936, (0,)), (8, (1,))], [(16 * 91081, 2)]),
    (1000003 * 2, (2,), [(1000003 * 2, (0,))], [(2,)]),
    # small finite modules: prime, primary and neither, N = 0 and N = M
    (0, (2,), [(4, (0,)), (2, (1,))], [(2, 0)]),
    (0, (2,), [(6, (0,))], [(2,)]),
    (0, (2,), [(2, (0,)), (2, (0,))], []),
    (12, (2, 2), [(12, (0, 0)), (4, (1, 0)), (6, (0, 1))], [(3, 1, 2)]),
    (0, (3,), [(9, (0,)), (3, (2,))], [(1, 0), (0, 1)]),
)


def test_query_path_leaves_no_cycles():
    # the query path memoises plain data under keys without the module, so
    # reference counting alone frees M, its submodules and its memo
    assert _collector_frees(QUERY_PATH_MODULES) == ([], 0)


@st.composite
def module_data(draw):
    """The plain data of a module of finite_modules() with up to two free
    factors added over Z, and of up to three generators whose free entries
    reach 10^6, so that the colon's generator factors at once."""
    M = draw(finite_modules())
    factors = list(M.factors)
    if M.ring.modulus == 0:
        degrees = draw(st.lists(st.sampled_from(M.group.elements()), max_size=2))
        factors += [(0, d) for d in degrees]
    coords = [st.integers(0, o - 1) if o else st.integers(-(10**6), 10**6) for o, _ in factors]
    gens = draw(st.lists(st.tuples(*coords), max_size=3))
    return M.ring.modulus, M.group.cyclic_orders, factors, gens


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(st.lists(module_data(), min_size=8, max_size=16))
def test_generated_queries_leave_no_cycles(modules):
    # many modules per example: the two full collections cost more than the queries
    assert _collector_frees(modules) == ([], 0)


def test_properness():
    M = zmod_module(6)
    assert M.full_submodule.is_full
    assert not M.full_submodule.is_proper
    assert M.zero_submodule.is_proper
    assert M.submodule([(2,)]).is_proper


# -- colon ideals -----------------------------------------------------------


def test_colon_examples():
    M6 = zmod_module(6)
    assert M6.submodule([(2,)]).colon() == BaseRing(6).ideal(2)
    M = zxz()
    assert M.submodule([(4, 0)]).colon() == Z.ideal(0)
    assert M.full_submodule.colon() == Z.ideal(1)
    assert zmod_module(8).zero_submodule.colon() == BaseRing(8).zero_ideal


def test_colon_exhaustive_on_finite_instances():
    instances = [
        zmod_module(n) for n in (2, 4, 6, 9, 12)
    ] + [
        GradedModule(BaseRing(12), Z2G, [(4, (0,)), (3, (1,))]),
        GradedModule(Z, Z2G, [(2, (0,)), (8, (1,))]),
        GradedModule(Z, Z2G, [(6, (0,)), (6, (0,))]),
    ]
    for M in instances:
        for N in enumerate_submodules(M):
            got = N.colon()
            window = oracles.scalar_window(M)
            assert {r for r in window if got.contains_element(r)} == oracles.colon_oracle(N)


def test_annihilator():
    assert annihilator(zmod_module(8)) == BaseRing(8).zero_ideal
    assert annihilator(GradedModule(Z, Z2G, [(4, (0,)), (6, (1,))])) == Z.ideal(12)
    assert annihilator(zxz()) == Z.ideal(0)


def test_colon_ideals_against_one_submodule_per_colon():
    # every colon contains Ann(M), and each ideal I containing it is the
    # colon of I.M: the divisor list equals the colons of a submodule walk
    models = sorted((Path(__file__).parent.parent / "models").glob("*.gps"))
    corpus = [parse_model(p.read_text()).module for p in models]
    modules = [M for M in corpus if M.is_finite] + [
        *(zmod_module(n) for n in (2, 6, 8, 12, 30)),
        zmod_module(4, BaseRing(12)),
        zmod_module(6, Z),
        GradedModule(BaseRing(12), Z2G, [(4, (0,)), (6, (1,))]),
        GradedModule(Z, Z2G, []),
        GradedModule(BaseRing(6), Z2G, []),
    ]
    assert len(modules) == 22
    for M in modules:
        assert set(colon_ideals(M)) == {N.colon() for N in oracles.one_per_colon(M)}, M.text()
        assert colon_ideals(M) is colon_ideals(M)
    assert colon_ideals(GradedModule(Z, Z2G, [])) == (Z.unit_ideal,)


# -- quotient invariants ----------------------------------------------------


def test_quotient_invariants_examples():
    M = GradedModule(Z, Z2G, [(0, (0,))])
    N = M.submodule([(4,)])
    inv = N.quotient_invariants((0,))
    assert inv.free_rank == 0 and inv.torsion_factors == (4,)
    M2 = zxz()
    inv2 = M2.zero_submodule.quotient_invariants((1,))
    assert inv2.free_rank == 1 and inv2.torsion_factors == ()
    M8 = zmod_module(8)
    inv8 = M8.submodule([(4,)]).quotient_invariants((0,))
    assert inv8.free_rank == 0 and inv8.torsion_factors == (4,)


def test_quotient_invariant_order_multisets():
    instances = [
        zmod_module(8),
        zmod_module(12),
        GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))]),
        GradedModule(Z, Z2G, [(2, (0,)), (9, (1,))]),
    ]
    for M in instances:
        for N in enumerate_submodules(M):
            for g in M.degrees:
                inv = N.quotient_invariants(g)
                predicted = oracles.invariant_order_multiset(
                    inv.free_rank, inv.torsion_factors
                )
                assert predicted == oracles.quotient_order_multiset(M, N, g)


def test_annihilator_set_fact():
    # achievable element annihilators of M_g/N_g are exactly the divisors > 1
    # of some torsion factor, plus (0) iff there is a free part
    M = GradedModule(Z, Z2G, [(4, (0,)), (6, (0,))])
    for N in enumerate_submodules(M):
        inv = N.quotient_invariants((0,))
        orders = set(oracles.quotient_order_multiset(M, N, (0,)))
        predicted = {
            d
            for t in inv.torsion_factors
            for d in range(1, t + 1)
            if t % d == 0
        } | {1}
        assert orders == predicted


# -- enumeration ------------------------------------------------------------


def test_enumerate_z6():
    M = zmod_module(6)
    subs = enumerate_submodules(M)
    texts = [s.text() for s in subs]
    assert texts == ["0", "3Z6", "2Z6", "Z6"]
    assert [s.size() for s in subs] == [1, 2, 3, 6]


def test_enumerate_two_degrees():
    M = GradedModule(Z, Z2G, [(2, (0,)), (2, (1,))])
    subs = enumerate_submodules(M)
    assert len(subs) == 4  # two choices per degree


def test_enumerate_guards():
    with pytest.raises(InfiniteEnumerationError):
        enumerate_submodules(zxz())
    with pytest.raises(EnumerationBoundError):
        enumerate_submodules(zmod_module(6), bound=5)


def test_enumerate_completeness_against_subgroup_oracle():
    # every graded subgroup appears, and nothing else
    instances = [
        GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))]),
        GradedModule(Z, Z2G, [(2, (0,)), (2, (0,))]),
        GradedModule(Z, GradingGroup((2, 2)), [(2, (1, 0)), (2, (0, 1))]),
        zmod_module(12),
    ]
    for M in instances:
        enumerated = {s.element_set() for s in enumerate_submodules(M)}
        graded = {
            H for H in oracles.all_subgroups(M) if oracles.is_graded_subset(M, H)
        }
        assert enumerated == graded, M.text()


def test_direct_enumeration_matches_bfs_oracle():
    # identical lattices, wherever the BFS is affordable; the order within a
    # block is not an output, since _submodules sorts the product
    for orders in [
        (2, 2, 2, 2), (4, 8, 2), (3, 3, 3, 3), (6, 10), (9, 3),
        (6, 6), (4, 8), (12,), (5, 25), (2,),
    ]:
        assert sorted(_enumerate_block_subgroups(orders)) == oracles.bfs_block_subgroups(orders)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_enumeration_counts_closed_forms():
    # sizes the BFS oracle cannot reach, counted by closed formulas
    def count(orders):
        return len(enumerate_submodules(GradedModule(Z, Z2G, [(o, (0,)) for o in orders])))

    # elementary abelian p-groups: the sum of the Gaussian binomials
    for p, n in [(2, 1), (2, 5), (2, 6), (3, 4), (3, 5), (5, 3)]:
        expected = sum(_gaussian_binomial(n, k, p) for k in range(n + 1))
        assert count((p,) * n) == expected, (p, n)
    # Z_{p^m} x Z_{p^n} with m <= n
    for p, m, n in [(2, 5, 5), (2, 6, 6), (2, 2, 3), (3, 1, 2), (5, 1, 3), (3, 2, 4)]:
        expected = sum((n - m + 2 * i + 1) * p ** (m - i) for i in range(m + 1))
        assert count((p**m, p**n)) == expected, (p, m, n)
    assert (count((2,) * 6), count((32, 32)), count((64, 64))) == (2825, 177, 367)


def test_graded_iff_degreewise_subgroups():
    # the structural simplification: with a trivially graded ring, a subgroup
    # is a graded submodule iff it is a product of per-degree subgroups
    M = GradedModule(Z, Z2G, [(4, (0,)), (2, (1,))])
    for H in oracles.all_subgroups(M):
        per_degree_product = True
        parts = {}
        for g in M.degrees:
            parts[g] = {x for x in H if all(x[i] == 0 for i in range(2) if i not in M.slots[g])}
        rebuilt = {
            M.reduce_vector(tuple(a + b for a, b in zip(x, y)))
            for x in parts[(0,)]
            for y in parts[(1,)]
        }
        per_degree_product = rebuilt == H
        assert per_degree_product == oracles.is_graded_subset(M, H)


# -- ideal times module -----------------------------------------------------


def test_ideal_times_module():
    M6 = zmod_module(6)
    assert ideal_times_module(BaseRing(6).ideal(2), M6) == M6.submodule([(2,)])
    assert ideal_times_module(BaseRing(6).zero_ideal, M6).is_zero
    M = zxz()
    assert ideal_times_module(Z.ideal(3), M) == M.submodule([(3, 0), (0, 3)])
    # the diagonal blocks are the HNF of the generators c e_i, byte for byte,
    # with mixed degrees, free factors and c sharing part of each order
    for ring, factors in (
        (Z, [(0, (0,)), (12, (1,)), (8, (0,)), (9, (1,)), (0, (1,))]),
        (BaseRing(72), [(72, (0,)), (8, (0,)), (9, (1,)), (6, (1,))]),
    ):
        M = GradedModule(ring, Z2G, factors)
        for c in (0, 1, 2, 3, 4, 6, 8, 12, 18, 24, 36, 72):
            unit = [tuple(c * (j == i) for j in range(len(factors))) for i in range(len(factors))]
            got = ideal_times_module(ring.ideal(c), M)
            assert got.blocks == M.submodule(unit).blocks, (ring, c)
            # memoised with M: a second call wraps the same blocks, adding no entry
            entries = len(M.memo)
            assert ideal_times_module(ring.ideal(c), M).blocks is got.blocks
            assert len(M.memo) == entries


# -- quotient modules -------------------------------------------------------


def test_quotient_module_examples():
    M = GradedModule(Z, Z2G, [(0, (0,))])
    Q, proj = quotient_module(M, M.submodule([(4,)]))
    assert Q.factors == ((4, (0,)),)
    M2 = zxz()
    Q2, _ = quotient_module(M2, M2.submodule([(4, 0)]))
    assert Q2.factors == ((4, (0,)), (0, (1,)))
    Q3, proj3 = quotient_module(M2, M2.zero_submodule)
    assert Q3 == M2
    assert oracles.forward_map(proj3)((3, 5)) == (3, 5)


def test_quotient_projection_properties():
    M = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,))])
    for K in enumerate_submodules(M):
        Q, proj = quotient_module(M, K)
        # kernel is exactly K
        assert proj.preimage_submodule(Q.zero_submodule) == K
        # projection is additive, degree-preserving, surjective
        apply = oracles.forward_map(proj)
        for _ in range(10):
            a = M.elements()[rng.randrange(M.size)]
            b = M.elements()[rng.randrange(M.size)]
            assert apply(oracles.vec_add(M, a, b)) == oracles.vec_add(Q, apply(a), apply(b))
        images = {apply(v) for v in M.elements()}
        assert images == set(Q.elements())
        # preimage then image round-trips on submodules of the quotient
        for N2 in enumerate_submodules(Q):
            pulled = proj.preimage_submodule(N2)
            assert oracles.image_submodule(proj, pulled) == N2
            assert pulled.contains(K)


def test_quotient_maps_match_the_fresh_target_oracle():
    # the shared presentation and the preimage K + lift(N2) against the
    # projection that built a fresh target per kernel and lifted the
    # collapsed columns as unit rows: every kernel of three finite modules,
    # and fixed kernels of Z@0 x Z4@1 with images of fixed submodules
    cases = []
    for M in (GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))]),
              GradedModule(Z, Z2G, [(4, (0,)), (6, (0,))]),
              GradedModule(Z, Z2G, [(2, (0,))] * 3)):
        subs = enumerate_submodules(M)
        cases += [(M, K, subs, M.elements()) for K in subs]
    M = GradedModule(Z, Z2G, [(0, (0,)), (4, (1,))])
    subs = [M.submodule(gens) for gens in
            ([], [(6, 0)], [(0, 2)], [(3, 1)], [(2, 0), (0, 1)], [(1, 0), (0, 1)])]
    vecs = [(a, b) for a in (-7, 0, 1, 5, 12) for b in range(4)]
    cases += [(M, K, subs, vecs) for K in subs]
    for M, K, subs, vecs in cases:
        proj, fresh = QuotientMap(M, K), oracles.FreshQuotientMap(M, K)
        assert proj.target == fresh.target, (M, K)
        apply = oracles.forward_map(proj)
        assert [apply(v) for v in vecs] == [fresh.apply(v) for v in vecs]
        images = [oracles.image_submodule(proj, N) for N in subs]
        assert images == [fresh.image_submodule(N) for N in subs], (M, K)
        T = proj.target
        for N2 in enumerate_submodules(T) if T.is_finite else images:
            assert proj.preimage_submodule(N2) == fresh.preimage_submodule(N2), (M, K, N2)


def test_quotient_preserves_degrees():
    M = GradedModule(Z, GradingGroup((2, 2)), [(4, (1, 0)), (6, (0, 1))])
    K = M.submodule([(2, 0)])
    Q, proj = quotient_module(M, K)
    # quotient factors come out grouped by degree in sorted degree order
    assert Q.factors == ((6, (0, 1)), (2, (1, 0)))
    apply = oracles.forward_map(proj)
    for v in M.elements():
        w = apply(v)
        comps_v = set(M.homogeneous_components(v))
        comps_w = set(Q.homogeneous_components(w))
        assert comps_w <= comps_v


# -- value semantics ------------------------------------------------------------


def test_values_are_immutable():
    from gpspec.harness import CATALOG
    from gpspec.spectra import Trilean

    values = (Z, Z2G, Z.ideal(2), Trilean.yes(), CATALOG[0],
              analyze_natural_map(zmod_module(6)))
    for value in values:
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert not hasattr(value, "__dict__")


def test_values_compare_and_hash_by_class_and_fields():
    from gpspec.maps import ReducedRing
    from gpspec.spectra import Trilean

    assert BaseRing(0) == Z and hash(BaseRing(0)) == hash(Z) == hash((0,))
    assert Z.ideal(2) == Z.ideal(-2) and hash(Z.ideal(2)) == hash(Z.ideal(-2))
    for ring, gen in ((Z, 0), (Z, 6), (BaseRing(12), 4)):
        assert hash(ring.ideal(gen)) == hash((ring, gen))
    assert GradingGroup((2,)) == Z2G and hash(Z2G) == hash(((2,),))
    assert Z.ideal(2) != BaseRing(2) and Z.ideal(2) != BaseRing(12).ideal(2)
    assert Trilean(False, witness=3) == Trilean.no(3) != Trilean.no(4)
    assert hash(Trilean.no(3)) == hash((False, 3, ""))
    rr = ReducedRing(Z, Z.ideal(6), BaseRing(6))
    assert rr == ReducedRing(source=Z, ann=Z.ideal(6), ring=BaseRing(6))
    assert repr(rr) == "ReducedRing(source=BaseRing(modulus=0), ann=Ideal(Z, (6)), " \
        "ring=BaseRing(modulus=6))"


def test_value_constructors_keep_their_signatures():
    import copy
    import pickle

    from gpspec.harness import Check
    from gpspec.maps import ReducedRing
    from gpspec.spectra import RadicalResult, Trilean
    from gpspec.topology import TopologyReport

    assert Ideal(ring=Z, gen=4) == Ideal(Z, 4)
    assert Trilean(None, reason="r").reason == "r" and Trilean(True).witness is None
    assert RadicalResult("unknown", reason="r").strategies == ()
    check = Check("x", "title", len)
    assert check.requires == () and Check("x", "title", len, requires=(len,)).requires
    flags = dict.fromkeys(TopologyReport.__slots__[:9], True)
    report = TopologyReport(**flags, components=(1,), generic_points=())
    assert report.connected and report.components == (1,)
    for bad in ((Z,), (Z, Z.ideal(0), Z, Z)):
        with pytest.raises(TypeError):
            ReducedRing(*bad)
    with pytest.raises(TypeError):
        ReducedRing(Z, Z.ideal(0), ring=Z, source=Z)
    with pytest.raises(TypeError):
        ReducedRing(Z, Z.ideal(0), Z, extra=1)
    for value in (Ideal(Z, 4), Trilean.no(Z.ideal(3)), check):
        assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_mutable_records_stay_mutable_and_unhashable():
    from gpspec.harness import CheckResult

    result = CheckResult("T2.1", "pass", "z6")
    assert (result.detail, result.vacuous, result.counterexample) == ("", False, None)
    result.detail = "changed"
    assert result == CheckResult("T2.1", "pass", "z6", detail="changed")
    model = parse_model("group = Z2\nring = Z\nmodule = Z@0\n")
    model.named_submodules["N"] = model.module.zero_submodule
    assert model.named_subsets == {} and model != parse_model(
        "group = Z2\nring = Z\nmodule = Z@0\n")
    for record in (result, model):
        with pytest.raises(TypeError):
            hash(record)


def test_value_invariants_hold_under_optimize():
    # the constructor checks are plain raises, not asserts
    script = (
        "from gpspec.algebra import AlgebraError, BaseRing, GradingGroup, Ideal\n"
        "for make in (lambda: BaseRing(1), lambda: BaseRing(-2), "
        "lambda: Ideal(BaseRing(6), 4), lambda: Ideal(BaseRing(0), -1), "
        "lambda: GradingGroup(())):\n"
        "    try:\n"
        "        make()\n"
        "    except AlgebraError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, cwd=Path(__file__).parent.parent)
    assert proc.returncode == 0, proc.stderr
