"""Property-based checks of the colon, the prime and primary predicates, the
graded radical, primary-spectrum membership and the multiplication and
cancellation tests against the brute-force oracles, on generated finite
modules, of the theorem catalog, its star-variety table and the submodule
lattice on generated models, of the model parser on generated models and
mutated corpus text, of `gps` on generated enumeration bounds, and three metamorphic relations:
`gps` on a model whose named submodule is written by other generators
answers byte for byte alike, and a module with a factor Z_ab split into
Z_a x Z_b (a, b coprime), or with its factors permuted and its degrees
moved by an automorphism of the grading group, keeps its spectra's sizes,
its topology flags and the catalog's answers.

The examples are derandomized, so every run checks the same inputs.
"""

import io
import sys
import tempfile
from functools import cached_property, reduce
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from gpspec.algebra import (
    DEFAULT_ENUM_BOUND,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    enumerate_submodules,
    ideal_times_module,
    quotient_module,
)
from gpspec import algebra, harness, maps, spectra, topology
from gpspec.cli import run
from gpspec.dsl import Model, ParseError, model_text, parse_model
from gpspec.harness import Check, Context, run_checks
from gpspec.spectra import (
    Trilean,
    UnknownResultError,
    graded_radical,
    in_primary_spectrum,
    is_cancellation,
    is_graded_primary,
    is_graded_prime,
    is_multiplication,
)
from gpspec.topology import radical_core

MAX_SIZE = 64
GROUPS = ((2,), (2, 2), (3,))
# Z, and Z/n for composite and prime n: over Z/p the colon of a submodule
# with finite quotient can be the zero ideal
MODULI = (0, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16)
Z_ORDERS = tuple(range(2, 17))


@st.composite
def finite_modules(draw):
    """A finite graded module over Z or Z/n: 1-3 cyclic factors, |M| <= 64,
    graded by Z2, Z2 x Z2 or Z3."""
    modulus = draw(st.sampled_from(MODULI))
    group = GradingGroup(draw(st.sampled_from(GROUPS)))
    allowed = Z_ORDERS if modulus == 0 else [d for d in range(2, modulus + 1) if modulus % d == 0]
    factors, size = [], 1
    for _ in range(draw(st.integers(1, 3))):
        choices = [o for o in allowed if size * o <= MAX_SIZE]
        if not choices:
            break
        order = draw(st.sampled_from(choices))
        factors.append((order, draw(st.sampled_from(group.elements()))))
        size *= order
    return GradedModule(BaseRing(modulus), group, factors)


@st.composite
def proper_submodules(draw):
    """A proper graded submodule, generated by 0-3 arbitrary vectors of a
    generated finite module."""
    M = draw(finite_modules())
    vector = st.tuples(*(st.integers(0, o - 1) for o, _ in M.factors))
    N = M.submodule(draw(st.lists(vector, max_size=3)))
    assume(N.is_proper)
    return N


def oracle_primes_over(N: GradedSubmodule) -> list[GradedSubmodule]:
    return [
        P
        for P in enumerate_submodules(N.module)
        if P.is_proper and P.contains(N) and oracles.prime_oracle(P)[0]
    ]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(proper_submodules())
def test_colon_against_oracle(N):
    colon = N.colon()
    window = oracles.scalar_window(N.module)
    got = {r for r in window if colon.contains_element(r)}
    assert got == oracles.colon_oracle(N), (N.module.ring.text(), N.module.text(), N.text())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(proper_submodules())
def test_prime_and_primary_against_oracles(N):
    case = (N.module.ring.text(), N.module.text(), N.text())
    assert is_graded_prime(N) == oracles.prime_oracle(N)[0], case
    assert is_graded_primary(N) == oracles.primary_oracle(N)[0], case


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(proper_submodules())
def test_radical_against_oracle_prime_intersection(N):
    over = oracle_primes_over(N)
    assert over, (N.module.text(), N.text())  # every proper N lies in a prime
    want = reduce(GradedSubmodule.intersect, over)
    assert graded_radical(N).require() == want, (N.module.text(), N.text())


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(finite_modules(), st.integers(2, 60))
def test_basic_opens_transport_pairs_and_annihilators_against_the_scaled_routes(M, n):
    # the spaces' tables read at (gcd(r, L)) and the exponent, against r.M,
    # I.M and rad(IM : M).M' built as submodules and Ann(M) as (0 : M):
    # every basic open and every closed set V(I) of both spectra, every
    # closed-set pair the induced map of each kernel's projection hands to
    # the map flags, and the annihilator of M and of each projection's
    # target.  The one table builder against the radicals' colon varieties
    # and, on the ring space of Z/n, against the comprehension over the
    # ring's ideals, with closed_set and D_r against the lookup at I itself
    for kind in (topology.PSPEC, topology.SPEC):
        sp = topology.build_space(M, kind)
        assert sp.closed_of == {c: oracles.colon_variety(sp, c)
                                for c in algebra.colon_ideals(M)}, kind
        for r in range(2 * M.exponent + 3):
            assert topology.basic_open(sp, r) == oracles.scaled_basic_open(sp, r), (kind, r)
            I = M.ring.ideal(r)
            assert topology.closed_set(sp, I) == topology.variety(
                sp, ideal_times_module(I, M)), (kind, r)
    ring = BaseRing(n)
    rs = topology.build_ring_space(ring)
    assert rs.closed_of == oracles.ring_closed_table(ring), n
    for r in range(2 * n + 3):
        want = oracles.ring_variety(rs, ring.ideal(r))
        assert topology.closed_set(rs, ring.ideal(r)) == want, (n, r)
        assert topology.basic_open(rs, r) == want ^ rs.full_mask, (n, r)
    library, handed = maps._map_flags, []

    def flags(X, Y, mapping, closed_pairs):
        handed.append(closed_pairs)
        return library(X, Y, mapping, closed_pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_map_flags", flags)
        for K in enumerate_submodules(M):
            f = quotient_module(M, K)[1]
            handed.clear()
            maps.InducedSpectrumMap(f).analyze()
            sp, sp2 = (topology.build_space(N) for N in (M, f.target))
            assert handed == [oracles.scaled_transport_pairs(f, sp, sp2)], K.text()
            assert algebra.annihilator(f.target) == oracles.zero_colon_annihilator(f.target)
    assert algebra.annihilator(M) == oracles.zero_colon_annihilator(M)


@st.composite
def modules_with_free_factors(draw):
    """Some of the factors of a generated finite module, over its ring or
    over Z with zero to two free factors of generated degrees added, the
    factors in a generated order.  At least one factor is drawn: the zero
    module is an explicit example of each test that draws from here."""
    M = draw(finite_modules())
    over_z = draw(st.booleans())
    free = draw(st.integers(0, 2)) if over_z else 0
    ring = BaseRing(0) if over_z else M.ring
    factors = list(M.factors[: draw(st.integers(0 if free else 1, len(M.factors)))])
    factors += [(0, draw(st.sampled_from(M.group.elements()))) for _ in range(free)]
    return GradedModule(ring, M.group, draw(st.permutations(factors)))


def z2_graded(modulus, orders):
    """Over Z or Z/modulus, graded by Z2: Z/o_k in degree k for each order."""
    return GradedModule(BaseRing(modulus), GradingGroup((2,)),
                        [(o, (k,)) for k, o in enumerate(orders)])


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(modules_with_free_factors())
@example(z2_graded(0, []))
@example(z2_graded(6, []))
@example(z2_graded(6, [6]))
@example(z2_graded(8, [8]))
@example(z2_graded(0, [2, 4]))
@example(z2_graded(4, [4, 2]))
@example(z2_graded(6, [6, 2]))
@example(z2_graded(12, [12, 2]))
def test_multiplication_and_cancellation_against_oracles(M):
    case = (M.ring.text(), M.text())
    mult, canc = is_multiplication(M), is_cancellation(M)
    assert not mult.is_unknown and not canc.is_unknown, case
    if mult.is_false:
        N = mult.witness
        assert ideal_times_module(N.colon(), M) != N, case
    if canc.is_false:
        I, J = canc.witness
        assert I != J and ideal_times_module(I, M) == ideal_times_module(J, M), case
    if M.is_finite:
        assert mult.value == oracles.multiplication_oracle(M), case
        assert canc.value == oracles.cancellation_oracle(M), case
        return
    # no oracle enumerates an infinite module: spot-check the positive answers
    if mult.is_true:
        for v in product(range(4), repeat=len(M.factors)):
            N = M.submodule([v])
            assert ideal_times_module(N.colon(), M) == N, (case, v)
    if canc.is_true:
        products = {ideal_times_module(M.ring.ideal(d), M) for d in range(9)}
        assert len(products) == 9, case


@st.composite
def membership_cases(draw):
    """A proper submodule of a generated module, finite or with free
    factors, generated by 0-3 vectors with entries in [-12, 12], and an
    enumeration bound small enough to refuse some radicals."""
    M = draw(st.one_of(finite_modules(), modules_with_free_factors()))
    vector = st.tuples(*(st.integers(-12, 12) for _ in M.factors))
    N = M.submodule(draw(st.lists(vector, max_size=3)))
    assume(N.is_proper)
    return N, draw(st.sampled_from((1, 8, DEFAULT_ENUM_BOUND)))


def membership_outcome(decide, Q, bound):
    try:
        return decide(Q, bound)
    except UnknownResultError:
        return "unknown"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(membership_cases())
@example((z2_graded(0, [4, 4]).zero_submodule, 1))  # primary, radical refused
@example((z2_graded(0, [0, 0]).submodule([(4, 0)]), DEFAULT_ENUM_BOUND))  # not primary
def test_membership_against_the_colon_identity(case):
    Q, bound = case
    assert membership_outcome(in_primary_spectrum, Q, bound) == membership_outcome(
        oracles.colon_identity_membership, Q, bound
    ), (Q.module.ring.text(), Q.module.text(), Q.text(), bound)


# -- the theorem catalog --------------------------------------------------------


@st.composite
def catalog_models(draw):
    """A model of a generated module, with named submodules and subsets."""
    return with_names(draw, draw(modules_with_free_factors()))


def zero_module_model(modulus: int) -> Model:
    """A model of the zero module over Z or Z/modulus, graded by Z2, naming
    its one submodule and a subset of it."""
    M = z2_graded(modulus, [])
    return Model(M.group, M.ring, M, {"N": M.zero_submodule}, {"Y": ["N"]})


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(catalog_models())
@example(zero_module_model(0))  # R/ann(M) is the zero ring: 15 checks skip
@example(zero_module_model(6))
def test_catalog_passes_or_skips_on_generated_models(model):
    bad = [(r.check_id, r.status, r.detail) for r in run_checks(model)
           if r.status not in ("pass", "skip")]
    assert not bad, (model.ring.text(), model.module.text(), bad)


def catalog_outcomes(model: Model) -> list[tuple]:
    """(check_id, status, detail) of every check, from an empty memo."""
    model.module.memo.clear()
    return [(r.check_id, r.status, r.detail) for r in run_checks(model)]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_catalog_is_unchanged_with_the_colon_identity_membership(model):
    # the differential half of the catalog property: the library's membership
    # test swapped for the one that re-checks the colon identity
    want, asked = catalog_outcomes(model), []

    def membership(Q, bound=DEFAULT_ENUM_BOUND):
        asked.append(Q)
        return oracles.colon_identity_membership(Q, bound)

    library = spectra.in_primary_spectrum
    importers = [module for name, module in list(sys.modules.items())
                 if name.startswith("gpspec") and vars(module).get("in_primary_spectrum") is library]
    assert len(importers) == 2  # spectra and harness
    with pytest.MonkeyPatch.context() as patch:
        for module in importers:
            patch.setattr(module, "in_primary_spectrum", membership)
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    if model.module.is_finite:
        assert asked, model.module.text()  # the swap reached the primary spectrum


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_catalog_is_unchanged_with_the_hnf_star_table_and_radical_core(model):
    # the differential half of the star-table property: the lattice's star
    # table and radical core swapped for one HNF containment per (submodule,
    # point) and a fold of HNF intersections, the table on every module
    # space and the core in every module importing it
    want, asked = catalog_outcomes(model), []

    def hnf_star_masks(space):
        asked.append("star")
        return tuple(oracles.hnf_star_mask(space, N) for N in enumerate_submodules(space.module))

    def hnf_radical_core(space, Y):
        asked.append("core")
        return oracles.hnf_radical_core(space, Y)

    with pytest.MonkeyPatch.context() as patch:
        swapped = cached_property(hnf_star_masks)
        swapped.__set_name__(topology.FiniteSpace, "star_masks")
        patch.setattr(topology.FiniteSpace, "star_masks", swapped)
        importers = [module for key, module in list(sys.modules.items())
                     if key.startswith("gpspec")
                     and vars(module).get("radical_core") is topology.radical_core]
        assert len(importers) == 2  # topology and harness
        for module in importers:
            patch.setattr(module, "radical_core", hnf_radical_core)
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    if model.module.is_finite and model.module.factors:
        assert {"star", "core"} <= set(asked), model.module.text()  # the swap was reached


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_catalog_is_unchanged_with_fresh_quotient_targets(model):
    # the differential half of the shared presentations: every quotient map
    # of the catalog swapped for one that builds a fresh target module per
    # kernel and lifts a preimage from unit rows and moduli rows
    want, asked = catalog_outcomes(model), []

    class Fresh(oracles.FreshQuotientMap):
        def __init__(self, source, kernel):
            asked.append(kernel)
            super().__init__(source, kernel)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "QuotientMap", Fresh)
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    if model.module.is_finite and model.module.factors:
        assert asked, model.module.text()  # the swap was reached


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_catalog_is_unchanged_with_per_call_transport(model):
    # the differential half of the shared pullback table: L2.14, which reads
    # the images of the primary points above each kernel off the table,
    # swapped for the check that pulls back every target point per call,
    # pushes every such point forward by the image route and tests the
    # preimages and images with the membership test
    want, asked = catalog_outcomes(model), []

    def per_call(ctx):
        asked.append(ctx)
        return oracles.per_call_L2_14(ctx)

    catalog = tuple(Check(c.check_id, c.title, per_call, c.requires) if c.check_id == "L2.14"
                    else c for c in harness.CATALOG)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "CATALOG", catalog)
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    if model.module.is_finite:
        assert asked, model.module.text()  # the swap was reached


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_specialization_is_an_equivalence_on_every_built_space(model):
    # why `gps topology --format dot` draws clusters and no edges: on both
    # spectra of a finite module and on its reduced ring's spectrum, every
    # point in the closure of a point has that same closure
    M = model.module
    assume(M.is_finite)
    spaces = [topology.build_space(M, kind) for kind in (topology.PSPEC, topology.SPEC)]
    spaces.append(maps.reduced_ring_space(M))
    for space in spaces:
        closures = topology.specialization_closures(space)
        for i, closure in enumerate(closures):
            for j in range(len(closures)):
                if closure >> j & 1:
                    assert closures[j] == closure, (M.ring.text(), M.text(), i, j)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
def test_catalog_is_unchanged_with_the_map_flags_by_definition(model):
    # the differential half of the shared map flags: injectivity,
    # surjectivity and continuity of both map analyses swapped for their
    # definitions, which must also give the library's witnesses
    want, agreed = catalog_outcomes(model), []
    library = maps._map_flags
    importers = [module for name, module in list(sys.modules.items())
                 if name.startswith("gpspec") and vars(module).get("_map_flags") is library]
    assert importers == [maps]

    def by_definition(X, Y, mapping, closed_pairs):
        flags = oracles.map_flags_oracle(X, Y, mapping, closed_pairs)
        agreed.append(flags == library(X, Y, mapping, closed_pairs))
        return flags

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_map_flags", by_definition)
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    assert all(agreed), model.module.text()
    if model.module.is_finite:
        assert agreed, model.module.text()  # the swap was reached


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(catalog_models())
@example(Model(GradingGroup((2,)), BaseRing(0), z2_graded(0, [4])))  # multiplication over Z
def test_catalog_is_unchanged_with_the_multiplication_and_cancellation_oracles(model):
    # the differential half of the closed forms: is_multiplication and
    # is_cancellation swapped, on finite modules within the bound, for the
    # enumerating oracles, in every module importing them
    want, asked = catalog_outcomes(model), []

    def swap(name, library, oracle):
        def decide(M):
            if not (M.is_finite and M.size <= DEFAULT_ENUM_BOUND):
                return library(M)
            asked.append(name)
            return Trilean(oracle(M))
        return decide

    with pytest.MonkeyPatch.context() as patch:
        for name, oracle, count in (("multiplication", oracles.multiplication_oracle, 3),
                                    ("cancellation", oracles.cancellation_oracle, 2)):
            library = getattr(spectra, f"is_{name}")
            importers = [module for key, module in list(sys.modules.items())
                         if key.startswith("gpspec") and vars(module).get(f"is_{name}") is library]
            assert len(importers) == count, name  # spectra, harness (and topology)
            for module in importers:
                patch.setattr(module, f"is_{name}", swap(name, library, oracle))
        got = catalog_outcomes(model)
    assert got == want, (model.ring.text(), model.module.text())
    M = model.module
    if M.is_finite and M.factors:  # the swap was reached
        assert "multiplication" in asked, M.text()
        if M.ring.modulus == 0 and oracles.multiplication_oracle(M):
            assert "cancellation" in asked, M.text()  # by T2.17


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(catalog_models())
@example(zero_module_model(0))
@example(zero_module_model(6))
def test_star_masks_equal_the_hnf_star_varieties_on_generated_models(model):
    ctx = Context(model, "generated", DEFAULT_ENUM_BOUND, 0)
    assume(ctx.finite)
    for sp in (ctx.pspec, ctx.spec):
        assert sp.star_masks == tuple(oracles.hnf_star_mask(sp, N) for N in ctx.subs), (
            model.ring.text(), model.module.text(), sp.kind)
    for mask in ctx.subset_masks(ctx.pspec):
        assert radical_core(ctx.pspec, mask) == oracles.hnf_radical_core(ctx.pspec, mask), (
            model.module.text(), mask)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(catalog_models())
@example(zero_module_model(6))
def test_lattice_table_agrees_with_the_submodule_operations(model):
    # the one order of the enumeration and the one containment table, held
    # to GradedSubmodule's own contains, plus and intersect on every pair
    M = model.module
    assume(M.is_finite)
    subs, lat = enumerate_submodules(M), algebra.lattice(M)
    keys = [(N.size(), N.blocks) for N in subs]
    assert all(a < b for a, b in zip(keys, keys[1:])), M.text()
    assert len(lat.index) == len(subs)
    assert all(lat.index[mask] == i for i, mask in enumerate(lat.masks)), M.text()
    for i, A in enumerate(subs):
        for j, B in enumerate(subs):
            assert bool(lat.up[j] >> i & 1) == A.contains(B), (M.text(), A, B)
            assert subs[lat.join(i, j)] == A.plus(B), (M.text(), A, B)
            assert subs[lat.meet(i, j)] == A.intersect(B), (M.text(), A, B)


# -- the model parser -----------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
NAMES = st.builds(
    str.__add__, st.sampled_from(_LETTERS), st.text(_LETTERS + "0123456789", max_size=5)
)
CORPUS_TEXTS = [p.read_text() for p in sorted((Path(__file__).parent.parent / "models").glob("*.gps"))]
# characters of the model format, plus a few it never uses
MUTATION_CHARS = "Z0123456789@x=(),{}#- \nabgmnqrsu_\t;*"


@st.composite
def models(draw):
    """A model over Z or Z/n with 1-3 factors (free ones over Z), 0-3 named
    submodules generated by 0-2 vectors each and 0-2 named subsets."""
    modulus = draw(st.sampled_from(MODULI))
    group = GradingGroup(draw(st.sampled_from(GROUPS)))
    if modulus == 0:
        orders = (0,) + Z_ORDERS
    else:
        orders = [d for d in range(2, modulus + 1) if modulus % d == 0]
    factors = [
        (draw(st.sampled_from(orders)), draw(st.sampled_from(group.elements())))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return with_names(draw, GradedModule(BaseRing(modulus), group, factors))


def with_names(draw, M: GradedModule) -> Model:
    """A model of M with 0-3 named submodules generated by 0-2 vectors each
    and 0-2 named subsets, drawn with draw."""
    names = draw(st.lists(NAMES, max_size=5, unique=True))
    vector = st.tuples(*(st.integers(-40, 40) for _ in M.factors))
    submodules = {
        name: M.submodule(draw(st.lists(vector, max_size=2))) for name in names[:3]
    }
    subsets = {}
    if submodules:
        member = st.sampled_from(sorted(submodules))
        for name in names[3:]:
            subsets[name] = draw(st.lists(member, min_size=1, max_size=3))
    return Model(M.group, M.ring, M, submodules, subsets)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(models())
@example(zero_module_model(0))  # `module = 0`, as model_text writes it
@example(zero_module_model(6))
def test_parse_of_render_is_the_identity(model):
    text = model_text(model)
    parsed = parse_model(text)
    assert parsed == model, text
    assert model_text(parsed) == text


@st.composite
def mutated_corpus_texts(draw):
    """A corpus model with 1-4 single-character insertions, deletions or
    replacements, or a line dropped or repeated."""
    text = draw(st.sampled_from(CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "drop", "repeat")))
        lines = text.splitlines(keepends=True)
        if kind in ("drop", "repeat") and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
            text = "".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(MUTATION_CHARS))
        if kind == "insert":
            text = text[:i] + char + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    return text


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated_corpus_texts())
def test_mutated_model_text_raises_only_parse_errors(text):
    try:
        parse_model(text)
    except ParseError:
        pass


# -- the integers gps reads from outside ------------------------------------------

Z6 = str(Path(__file__).parent.parent / "models" / "z6.gps")


@st.composite
def bound_texts(draw):
    """An enumeration bound as a user might write it: a decimal, 0 or
    negative, of up to 8 digits or of 4,300 or 5,000, with a sign, padding or
    underscores between digit groups; or text that is no integer."""
    if draw(st.booleans()):
        return draw(st.text(max_size=12))
    digits = draw(st.sampled_from(("9" * 4300, "9" * 5000)) | st.integers(0, 10**7).map(str))
    width = draw(st.integers(0, 3))  # an underscore after every `width` digits
    if width:
        digits = "_".join(digits[i:i + width] for i in range(0, len(digits), width))
    pad = draw(st.sampled_from(("", " ", "\t", "\n ")))
    return pad + draw(st.sampled_from(("", "+", "-"))) + digits + pad


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(bound_texts())
def test_every_bound_ends_in_a_documented_exit_code(text):
    # the integer half of the contract, through the flag and the variable:
    # pspec on Z6 (|M| = 6) answers under a bound of 6 or more, needs an
    # exact answer it may not enumerate for under 1 to 5, and refuses the
    # input otherwise, never raising and never writing more than one line
    try:
        bound = int(text)
    except ValueError:  # no integer, or past the interpreter's digit limit
        bound = 0
    want = 0 if bound >= 6 else 3 if bound >= 1 else 2
    routes = [({}, [f"--enum-bound={text}"])]
    if "\x00" not in text:  # the environment cannot hold a NUL
        routes.append(({"GPS_ENUM_BOUND": text}, []))
    for env, flag in routes:
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("GPS_ENUM_BOUND", raising=False)
            for name, value in env.items():
                patch.setenv(name, value)
            code = run(["pspec", Z6, *flag], stdout=out, stderr=err)
        assert code == want, (text[:20], flag[:1])
        assert len(err.getvalue().splitlines()) == (code != 0), err.getvalue()[:200]
        assert (out.getvalue() == "") == (code != 0)


# -- metamorphic relations --------------------------------------------------------


def written_with(model: Model, name: str, gens) -> str:
    """The model's text with submodule `name` written by the vectors gens."""
    written = ", ".join("(" + ",".join(map(str, v)) + ")" for v in gens)
    return "".join(f"submodule {name} = {written}\n" if line.startswith(f"submodule {name} =")
                   else line for line in model_text(model).splitlines(keepends=True))


@st.composite
def regenerated_models(draw):
    """Two texts of one generated model and the name of a submodule N that
    the first writes by 1-3 generated vectors and the second by those
    rotated, with a combination a*g + b*h of two of them appended, or with
    one unimodular row operation applied (a row negated, or c != 0 times
    another row added to it; a lone vector to rotate is negated): the same
    N by other generators."""
    model = draw(catalog_models())
    assume(model.named_submodules)
    name = draw(st.sampled_from(sorted(model.named_submodules)))
    vector = st.tuples(*(st.integers(-40, 40) for _ in model.module.factors))
    gens = draw(st.lists(vector, min_size=1, max_size=3))
    rows = [list(g) for g in gens]
    index, scalar = st.integers(0, len(rows) - 1), st.integers(-3, 3)
    kind = draw(st.sampled_from(("rotate", "append", "row")))
    if kind == "rotate" and len(rows) > 1:
        k = draw(st.integers(1, len(rows) - 1))
        rows = rows[k:] + rows[:k]
    elif kind == "append":
        g, h, a, b = draw(index), draw(index), draw(scalar), draw(scalar)
        rows.append([a * x + b * y for x, y in zip(rows[g], rows[h])])
    else:
        i, j = draw(index), draw(index)
        c = draw(scalar.filter(bool))
        rows[i] = [-x for x in rows[i]] if i == j else [x + c * y for x, y in zip(rows[i], rows[j])]
    return written_with(model, name, gens), written_with(model, name, rows), name


def relation_calls(path: str, name: str) -> list[list[str]]:
    """The gps calls compared by the relation, N being named `name`."""
    calls = [["parse", path], ["radical", path, "--submodule", name], ["check", path]]
    for space in ("pspec", "spec"):
        variety = ["variety", path, "--submodule", name, "--space", space]
        calls += [variety, [*variety, "--star"], ["topology", path, "--space", space],
                  ["rho", path, "--space", space]]
    return [[*call, "--format", fmt] for fmt in ("text", "json") for call in calls]


def gps_outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    return run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()


Z4_Z8 = "group = Z2\nring = Z\nmodule = Z4@0 x Z8@1\nsubmodule N = {}\n"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(regenerated_models())
@example((Z4_Z8.format("(2,0), (0,2)"), Z4_Z8.format("(2,2), (0,6), (6,4), (0,0)"), "N"))
def test_other_generators_of_a_named_submodule_give_the_same_output(case):
    # the paper's objects are defined up to the choice of generators: every
    # command answers byte for byte alike, the file stem kept equal
    first, second, name = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.delenv("GPS_ENUM_BOUND", raising=False)
        paths = [Path(tmp) / side / "model.gps" for side in ("first", "second")]
        for path, text in zip(paths, (first, second)):
            path.parent.mkdir()
            path.write_text(text, encoding="utf-8")
        for want, got in zip(*(relation_calls(str(p), name) for p in paths)):
            assert gps_outcome(want) == gps_outcome(got), (first, second, got[0])


COPRIME_SPLITS = tuple((a, b) for a in Z_ORDERS for b in Z_ORDERS
                       if a * b <= MAX_SIZE and gcd(a, b) == 1)


def automorphisms(group: GradingGroup) -> list[tuple]:
    """The automorphisms g -> Ag of a grading group of GROUPS, whose cyclic
    orders are equal: the matrices A with entries below that order that
    permute the group's elements (the units of Z_n, or GL2(F2) on Z2 x Z2)."""
    orders, elements = group.cyclic_orders, group.elements()
    matrices = product(product(range(orders[0]), repeat=len(orders)), repeat=len(orders))
    return [A for A in matrices
            if len({moved_degree(group, A, g) for g in elements}) == len(elements)]


def moved_degree(group: GradingGroup, A: tuple, g: tuple) -> tuple:
    return group.reduce(tuple(sum(a * x for a, x in zip(row, g)) for row in A))


@st.composite
def presentation_pairs(draw, relation: str):
    """A finite model over Z with a factor Z_ab@g, a and b coprime, and the
    same module presented another way, the named subsets kept: with that
    factor split into Z_a@g x Z_b@g in its place, each named submodule
    carried by x -> (x mod a, x mod b) ("split"), or with its factors
    permuted and every degree moved by an automorphism of the grading group,
    each named submodule carried by permuting coordinates ("relabel").  Only
    modules whose primary spectrum and base each have at most 12 elements
    are drawn.  There every subset of points and every family of basic
    opens is enumerated, so no quantifier of P4.1, T4.4, P4.8 or T3.4
    samples, and the order of the points cannot change a count."""
    group = GradingGroup(draw(st.sampled_from(GROUPS)))
    a, b = draw(st.sampled_from(COPRIME_SPLITS))
    degrees = st.sampled_from(group.elements())
    factors, size = [(a * b, draw(degrees))], a * b
    for _ in range(draw(st.integers(0, 2))):
        choices = [o for o in Z_ORDERS if size * o <= MAX_SIZE]
        if not choices:
            break
        order = draw(st.sampled_from(choices))
        factors.append((order, draw(degrees)))
        size *= order
    factors = draw(st.permutations(factors))
    k = next(i for i, (o, _) in enumerate(factors) if o == a * b)
    merged = with_names(draw, GradedModule(BaseRing(0), group, factors))
    space = topology.build_space(merged.module, topology.PSPEC)
    assume(len(space.points) <= 12 and len(space.base) <= 12)
    if relation == "split":
        g = factors[k][1]
        other = factors[:k] + [(a, g), (b, g)] + factors[k + 1:]

        def carry(v):
            return (*v[:k], v[k] % a, v[k] % b, *v[k + 1:])
    else:
        order = draw(st.permutations(range(len(factors))))
        A = draw(st.sampled_from(automorphisms(group)))
        other = [(factors[i][0], moved_degree(group, A, factors[i][1])) for i in order]

        def carry(v):
            return tuple(v[i] for i in order)

    M = GradedModule(BaseRing(0), group, other)
    submodules = {name: M.submodule([carry(v) for v in N.element_set()])
                  for name, N in merged.named_submodules.items()}
    return merged, Model(group, M.ring, M, submodules, merged.named_subsets)


def presentation_invariants(model: Model) -> tuple:
    """What an isomorphism of modules keeps: the point count of each
    spectrum, and the closed-set count and topology flags of each module
    space."""
    M = model.module
    counts = [len(spectra.spectrum_points(M, kind)) for kind in ("primary", "prime", "maximal")]
    for kind in (topology.PSPEC, topology.SPEC):
        space = topology.build_space(M, kind)
        rep = topology.analyze_space(space)
        counts.append((len(space.closed_masks), len(space.base), len(rep.components),
                       rep.connected, rep.irreducible, rep.t0, rep.t1, rep.sober,
                       rep.spectral, rep.quasi_compact, rep.trivial_topology, rep.is_empty))
    return tuple(counts)


PRESENTATION_EXAMPLES = {
    "split": ("group = Z2\nring = Z\nmodule = Z6@0\nsubmodule N = (2)\n",
              "group = Z2\nring = Z\nmodule = Z2@0 x Z3@0\nsubmodule N = (0,2)\n"),
    "relabel": ("group = Z3\nring = Z\nmodule = Z3@1 x Z15@1 x Z3@0\nsubmodule N = (1,5,0)\n",
                "group = Z3\nring = Z\nmodule = Z3@0 x Z15@2 x Z3@2\nsubmodule N = (0,5,1)\n"),
}


@pytest.mark.parametrize("relation", sorted(PRESENTATION_EXAMPLES))
def test_an_isomorphic_presentation_gives_the_same_answers(relation):
    # Z_ab@g and Z_a@g x Z_b@g are one module written two ways, and so are M
    # and M with its factors permuted and its degrees moved by an
    # automorphism of the grading group.  C2.16's detail counts the
    # transpositions of equal factors: a split can change that count, so
    # there C2.16 is compared by status alone, while a permutation and an
    # automorphism keep the pairs of equal factors, so there it is compared
    # in full
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(presentation_pairs(relation))
    @example(tuple(parse_model(text) for text in PRESENTATION_EXAMPLES[relation]))
    def relation_holds(pair):
        first, second = pair
        assert presentation_invariants(first) == presentation_invariants(second), (
            first.module.text(), second.module.text())

        def outcomes(model):
            return [(i, s, None if i == "C2.16" and relation == "split" else d)
                    for i, s, d in catalog_outcomes(model)]

        assert outcomes(first) == outcomes(second), (first.module.text(), second.module.text())

    relation_holds()
