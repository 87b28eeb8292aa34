from pathlib import Path

import pytest

import oracles
from gpspec import maps, topology
from gpspec.algebra import (
    DEFAULT_ENUM_BOUND,
    BaseRing,
    GradedModule,
    GradingGroup,
    InfiniteEnumerationError,
    ModuleMismatchError,
    QuotientMap,
    enumerate_submodules,
    quotient_module,
)
from gpspec.maps import (
    InducedSpectrumMap,
    MapAnalysis,
    PermutationMap,
    analyze_natural_map,
    identity_map,
    image_mask,
    preimage_mask,
    primary_point_image,
    reduced_ring,
)
from gpspec.dsl import parse_model
from gpspec.spectra import in_primary_spectrum
from gpspec.topology import analyze_space, build_space

Z = BaseRing(0)
Z2G = GradingGroup((2,))


def zmod(n, ring=None):
    ring = ring or BaseRing(n)
    return GradedModule(ring, Z2G, [(n, (0,))])


# -- reduced ring -------------------------------------------------------------


def test_reduced_ring_presentations():
    rr = reduced_ring(zmod(8))
    assert rr.ring == BaseRing(8)  # annihilator of Z_8 over Z_8 is zero
    rr2 = reduced_ring(GradedModule(Z, Z2G, [(4, (0,)), (6, (1,))]))
    assert rr2.ring == BaseRing(12)
    rr3 = reduced_ring(GradedModule(Z, Z2G, [(0, (0,))]))
    assert rr3.ring == Z


def test_reduced_ring_ideal_correspondence():
    M = GradedModule(Z, Z2G, [(4, (0,)), (6, (1,))])
    rr = reduced_ring(M)
    # ideals of Z containing (12) correspond to ideals of Z_12, order-preserving
    divisors_of_12 = [1, 2, 3, 4, 6, 12]
    reduced = [rr.reduce_ideal(Z.ideal(d)) for d in divisors_of_12]
    assert len(set(reduced)) == len(reduced)
    for a in divisors_of_12:
        for b in divisors_of_12:
            contains_src = Z.ideal(a).contains(Z.ideal(b))
            contains_red = rr.reduce_ideal(Z.ideal(a)).contains(rr.reduce_ideal(Z.ideal(b)))
            assert contains_src == contains_red
    with pytest.raises(Exception):
        rr.reduce_ideal(Z.ideal(5))  # does not contain the annihilator


# -- pointwise natural images ---------------------------------------------------


def test_point_images():
    M6 = zmod(6)
    assert primary_point_image(M6.submodule([(2,)])).gen == 2
    assert primary_point_image(M6.submodule([(3,)])).gen == 3
    M8 = zmod(8)
    assert primary_point_image(M8.submodule([(4,)])).gen == 2
    # over Z, with Spec Z never built, images still come pointwise
    MZ = GradedModule(Z, Z2G, [(0, (0,))])
    assert primary_point_image(MZ.submodule([(4,)])) == Z.ideal(2)


# -- full analyses ---------------------------------------------------------------


def test_analyze_rho_z6():
    res = analyze_natural_map(zmod(6))
    assert res.injective.is_true and res.surjective.is_true
    assert res.continuity_ok
    assert res.image_identities_ok
    assert res.homeomorphism.is_true
    fiber_sizes = {p.gen: mask.bit_count() for p, mask in res.fibers}
    assert fiber_sizes == {2: 1, 3: 1}


def test_analyze_rho_z8():
    res = analyze_natural_map(zmod(8))
    assert res.surjective.is_true
    assert res.injective.is_false
    assert res.continuity_ok
    (p, mask), = res.fibers
    assert p.gen == 2 and mask.bit_count() == 3
    # not bijective, hence not a homeomorphism
    assert res.homeomorphism.is_false


def test_analyze_on_an_infinite_module_refuses_the_enumeration():
    with pytest.raises(InfiniteEnumerationError, match="module Z@0 is infinite"):
        analyze_natural_map(GradedModule(Z, Z2G, [(0, (0,))]))


def test_injectivity_equivalences():
    # the three-way equivalence: point varieties separate points iff all
    # fibers have at most one point iff the natural map is injective
    for M in (zmod(6), zmod(8), zmod(12), zmod(30),
              GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))])):
        res = analyze_natural_map(M)
        sp = res.space
        from gpspec.topology import variety

        distinct = all(
            variety(sp, sp.points[i]) != variety(sp, sp.points[j])
            for i in range(len(sp.points))
            for j in range(i + 1, len(sp.points))
        )
        fibers_small = all(mask.bit_count() <= 1 for _, mask in res.fibers)
        assert distinct == fibers_small == res.injective.is_true
        if all(mask.bit_count() == 1 for _, mask in res.fibers):
            assert res.injective.is_true and res.surjective.is_true


def test_connectedness_transfer():
    # with the natural map surjective, connectedness of the primary spectrum
    # and of the reduced ring spectrum agree
    for M in (zmod(6), zmod(8), zmod(12), zmod(30)):
        res = analyze_natural_map(M)
        if res.surjective.is_true:
            a = analyze_space(res.space).connected
            b = analyze_space(res.ring_space).connected
            assert a == b


# -- induced spectrum maps -------------------------------------------------------


def test_induced_map_projection_z_to_z4():
    MZ = GradedModule(Z, Z2G, [(0, (0,))])
    K = MZ.submodule([(4,)])
    Q, proj = quotient_module(MZ, K)
    pi = InducedSpectrumMap(proj)
    two_bar = Q.submodule([(2,)])
    pulled = pi.apply(two_bar)
    assert pulled == MZ.submodule([(2,)])
    assert in_primary_spectrum(pulled)


def test_induced_map_z8_quotient():
    M8 = zmod(8)
    K = M8.submodule([(4,)])
    Q, proj = quotient_module(M8, K)  # isomorphic to Z_4
    pi = InducedSpectrumMap(proj)
    pulled = pi.apply(Q.zero_submodule)
    assert pulled == K
    assert in_primary_spectrum(pulled)
    res = pi.analyze()
    assert res.injective and res.continuity_ok


def test_induced_map_identity_homeo():
    M = zmod(6)
    pi = InducedSpectrumMap(identity_map(M))
    res = pi.analyze()
    assert res.injective and res.surjective and res.continuity_ok
    assert res.homeomorphism.is_true


def test_permutation_map_swap():
    M = GradedModule(Z, Z2G, [(2, (0,)), (2, (0,))])
    swap = PermutationMap(M, (1, 0))
    assert swap.target == M
    assert oracles.forward_map(swap)((1, 0)) == (0, 1)
    N = M.submodule([(1, 0)])
    assert oracles.image_submodule(swap, N) == M.submodule([(0, 1)])
    assert swap.preimage_submodule(N) == M.submodule([(0, 1)])
    pi = InducedSpectrumMap(swap)
    res = pi.analyze()
    assert res.homeomorphism.is_true


def test_permutation_map_rejects_foreign_submodules():
    # as for QuotientMap, the preimage and the image oracle refuse a
    # submodule of another module
    M = GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))])
    swap = PermutationMap(M, (1, 0))
    N = GradedModule(Z, Z2G, [(2, (0,)), (8, (1,))]).submodule([(1, 0)])
    with pytest.raises(ModuleMismatchError):
        oracles.image_submodule(swap, N)
    with pytest.raises(ModuleMismatchError):
        swap.preimage_submodule(N)


def test_permutation_map_relists_factors():
    M = GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))])
    relist = PermutationMap(M, (1, 0))
    # the target presentation keeps each factor's (order, degree)
    assert relist.target.factors == ((4, (1,)), (2, (0,)))
    assert InducedSpectrumMap(relist).analyze().homeomorphism.is_true
    with pytest.raises(Exception):
        PermutationMap(M, (0, 0))  # not a permutation


def test_equal_presentations_share_one_target():
    # a map onto M's own presentation targets M, and kernels with one
    # quotient presentation share one target, held by M's memo
    M = GradedModule(Z, Z2G, [(2, (0,)), (2, (0,)), (4, (1,))])
    assert PermutationMap(M, (1, 0, 2)).target is M
    assert identity_map(M).target is M
    assert quotient_module(M, M.zero_submodule)[0] is M
    first, second = M.submodule([(1, 0, 0)]), M.submodule([(1, 1, 0)])
    target = QuotientMap(M, first).target
    assert target.factors == ((2, (0,)), (4, (1,)))
    assert QuotientMap(M, second).target is target
    assert PermutationMap(M, (0, 2, 1)).target is PermutationMap(M, (1, 2, 0)).target
    assert all(value is not M for value in M.memo.values())


def test_isomorphisms_induce_homeomorphisms():
    # quotient by zero and factor swaps are isomorphisms
    for M in (zmod(6), GradedModule(Z, Z2G, [(3, (0,)), (3, (0,))])):
        _, proj = quotient_module(M, M.zero_submodule)
        assert InducedSpectrumMap(proj).analyze().homeomorphism.is_true


# -- point mappings ---------------------------------------------------------------


def assert_point_mapping(source, target, mapping, images):
    """mapping against the images by lookup in the target's point list, and
    image_mask / preimage_mask against set images and preimages of every
    closed set, every singleton and the whole space on either side."""
    assert list(mapping) == [target.points.index(x) for x in images]

    def masks(space):
        n = len(space.points)
        return {*space.closed_masks, *(1 << i for i in range(n)), space.full_mask}

    for mask in masks(source):
        want = {x for i, x in enumerate(images) if mask >> i & 1}
        assert set(target.members(image_mask(mapping, mask))) == want
    for mask in masks(target):
        members = set(target.members(mask))
        want = sum(1 << i for i, x in enumerate(images) if x in members)
        assert preimage_mask(mapping, mask) == want


def test_natural_map_mapping_on_the_corpus():
    models = sorted((Path(__file__).parent.parent / "models").glob("*.gps"))
    corpus = [parse_model(p.read_text()).module for p in models]
    finite = [M for M in corpus if M.is_finite]
    assert len(finite) == 12
    for M in finite:
        for source in ("primary", "prime"):
            res = analyze_natural_map(M, source)
            assert_point_mapping(res.space, res.ring_space, res.mapping, res.images)
            assert res.fibers == tuple(
                (p, sum(1 << i for i, x in enumerate(res.images) if x == p))
                for p in res.ring_space.points
            )


def test_induced_map_mapping_on_every_quotient():
    M = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))])
    sp = build_space(M)
    for K in enumerate_submodules(M):
        _, proj = quotient_module(M, K)
        pi = InducedSpectrumMap(proj)
        sp2 = build_space(proj.target)
        images = [pi.apply(Q2) for Q2 in sp2.points]
        assert_point_mapping(sp2, sp, pi.analyze().mapping, images)


def test_map_analyses_are_unchanged_with_one_submodule_per_colon(monkeypatch):
    # the colon ideals swapped for the colons of a submodule walk, in its
    # order: no fault row can guard this family, since every identity holds
    # for each ideal containing Ann(M) and a dropped one fails nothing
    models = sorted((Path(__file__).parent.parent / "models").glob("*.gps"))
    corpus = [parse_model(p.read_text()).module for p in models]
    finite = [M for M in corpus if M.is_finite]
    heavy = GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))])
    natural = [(M, source) for M in finite + [heavy] for source in ("primary", "prime")]
    projections = [quotient_module(M, K)[1]
                   for M in finite + [heavy] for K in enumerate_submodules(M)]
    want = ([analyze_natural_map(M, source) for M, source in natural],
            [InducedSpectrumMap(proj).analyze() for proj in projections])
    # every space is built again under the swap, which reaches the spaces'
    # closed-set tables in topology; the induced maps read those tables
    modules = list({id(M): M for M in [*finite, heavy, *(p.target for p in projections)]}
                   .values())
    for M in modules:
        M.memo.clear()
    asked = []

    def walked_colons(M):
        asked.append(M)
        return tuple(N.colon() for N in oracles.one_per_colon(M))

    monkeypatch.setattr(topology, "colon_ideals", walked_colons)
    got = ([maps._natural_map.__wrapped__(M, source, DEFAULT_ENUM_BOUND)
            for M, source in natural],
           [InducedSpectrumMap(proj).analyze() for proj in projections])

    def tables(space):
        return space.points, space.closed_of, space.closed_masks, space.base

    def fields(analysis):
        return ([getattr(analysis, f) for f in MapAnalysis.__slots__
                 if f not in ("space", "ring_space")],
                tables(analysis.space), tables(analysis.ring_space))

    assert [fields(a) for a in got[0]] == [fields(a) for a in want[0]]
    assert got[1] == want[1]
    builds = sum(key[0] is topology._build_space.__wrapped__ for M in modules for key in M.memo)
    assert builds >= len(finite) + 1
    assert len(asked) == builds  # the swap was reached
