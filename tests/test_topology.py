import gc
from pathlib import Path

import pytest

from test_faults import INSTANCES
from gpspec.algebra import (
    AlgebraError,
    BaseRing,
    GradedModule,
    GradingGroup,
    colon_ideals,
    enumerate_submodules,
    ideal_times_module,
)
from gpspec.dsl import parse_model
from gpspec.harness import is_quasi_compact, run_checks
from gpspec.maps import analyze_natural_map, reduced_ring_space
from gpspec.spectra import graded_radical
from gpspec.topology import (
    PSPEC,
    SPEC,
    FiniteSpace,
    analyze_space,
    base_scalars,
    basic_open,
    build_ring_space,
    build_space,
    closure,
    ideal_core,
    is_irreducible_subset,
    is_primary_top_module,
    radical_core,
    ring_basic_open,
    ring_variety,
    variety,
    variety_membership,
)

Z = BaseRing(0)
Z2G = GradingGroup((2,))
FINITE_MODELS = {p.stem: M for p in sorted((Path(__file__).parent.parent / "models").glob("*.gps"))
                 if (M := parse_model(p.read_text()).module).is_finite}


def zmod(n):
    return GradedModule(BaseRing(n), Z2G, [(n, (0,))])


def issubset(a, b) -> bool:
    """Point-set inclusion as a mask test."""
    return a & ~b == 0


def space_z6():
    return build_space(zmod(6))


def space_z8():
    return build_space(zmod(8))


def test_pspec_z8_paper_values():
    sp = space_z8()
    assert [q.text() for q in sp.points] == ["0", "4Z8", "2Z8"]
    assert set(sp.closed_masks) == {0, sp.full_mask}
    # units give the full space, nilpotents the empty set
    for r in (1, 3, 5, 7):
        assert basic_open(sp, r) == sp.full_mask
    for r in (0, 2, 4, 6):
        assert basic_open(sp, r) == 0


def test_pspec_z6_paper_values():
    sp = space_z6()
    assert [q.element_set() for q in sp.points] == [
        frozenset({(0,), (3,)}),
        frozenset({(0,), (2,), (4,)}),
    ]
    M = sp.module
    n3 = M.submodule([(3,)])
    n2 = M.submodule([(2,)])
    assert sp.members(variety(sp, n3)) == [n3]
    assert sp.members(variety(sp, n2)) == [n2]
    # discrete: all four subsets closed
    assert len(sp.closed_masks) == 4
    assert sp.members(basic_open(sp, 2)) == [n3]


def test_variety_edges():
    sp = space_z6()
    M = sp.module
    assert variety(sp, M.zero_submodule) == sp.full_mask
    assert variety(sp, M.full_submodule) == 0
    assert variety(sp, M.zero_submodule, star=True) == sp.full_mask
    assert variety(sp, M.full_submodule, star=True) == 0


def test_pointwise_star_variety_on_infinite_module():
    # the two-factor counterexample: P = 0 is prime, lies in the star variety
    # of the intersection but in neither star variety of the two pieces
    M = GradedModule(Z, Z2G, [(0, (0,)), (0, (1,))])
    N = M.submodule([(4, 0)])
    N2 = M.submodule([(0, 4)])
    P = M.zero_submodule
    inter = N.intersect(N2)
    assert variety_membership(inter, P, star=True)
    assert not variety_membership(N, P, star=True)
    assert not variety_membership(N2, P, star=True)


@pytest.mark.parametrize("stem", FINITE_MODELS)
def test_pointwise_variety_membership_equals_the_built_varieties(stem):
    # the pointwise route, on both its branches, against the varieties of the
    # materialized spaces: every submodule N, every point Q of both spectra
    M = FINITE_MODELS[stem]
    for kind in (PSPEC, SPEC):
        sp = build_space(M, kind)
        for N in enumerate_submodules(M):
            for star in (False, True):
                mask = variety(sp, N, star=star)
                for i, Q in enumerate(sp.points):
                    assert variety_membership(N, Q, star=star) == bool(mask >> i & 1), (
                        M.text(), kind, N.text(), Q.text(), star)


@pytest.mark.parametrize("stem", FINITE_MODELS)
def test_every_mask_a_space_gives_lies_within_its_points(stem):
    # a point set is a mask over the space's point list: every mask that the
    # library returns or stores for both module spaces and the reduced ring
    # space has no bit past the last point, and its indices give it back
    M = FINITE_MODELS[stem]
    ring_space = reduced_ring_space(M)
    spaces = []
    for kind in (PSPEC, SPEC):
        sp = build_space(M, kind)
        masks = [variety(sp, N, star=star)
                 for N in enumerate_submodules(M) for star in (False, True)]
        masks += [basic_open(sp, r) for r in base_scalars(M.exponent)]
        masks += [mask for _, mask in analyze_natural_map(M, kind).fibers]
        spaces.append((sp, masks))
    spaces.append((ring_space, [ring_basic_open(ring_space, r)
                                for r in base_scalars(ring_space.ring.modulus)]))
    for sp, masks in spaces:
        rep = analyze_space(sp)
        masks += [closure(sp, 1 << i) for i in range(len(sp.points))]
        masks += [*sp.closed_masks, *(m for _, m in sp.base), *rep.components]
        for m, generic in rep.generic_points:
            masks.append(m)
            assert all(m >> i & 1 for i in generic), (stem, sp.kind, m, generic)
        for m in masks:
            assert 0 <= m <= sp.full_mask, (stem, sp.kind, m)
            assert sum(1 << i for i in sp.indices(m)) == m, (stem, sp.kind, m)


def test_ring_space_examples():
    rs6 = build_ring_space(BaseRing(6))
    assert [p.gen for p in rs6.points] == [2, 3]
    assert rs6.members(ring_variety(rs6, BaseRing(6).ideal(2))) == [BaseRing(6).ideal(2)]
    assert ring_basic_open(rs6, 1) == rs6.full_mask
    rs8 = build_ring_space(BaseRing(8))
    assert rs8.members(ring_variety(rs8, BaseRing(8).zero_ideal)) == [BaseRing(8).ideal(2)]
    with pytest.raises(Exception):
        build_ring_space(Z)


def test_radical_core_examples():
    sp6 = space_z6()
    assert radical_core(sp6, sp6.full_mask).is_zero
    q = sp6.points[0]
    assert radical_core(sp6, 1 << 0) == graded_radical(q).require()
    sp8 = space_z8()
    assert radical_core(sp8, sp8.full_mask) == sp8.module.submodule([(2,)])
    assert radical_core(sp6, 0).is_full


def test_ideal_core_examples():
    rs6 = build_ring_space(BaseRing(6))
    assert ideal_core(rs6, rs6.full_mask).is_zero  # lcm(2,3) = 6 = 0 in Z_6
    assert ideal_core(rs6, 1 << 0) == BaseRing(6).ideal(2)
    assert ideal_core(rs6, 0).is_unit


def test_closure_examples():
    sp8 = space_z8()
    assert closure(sp8, 1 << 0) == sp8.full_mask  # Cl({0}) is everything
    assert closure(sp8, 0) == 0
    sp6 = space_z6()
    for i, q in enumerate(sp6.points):
        assert closure(sp6, 1 << i) == variety(sp6, q)


def test_closure_equals_lattice_closure_all_subsets():
    for sp in (space_z6(), space_z8(), build_space(zmod(12))):
        for mask in range(sp.full_mask + 1):
            assert closure(sp, mask) == variety(sp, radical_core(sp, mask))


def test_closed_family_is_topology():
    corpus = [
        zmod(6),
        zmod(8),
        zmod(12),
        GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))]),
        GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))]),
    ]
    for M in corpus:
        sp = build_space(M)
        masks = set(sp.closed_masks)
        assert 0 in masks and sp.full_mask in masks
        for a in masks:
            for b in masks:
                assert (a | b) in masks
                assert (a & b) in masks
        # every closed set recomputes from its witness ideal I, as V(IM)
        for m, I in sp.witnesses.items():
            assert variety(sp, ideal_times_module(I, M)) == m


def test_star_variety_laws():
    # the star variety laws: intersections turn into sums, unions sit inside
    # the variety of the intersection, radicals do not change the variety
    for M in (zmod(6), zmod(12), GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))])):
        sp = build_space(M)
        subs = enumerate_submodules(M)
        assert variety(sp, M.zero_submodule, star=True) == sp.full_mask
        assert variety(sp, M.full_submodule, star=True) == 0
        for N in subs:
            for N2 in subs:
                vn = variety(sp, N, star=True)
                vn2 = variety(sp, N2, star=True)
                assert vn & vn2 == variety(sp, N.plus(N2), star=True)
                assert issubset(vn | vn2, variety(sp, N.intersect(N2), star=True))
                if N.contains(N2):
                    assert issubset(vn, vn2)
            r = graded_radical(N) if N.is_proper else None
            if r is not None and r.is_known:
                assert variety(sp, N, star=True) == variety(sp, r.require(), star=True)


def test_variety_laws():
    for M in (zmod(6), zmod(8), GradedModule(Z, Z2G, [(4, (0,)), (2, (1,))])):
        sp = build_space(M)
        subs = enumerate_submodules(M)
        for N in subs:
            for N2 in subs:
                vn, vn2 = variety(sp, N), variety(sp, N2)
                lhs = vn & vn2
                rhs = variety(
                    sp,
                    ideal_times_module(N.colon(), M).plus(
                        ideal_times_module(N2.colon(), M)
                    ),
                )
                assert lhs == rhs
                assert vn | vn2 == variety(sp, N.intersect(N2))
                if N.contains(N2):
                    assert issubset(vn, vn2)


TABLE_MODULES = {**FINITE_MODELS,
                 "z4z8z2": GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))]),
                 "z6z10": GradedModule(Z, Z2G, [(6, (0,)), (10, (1,))])}


@pytest.mark.parametrize("stem", TABLE_MODULES)
def test_closed_of_holds_one_closed_set_per_ideal(stem):
    # a module space holds the closed set of each colon ideal, a ring space
    # that of each ideal, once: each entry is the definition read off the
    # radicals (off containment on the ring space), the closed family is the
    # set of entries, and every variety reads its entry, equal to the mask
    # of a space built afresh on an equal module (whose memo is its own).
    # The star kind reads the space's one star table, the definition too
    M = TABLE_MODULES[stem]
    fresh_module = GradedModule(M.ring, M.group, M.factors)
    for kind in (PSPEC, SPEC):
        sp, fresh = build_space(M, kind), build_space(fresh_module, kind)
        assert fresh is not sp
        assert list(sp.closed_of) == list(colon_ideals(M)), (stem, kind)
        for c, mask in sp.closed_of.items():
            assert mask == sum(1 << i for i, R in enumerate(sp.radicals)
                               if R.colon().contains(c)), (stem, kind, c)
        assert sp.closed_masks == tuple(sorted(set(sp.closed_of.values())))
        assert sp.star_masks is sp.star_masks
        for N in enumerate_submodules(M):
            assert variety(sp, N) == variety(fresh, N) == sp.closed_of[N.colon()]
            assert variety(sp, N, star=True) == variety(fresh, N, star=True) == sum(
                1 << i for i, R in enumerate(sp.radicals) if R.contains(N)
            )
    ring_space = reduced_ring_space(M)
    ring = ring_space.ring
    assert list(ring_space.closed_of) == ring.ideals(), stem
    for I, mask in ring_space.closed_of.items():
        assert mask == sum(1 << i for i, p in enumerate(ring_space.points) if p.contains(I))
        assert ring_variety(ring_space, I) == mask
    assert ring_space.closed_masks == tuple(sorted(set(ring_space.closed_of.values())))


def test_ring_variety_refuses_an_ideal_of_another_ring():
    ring_space = build_ring_space(BaseRing(12))
    for ring in (BaseRing(6), Z):
        with pytest.raises(AlgebraError, match="ideal rings differ"):
            ring_variety(ring_space, ring.ideal(2))


def test_no_module_memo_keys_a_space():
    # spaces keep their own tables, so after a whole catalog run no memo
    # entry of any module is keyed by a space
    for stem, text in INSTANCES:
        model = parse_model(text)
        run_checks(model, "all", stem)
        modules = [M for M in gc.get_objects() if isinstance(M, GradedModule)]
        assert model.module in modules
        for M in modules:
            assert not any(isinstance(part, FiniteSpace) for key in M.memo for part in key), (
                stem, M.text())


def test_base_generates_topology():
    for M in (zmod(6), zmod(8), zmod(12), GradedModule(Z, Z2G, [(4, (0,)), (2, (1,))])):
        sp = build_space(M)
        base_masks = [m for _, m in sp.base]
        for c in sp.closed_masks:
            u = c ^ sp.full_mask
            acc = 0
            for m in base_masks:
                if m & u == m:
                    acc |= m
            assert acc == u


def test_base_open_multiplicativity():
    for M in (zmod(6), zmod(8), zmod(12)):
        sp = build_space(M)
        n = M.ring.modulus
        for r in range(n):
            for t in range(n):
                assert basic_open(sp, r) & basic_open(sp, t) == basic_open(sp, (r * t) % n)
        for r in range(n):
            if M.ring.is_unit(r):
                assert basic_open(sp, r) == sp.full_mask
            if M.ring.is_nilpotent(r):
                assert basic_open(sp, r) == 0


def test_analyze_z6():
    rep = analyze_space(space_z6())
    assert rep.connected is False
    assert rep.irreducible is False
    assert rep.t0 is True and rep.t1 is True
    assert rep.sober is True
    assert rep.spectral is True
    assert rep.quasi_compact is True
    assert rep.trivial_topology is False
    assert len(rep.components) == 2


def test_analyze_z8():
    rep = analyze_space(space_z8())
    assert rep.connected is True
    assert rep.irreducible is True
    assert rep.t0 is False and rep.t1 is False
    assert rep.sober is False
    assert rep.spectral is False
    assert rep.trivial_topology is True
    assert rep.components == (space_z8().full_mask,)


def test_analyze_one_point_space():
    M = zmod(2)
    rep = analyze_space(build_space(M))
    assert all(
        (rep.connected, rep.irreducible, rep.t0, rep.t1, rep.sober, rep.spectral,
         rep.quasi_compact)
    )


def test_irreducible_closed_sets_are_point_varieties():
    sp = space_z6()
    for i, q in enumerate(sp.points):
        assert is_irreducible_subset(sp, variety(sp, q))
    # the full space of Z_6 splits, hence not irreducible
    assert not is_irreducible_subset(sp, sp.full_mask)
    # empty set is not irreducible by convention
    assert not is_irreducible_subset(sp, 0)


def test_quasi_compactness_executed():
    for sp in (space_z6(), space_z8()):
        assert is_quasi_compact(sp, sp.full_mask)
        for r, m in sp.base:
            assert is_quasi_compact(sp, m)


def test_spec_subspace_identity():
    for M in (zmod(6), zmod(8), zmod(12), GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))])):
        ps = build_space(M, PSPEC)
        ss = build_space(M, SPEC)
        spec_in_ps = [ps.position[p] for p in ss.points]
        for N in enumerate_submodules(M):
            big = variety(ps, N)
            small = variety(ss, N)
            assert [small >> i & 1 for i in range(len(ss.points))] == [
                big >> j & 1 for j in spec_in_ps
            ]


def test_is_primary_top():
    assert is_primary_top_module(zmod(6)).is_true
    assert is_primary_top_module(GradedModule(Z, Z2G, [(0, (0,))])).is_true
    res = is_primary_top_module(GradedModule(Z, Z2G, [(0, (0,)), (0, (1,))]))
    assert res.is_unknown


def test_primary_top_failure_has_checkable_witness():
    # two copies of Z2 in one degree: the star varieties of two hyperplanes
    # are singletons whose union is not a star variety, so the family is not
    # closed under union
    M = GradedModule(Z, Z2G, [(2, (0,)), (2, (0,))])
    res = is_primary_top_module(M)
    assert res.is_false
    N, N2 = res.witness
    sp = build_space(M)
    union = variety(sp, N, star=True) | variety(sp, N2, star=True)
    all_star = {variety(sp, J, star=True) for J in enumerate_submodules(M)}
    assert union not in all_star


def test_star_union_strictness_on_a_finite_instance():
    # the finite analogue of the rank-two counterexample: the union of two
    # star varieties sits strictly inside the star variety of the intersection
    M = GradedModule(Z, Z2G, [(2, (0,)), (2, (0,))])
    sp = build_space(M)
    h1 = M.submodule([(1, 0)])
    h2 = M.submodule([(0, 1)])
    union = variety(sp, h1, star=True) | variety(sp, h2, star=True)
    inter = variety(sp, h1.intersect(h2), star=True)
    assert issubset(union, inter) and union != inter


def test_grading_group_of_order_three():
    G3 = GradingGroup((3,))
    M = GradedModule(Z, G3, [(2, (0,)), (3, (1,)), (2, (2,))])
    sp = build_space(M)
    rep = analyze_space(sp)
    assert rep.quasi_compact
    # degreewise product structure: submodule count multiplies across degrees
    assert len(enumerate_submodules(M)) == 2 * 2 * 2
