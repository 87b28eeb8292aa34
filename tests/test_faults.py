"""Seeded faults that the catalog must catch (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978): each test breaks one library
quantity in every module that imports it, or one method of its class, runs
the catalog on the corpus and two heavier instances, and pins the set of
checks that fail.  A check that stops failing under its fault no longer
guards that quantity."""

import sys
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from gpspec import harness, intlinalg, maps, spectra, topology
from gpspec.algebra import (
    BaseRing,
    GradedSubmodule,
    InvariantError,
    QuotientMap,
    SubmoduleLattice,
)
from gpspec.dsl import parse_model
from gpspec.harness import run_checks

MODELS = Path(__file__).parent.parent / "models"
INSTANCES = [(p.stem, p.read_text()) for p in sorted(MODELS.glob("*.gps"))] + [
    (module, f"group = Z2\nring = Z\nmodule = {module}\n")
    for module in ("Z4@0 x Z2@1 x Z3@0", "Z4@0 x Z8@1 x Z2@0")
]


def failing_checks(monkeypatch, name, fault, owner=topology) -> set[str]:
    """Ids of the checks that fail on some instance with owner's `name`
    replaced by fault(real) wherever it is imported."""
    real = getattr(owner, name)
    faulty = fault(real)
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get(name) is real]
    assert len(importers) == 2, name  # the owner and harness
    for module in importers:
        monkeypatch.setattr(module, name, faulty)
    return catalog_failures()


def catalog_failures() -> set[str]:
    """Ids of the checks that fail on some instance."""
    return {check_id for check_id, status in catalog_outcomes() if status == "fail"}


def catalog_outcomes(instances=INSTANCES) -> set[tuple[str, str]]:
    """(id, status) of the checks that fail or raise on some instance."""
    bad = set()
    for stem, text in instances:
        model = parse_model(text)
        model.module.memo.clear()
        bad |= {(r.check_id, r.status) for r in run_checks(model, "all", stem)
                if r.status in ("fail", "error")}
    return bad


def test_a_star_table_missing_a_point_fails_the_star_checks(monkeypatch):
    # every module space's star table, built on first read
    real = topology.FiniteSpace.star_masks.func

    def star_masks(space):  # the middle entry loses its lowest point
        table = list(real(space))
        mid = len(table) // 2
        table[mid] &= table[mid] - 1
        return tuple(table)

    faulty = cached_property(star_masks)
    faulty.__set_name__(topology.FiniteSpace, "star_masks")
    monkeypatch.setattr(topology.FiniteSpace, "star_masks", faulty)
    assert catalog_failures() == {"T2.1", "T2.2", "P2.3", "L2.6"}


def test_a_radical_core_of_m_on_two_points_fails_the_core_checks(monkeypatch):
    def fault(real):
        def radical_core(space, Y):
            return space.module.full_submodule if Y.bit_count() == 2 else real(space, Y)
        return radical_core

    failed = failing_checks(monkeypatch, "radical_core", fault)
    assert failed == {"P4.1", "T4.4"}


def drop_lowest_of_two_or_more(real):
    def fault(mapping, mask):  # a result of two or more points loses its lowest
        out = real(mapping, mask)
        return out & out - 1 if out.bit_count() >= 2 else out
    return fault


def test_a_preimage_mask_missing_a_point_fails_the_map_checks(monkeypatch):
    failed = failing_checks(monkeypatch, "preimage_mask", drop_lowest_of_two_or_more, maps)
    assert failed == {"C2.9", "C2.12", "C2.16", "L2.6", "P2.8", "P2.10", "P3.2", "T2.15",
                      "T4.11"}


def drop_lowest_closed_point(monkeypatch, module_spaces):
    """Each closed set of two or more points loses its lowest point, in the
    table the shared builder fills for every module space (module_spaces)
    or for every ring space: it fills the space again from colons that
    contain an ideal where the faulty table says so."""
    real = topology._fill_families

    def fill_families(space, ideals, colons):
        real(space, ideals, colons)
        if (space.module is not None) == module_spaces:
            table = {I: m & m - 1 if m.bit_count() >= 2 else m
                     for I, m in space.closed_of.items()}
            real(space, ideals, [SimpleNamespace(contains=lambda I, i=i: table[I] >> i & 1)
                                 for i in range(len(colons))])

    monkeypatch.setattr(topology, "_fill_families", fill_families)


def drop_lowest_colon_variety_point(monkeypatch):
    drop_lowest_closed_point(monkeypatch, module_spaces=True)


def drop_lowest_preimage_point(monkeypatch):
    faulty = drop_lowest_of_two_or_more(maps.preimage_mask)
    for module in (maps, harness):
        monkeypatch.setattr(module, "preimage_mask", faulty)


@pytest.mark.parametrize("seed_fault", [drop_lowest_preimage_point,
                                        drop_lowest_colon_variety_point])
def test_P3_2_fails_alike_by_ideal_and_by_residue(monkeypatch, seed_fault):
    # P3.2's two fault rows with its route by one scalar per ideal swapped
    # for the walk over every residue: the same status, detail and
    # counterexample on every instance, and a failure on some
    seed_fault(monkeypatch)
    statuses = set()
    for stem, text in INSTANCES:
        want, got = oracles.P3_2_routes(parse_model(text), stem)
        assert want == got, stem
        statuses.add(want[0])
    assert "fail" in statuses


def test_an_image_mask_missing_a_point_fails_the_bijection_checks(monkeypatch):
    failed = failing_checks(monkeypatch, "image_mask", drop_lowest_of_two_or_more, maps)
    assert failed == {"C2.9", "C2.16"}


def test_a_colon_variety_missing_a_point_fails_the_variety_checks(monkeypatch):
    # every closed set of a module space, as built and as queried, comes
    # from the table _fill_families builds, so the fault reaches spaces,
    # maps and catalog alike
    real = topology._fill_families
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("_fill_families") is real]
    assert importers == [topology]
    drop_lowest_colon_variety_point(monkeypatch)
    assert catalog_outcomes() == {
        (check_id, "fail") for check_id in (
            "C2.12", "C4.7", "E3.3", "EX4.2Z6", "L2.6", "P2.10", "P2.11", "P3.2", "P4.1",
            "T2.4", "T2.13", "T2.15", "T3.5", "T4.4", "T4.5", "T4.6", "T4.11")
    }


def test_a_ring_closed_set_missing_a_point_fails_the_natural_map_checks(monkeypatch):
    # the reduced ring spaces' tables come from the builder the module
    # spaces share; the natural maps and P3.2's D(r) read them
    drop_lowest_closed_point(monkeypatch, module_spaces=False)
    assert catalog_outcomes() == {("C2.12", "fail"), ("P2.10", "fail"), ("P2.11", "fail"),
                                  ("P3.2", "fail")}


def test_a_closed_family_missing_its_second_largest_set_fails_the_space_checks(monkeypatch):
    # every module space with more than three closed sets, after its
    # families are filled: ring spaces keep theirs.  The lost set breaks the
    # family's closure under union, which T3.5 alone tests: analyze_space
    # takes a finite space's opens as a base closed under intersection
    real = topology._fill_families
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("_fill_families") is real]
    assert importers == [topology]

    def fill_families(space, *args):
        real(space, *args)
        if space.module is not None and len(space.closed_masks) > 3:
            space.closed_masks = space.closed_masks[:-2] + space.closed_masks[-1:]

    monkeypatch.setattr(topology, "_fill_families", fill_families)
    assert catalog_failures() == {"C4.7", "EX4.2Z6", "P4.1", "T2.13", "T3.5", "T4.4", "T4.5",
                                  "T4.6"}


def test_basic_opens_read_at_gcd_2r_fail_the_basic_open_checks(monkeypatch):
    # S_r read off the closed set of (gcd(2r, L)) in place of (gcd(r, L)),
    # wherever the catalog asks for a basic open; the spaces' bases are
    # filled from their tables, apart from basic_open
    def fault(real):
        return lambda space, r: real(space, 2 * r)

    assert failing_checks(monkeypatch, "basic_open", fault) == {"E3.3", "P3.2"}


def test_a_base_missing_its_last_open_fails_the_base_check(monkeypatch):
    # every space with two or more basic opens, module and ring spaces alike
    real = topology._fill_families

    def fill_families(space, *args):
        real(space, *args)
        if len(space.base) >= 2:
            space.base = space.base[:-1]

    monkeypatch.setattr(topology, "_fill_families", fill_families)
    assert catalog_outcomes() == {("P3.1", "fail")}


def test_a_doubled_transport_target_key_fails_the_transport_checks(monkeypatch):
    # each induced map pairs the closed set of I on the source with that of
    # (gcd(2I, L')) on the target in place of (gcd(I, L')): maps reads a
    # module space's closed set only there (and a ring space's for the
    # natural maps).  No row keys the target at rad(I) in place of I: the
    # closed set of (c) depends only on the primes dividing c, so that
    # mutant is equivalent and fails nothing
    real = maps.closed_set

    def closed_set(space, I):
        return real(space, space.ring.ideal(2 * I.gen) if space.module is not None else I)

    monkeypatch.setattr(maps, "closed_set", closed_set)
    assert catalog_outcomes() == {("C2.16", "fail"), ("T2.15", "fail")}


def test_a_union_gap_that_finds_none_fails_the_union_closure_check(monkeypatch):
    # is_primary_top_module then says yes on every finite module, and C2.7
    # walks the star family's unions by itself, so it finds the gap
    real = topology.union_gap
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("union_gap") is real]
    assert importers == [topology]
    monkeypatch.setattr(topology, "union_gap", lambda family: None)
    assert catalog_outcomes() == {("C2.7", "fail")}


def test_a_pullback_table_repeating_its_first_point_fails_the_transport_check(monkeypatch):
    # the last target point's preimage is read as the first one's, flags
    # kept: the table then misses a primary point above the kernel, which
    # only L2.14's cover test sees
    real = maps.InducedSpectrumMap.analyze

    def analyze(self, bound):
        res = real(self, bound)
        if len(res.mapping) < 2:
            return res
        return maps.PiAnalysis(res.mapping[:-1] + res.mapping[:1], res.injective,
                               res.surjective, res.continuity_ok, res.homeomorphism)

    monkeypatch.setattr(maps.InducedSpectrumMap, "analyze", analyze)
    assert catalog_failures() == {"L2.14"}


def test_a_preimage_joined_with_2m_fails_the_induced_map_checks(monkeypatch):
    # joined only while the join stays proper: an improper point would raise
    # out of the whole catalog instead of failing a check
    real = QuotientMap.preimage_submodule

    def preimage_submodule(self, N2):
        pre = real(self, N2)
        joined = pre.plus(pre.module.full_submodule.scaled(2))
        return joined if joined.is_proper else pre

    monkeypatch.setattr(QuotientMap, "preimage_submodule", preimage_submodule)
    assert catalog_failures() == {"L2.14", "T2.15", "C2.16"}


def test_a_preimage_collapsed_to_the_kernel_fails_every_transport_check(monkeypatch):
    # every nonzero target point pulls back to the kernel, which is often
    # not a point: L2.14 and T2.15 read one pullback table, and each must
    # fail on it rather than raise
    real = QuotientMap.preimage_submodule

    def preimage_submodule(self, N2):
        return real(self, N2 if N2.is_zero else self.target.zero_submodule)

    monkeypatch.setattr(QuotientMap, "preimage_submodule", preimage_submodule)
    assert catalog_outcomes() == {("L2.14", "fail"), ("T2.15", "fail"), ("C2.16", "fail")}


def test_a_smith_transform_with_its_last_two_columns_swapped_fails_the_projection_checks(
        monkeypatch):
    # V^-1's last two rows swap, the inverse of swapping V's last two
    # columns, so V^-1 stays unimodular and nothing raises: each projection
    # lifts the kept columns against the wrong invariants.  The
    # transform-free invariants behind every colon are untouched
    real = intlinalg.smith_normal_form
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("smith_normal_form") is real]
    assert importers == [intlinalg]

    def smith_normal_form(rows, ncols, transforms=True):
        inv, Vinv = real(rows, ncols, transforms)
        if not transforms or ncols < 2:
            return inv, Vinv
        return inv, Vinv[:-2] + (Vinv[-1], Vinv[-2])

    monkeypatch.setattr(intlinalg, "smith_normal_form", smith_normal_form)
    assert catalog_outcomes() == {("L2.14", "fail"), ("T2.15", "fail"), ("C2.16", "fail")}


# The lattice rows: subs ascends in size, so position 0 is the zero
# submodule and the last position is M, in every lattice.


def corrupt_containment(monkeypatch, edit):
    """Apply edit to the rows of every lattice's containment table `up`."""
    real = SubmoduleLattice.up.func

    def up(self):
        table = list(real(self))
        edit(table)
        return tuple(table)

    faulty = cached_property(up)
    faulty.__set_name__(SubmoduleLattice, "up")
    monkeypatch.setattr(SubmoduleLattice, "up", faulty)


def test_zero_reported_to_contain_m_fails_the_law_checks(monkeypatch):
    # joins with M now land on 0, and L2.14 looks for a primary zero
    # submodule above the kernel M
    def edit(table):
        table[-1] |= 1

    corrupt_containment(monkeypatch, edit)
    assert catalog_outcomes() == {("T2.1", "fail"), ("T2.4", "fail"), ("L2.14", "fail")}


def test_m_reported_not_to_contain_zero_fails_the_containment_check(monkeypatch):
    # T2.1 reads containment off the element masks and holds the table to
    # them; T2.4 reads the table only where it says yes, so it misses this
    def edit(table):
        table[0] &= ~(1 << len(table) - 1)

    corrupt_containment(monkeypatch, edit)
    assert catalog_outcomes() == {("T2.1", "fail")}


@pytest.mark.parametrize("name", ["join", "meet"])
def test_a_join_or_meet_of_zero_with_itself_at_m_fails_the_lattice_laws(monkeypatch, name):
    real = getattr(SubmoduleLattice, name)

    def fault(self, i, j):
        return len(self.subs) - 1 if (i, j) == (0, 0) else real(self, i, j)

    monkeypatch.setattr(SubmoduleLattice, name, fault)
    assert catalog_outcomes() == {("T2.1", "fail"), ("T2.4", "fail")}


def test_a_zero_submodule_reported_not_primary_fails_the_spectrum_checks(monkeypatch):
    # the other way round, a zero submodule reported primary, raises the
    # library's own InvariantError (its image under rho is not prime) out of
    # the whole catalog; this way every check that meets it fails
    real = spectra._is_primary
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("_is_primary") is real]
    assert importers == [spectra]
    monkeypatch.setattr(spectra, "_is_primary", lambda Q: not Q.is_zero and real(Q))
    assert catalog_outcomes() == {
        ("L2.6", "fail"), ("C2.7", "fail"), ("L2.14", "fail"), ("T2.17", "fail"), ("E3.3", "fail"),
    }


def test_a_reduced_ring_twice_too_large_fails_the_continuity_check(monkeypatch):
    # R/Ann(M) presented as Z/(2a): the surjectivity-guarded checks switch
    # off wherever the extra prime 2 has no fiber, and P2.10 sees that prime
    # not lie over Ann(M) = (a)
    real = maps.reduced_ring
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("reduced_ring") is real]
    assert importers == [maps]

    def reduced_ring(M):
        rr = real(M)
        return maps.ReducedRing(rr.source, rr.ann, BaseRing(2 * rr.ann.gen))

    monkeypatch.setattr(maps, "reduced_ring", reduced_ring)
    assert catalog_outcomes() == {("P2.10", "fail")}


def colon_radical_is_the_colon(monkeypatch):
    monkeypatch.setattr(GradedSubmodule, "colon_radical", lambda self: self.colon())


def transport_answers_n_itself(monkeypatch):
    real = spectra._graded_radical
    importers = [module for key, module in list(sys.modules.items())
                 if key.startswith("gpspec") and vars(module).get("_graded_radical") is real]
    assert importers == [spectra]

    def _graded_radical(N, bound):
        status, blocks, tried, reason = real(N, bound)
        if tried[-1] == "finite-quotient-transport":
            blocks = N.blocks
        return status, blocks, tried, reason

    monkeypatch.setattr(spectra, "_graded_radical", _graded_radical)


@pytest.mark.parametrize("fault", [colon_radical_is_the_colon, transport_answers_n_itself])
def test_a_transport_radical_left_at_n_fails_t2_17_or_breaks_the_image_invariant(
        monkeypatch, fault):
    # either way the transport radical N + rad(N : M)M of a primary N is N.
    # On the integers only T2.17 reads it, and fails.  On a finite module
    # the natural map's image of a non-prime point, the colon (4) of 4Z12,
    # is not prime, and maps.primary_point_image raises out of the catalog
    # (`gps check` exits 4) before any check reads the map
    fault(monkeypatch)
    z, z12 = ([i for i in INSTANCES if i[0] == stem] for stem in ("z", "z12"))
    assert catalog_outcomes(z) == {("T2.17", "fail")}
    with pytest.raises(InvariantError, match=r"natural image \(4\) of 4Z12 is not prime"):
        catalog_outcomes(z12)
