import io
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import oracles
from gpspec import algebra, cli, harness, intlinalg, maps, numtheory, spectra, topology
from gpspec.algebra import DEFAULT_ENUM_BOUND, GradedModule, GradedSubmodule, QuotientMap
from gpspec.dsl import parse_model
from gpspec.harness import CATALOG, ROSTER, Check, UnknownCheckError, run_checks
from gpspec.spectra import Trilean

MODELS = Path(__file__).parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


def test_roster_is_the_documented_catalog():
    sections = (
        [f"T2.{i}" for i in (1, 2, 4)]
        + [f"P2.{i}" for i in (3, 5, 8, 10, 11)]
        + ["L2.6", "C2.7", "C2.9", "C2.12", "T2.13", "L2.14", "T2.15", "C2.16", "T2.17"]
        + ["P3.1", "P3.2", "E3.3", "T3.4", "T3.5"]
        + ["P4.1", "T4.2", "L4.3", "T4.4", "T4.5", "T4.6", "C4.7", "P4.8", "P4.9",
           "T4.10", "T4.11"]
        + ["EX1.4Z", "CE2.1", "EX4.2Z6"]
    )
    assert sorted(ROSTER) == sorted(sections)
    assert len(set(ROSTER)) == len(ROSTER) == 36
    assert "selftest.fail" not in ROSTER


def test_natural_map_shares_the_catalog_space():
    ctx = harness.Context(load("z4z8.gps"), "z4z8", DEFAULT_ENUM_BOUND, 0)
    assert ctx.rho.space is ctx.pspec
    # one ring spectrum and one reduced ring per run: P3.2 reads rho's
    # mapping, which indexes rho's ring spectrum
    assert ctx.ring_space is ctx.rho.ring_space
    assert ctx.reduced is ctx.rho.reduced


def test_one_ring_spectrum_per_module(monkeypatch):
    # rho and phi share the reduced ring and its spectrum, memoised with M
    calls = Counter()
    real = maps.build_ring_space

    def counted(ring):
        calls[ring] += 1
        return real(ring)

    monkeypatch.setattr(maps, "build_ring_space", counted)
    ctx = harness.Context(load("z8z9.gps"), "z8z9", DEFAULT_ENUM_BOUND, 0)
    assert ctx.rho.ring_space is ctx.phi.ring_space
    assert ctx.rho.reduced is ctx.phi.reduced is maps.reduced_ring(ctx.module)
    assert sum(calls.values()) == 1
    calls.clear()
    results = run_checks(load("z8z9.gps"), "all", "z8z9")
    assert not [r for r in results if r.status == "fail"]
    assert sum(calls.values()) == 1


def test_a_raising_check_is_an_error_result():
    # a guard with a bug: the run records it and goes on, the CLI exits 4
    # with no traceback, and the other checks report as before
    script = (
        "import sys\n"
        "from gpspec import cli, harness\n"
        "def broken(ctx):\n"
        "    return 1 / 0\n"
        "harness.CATALOG = tuple(\n"
        "    harness.Check(c.check_id, c.title, c.body, (broken,)) if c.check_id == 'T2.4'\n"
        "    else c for c in harness.CATALOG)\n"
        "raise SystemExit(cli.run(sys.argv[1:]))\n"
    )

    def gps(*argv):
        return subprocess.run([sys.executable, "-c", script, "check", "models/z6.gps", *argv],
                              capture_output=True, text=True, cwd=MODELS.parent)

    proc = gps("--format", "json")
    assert proc.returncode == 4
    assert proc.stderr == ""  # no traceback
    results = json.loads(proc.stdout)["results"]
    assert [r["id"] for r in results] == list(ROSTER)
    want = {r.check_id: r.status for r in run_checks(load("z6.gps"), "all", "z6")}
    assert {r["id"]: r["status"] for r in results} == {**want, "T2.4": "error"}
    error = next(r for r in results if r["id"] == "T2.4")
    assert error["detail"] == "ZeroDivisionError: division by zero"
    text = gps()
    assert text.returncode == 4 and "Traceback" not in text.stderr
    lines = text.stdout.splitlines()
    assert "ERROR T2.4: ZeroDivisionError: division by zero" in lines
    assert lines[-1] == "30 passed, 0 failed, 5 skipped, 1 errored on z6"


def test_star_varieties_are_computed_once_per_run(monkeypatch):
    # every star-variety consumer (T2.1, T2.2, P2.3, L2.6, C2.7) reads the
    # one memo of its space, so a whole run tests each radical against each
    # submodule at most once per spectrum
    calls = Counter()
    contains = GradedSubmodule.contains

    def counted(self, other):
        calls["contains"] += 1
        return contains(self, other)

    monkeypatch.setattr(GradedSubmodule, "contains", counted)
    results = run_checks(load("z8z9.gps"), "all", "z8z9")
    assert not [r for r in results if r.status == "fail"]
    assert calls["contains"] <= 144


def test_all_checks_pass_on_z6():
    results = run_checks(load("z6.gps"), "all", "z6")
    assert [r.check_id for r in results] == list(ROSTER)
    assert not [r for r in results if r.status == "fail"]
    non_vacuous = {r.check_id for r in results if r.status == "pass" and not r.vacuous}
    assert "EX4.2Z6" in non_vacuous
    assert "T4.11" in non_vacuous


def test_counterexample_instance_binds_to_zxz():
    results = {r.check_id: r for r in run_checks(load("zxz.gps"), ["CE2.1"], "zxz")}
    assert results["CE2.1"].status == "pass" and not results["CE2.1"].vacuous
    skipped = {r.check_id: r for r in run_checks(load("z6.gps"), ["CE2.1"], "z6")}
    assert skipped["CE2.1"].status == "skip"


def test_integer_instance_checks():
    results = {r.check_id: r for r in run_checks(load("z.gps"), "all", "z")}
    assert results["EX1.4Z"].status == "pass"
    assert results["T2.17"].status == "pass" and not results["T2.17"].vacuous
    # space-dependent checks skip on the infinite instance
    assert results["T2.4"].status == "skip"
    assert results["T4.11"].status == "skip"


def test_finite_module_past_the_bound():
    # the skips name |M| and the bound, and T2.17 sees a multiplication
    # module that is not cancellation (it is finite over Z)
    model = parse_model("group = Z2\nring = Z\nmodule = Z1000003@0 x Z1000033@1\n")
    results = {r.check_id: r for r in run_checks(model, "all", "big")}
    assert results["T2.17"].status == "pass" and results["T2.17"].vacuous
    skip = "|M| = 1000036000099 exceeds enumeration bound 20000: only pointwise checks apply"
    assert results["T2.4"].detail == skip and results["T4.11"].detail == skip
    assert sum(r.detail == skip for r in results.values()) == 31
    infinite = {r.check_id: r for r in run_checks(load("z.gps"), ["T2.4"], "z")}
    assert infinite["T2.4"].detail == "infinite instance: only pointwise checks apply"


def test_the_guards_keep_the_catalog_off_unenumerated_modules():
    # the `finite` guard is the catalog's only finiteness check: one element
    # past the bound of each finite model, and on the infinite ones, every
    # check that reads a Context table skips, and none raises or errors
    guarded = {c.check_id for c in CATALOG if harness.finite in c.requires} | {"EX4.2Z6"}
    infinite = []
    for path in sorted(MODELS.glob("*.gps")):
        model = parse_model(path.read_text())
        M = model.module
        if not M.is_finite:
            infinite.append(path.stem)
        bound = M.size - 1 if M.is_finite else DEFAULT_ENUM_BOUND
        results = run_checks(model, "all", path.stem, bound)
        assert not [r.check_id for r in results if r.status == "error"], path.stem
        assert guarded <= {r.check_id for r in results if r.status == "skip"}, path.stem
    assert infinite == ["z", "zxz"]


def test_vacuous_passes_are_flagged():
    # Z2 x Z2 in one degree is not a multiplication module, so the
    # multiplication-guarded implication passes vacuously
    results = {r.check_id: r for r in run_checks(load("z2z2_samedeg.gps"), "all", "s")}
    assert results["T2.2"].status == "pass" and results["T2.2"].vacuous
    assert results["P2.3"].status == "pass" and results["P2.3"].vacuous


def test_trivial_topology_example_binds():
    res8 = {r.check_id: r for r in run_checks(load("z8.gps"), ["E3.3"], "z8")}
    assert res8["E3.3"].status == "pass"
    resf = {r.check_id: r for r in run_checks(load("z2z2_field.gps"), ["E3.3"], "f")}
    assert resf["E3.3"].status == "pass"
    res6 = {r.check_id: r for r in run_checks(load("z6.gps"), ["E3.3"], "z6")}
    assert res6["E3.3"].status == "skip"


def test_unknown_check_id():
    with pytest.raises(UnknownCheckError):
        run_checks(load("z6.gps"), ["T9.9"], "z6")


def test_selftest_only_when_selected():
    results = run_checks(load("z6.gps"), "all", "z6")
    assert "selftest.fail" not in {r.check_id for r in results}
    forced = run_checks(load("z6.gps"), ["selftest.fail"], "z6")
    assert forced[0].status == "fail"


def test_full_corpus_no_failures_and_roster_covered():
    covered = set()
    for path in sorted(MODELS.glob("*.gps")):
        results = run_checks(parse_model(path.read_text()), "all", path.stem)
        bad = [r for r in results if r.status == "fail"]
        assert not bad, (path.stem, [(r.check_id, r.detail) for r in bad])
        covered |= {
            r.check_id for r in results if r.status == "pass" and not r.vacuous
        }
    assert covered >= set(ROSTER)


def test_star_masks_equal_the_hnf_star_varieties_on_models():
    # the star table against one HNF containment per (submodule, point) on
    # both module spectra, and the radical core's mask AND against a fold of
    # HNF intersections on every subset the catalog quantifies over
    finite = 0
    for path in sorted(MODELS.glob("*.gps")):
        ctx = harness.Context(parse_model(path.read_text()), path.stem, DEFAULT_ENUM_BOUND, 0)
        if not ctx.finite:
            continue
        finite += 1
        for sp in (ctx.pspec, ctx.spec):
            assert topology.star_masks(sp) == tuple(
                oracles.hnf_star_mask(sp, N) for N in ctx.subs
            ), (path.stem, sp.kind)
        for mask in ctx.subset_masks(ctx.pspec):
            assert topology.radical_core(ctx.pspec, mask) == oracles.hnf_radical_core(
                ctx.pspec, mask), (path.stem, mask)
    assert finite >= 10


def test_catalog_titles_unique():
    titles = [c.title for c in CATALOG]
    assert len(set(titles)) == len(titles)


def test_sampled_subset_path_is_deterministic():
    # the fifteen-point space exceeds the exhaustive-subset cutoff, so the
    # seeded sampler kicks in; identical seeds must give identical reports
    model = load("z2cube.gps")
    a = run_checks(model, ["P4.1", "T4.4"], "z2cube", seed=7)
    b = run_checks(model, ["P4.1", "T4.4"], "z2cube", seed=7)
    assert [(r.status, r.detail) for r in a] == [(r.status, r.detail) for r in b]
    assert all(r.status == "pass" for r in a)


def test_trivial_grading_group_instance():
    results = run_checks(load("z4_trivial_group.gps"), "all", "t")
    assert not [r for r in results if r.status == "fail"]


def test_guards_run_in_declared_order_before_the_body():
    calls = []

    def go_on(ctx):
        calls.append("go_on")

    def vacuous(ctx):
        calls.append("vacuous")
        return 0, "hypothesis fails"

    def body(ctx):
        calls.append("body")
        return 1, "ran"

    assert Check("x", "t", body, (go_on, vacuous, go_on)).fn(None) == (0, "hypothesis fails")
    assert calls == ["go_on", "vacuous"]
    calls.clear()
    assert Check("x", "t", body, (go_on,)).fn(None) == (1, "ran")
    assert calls == ["go_on", "body"]


def test_surjectivity_guard_binds_the_surjective_statements(monkeypatch):
    # every finite corpus model has a surjective natural map, so a
    # non-surjective one is faked: exactly the statements that assume
    # surjectivity must skip, and P2.11 must pass vacuously
    real = harness.analyze_natural_map

    def not_onto(M, source="primary", bound=DEFAULT_ENUM_BOUND):
        res = real(M, source, bound)
        if source != "primary":
            return res
        fields = {name: getattr(res, name) for name in type(res).__slots__}
        return type(res)(**{**fields, "surjective": Trilean.no(None)})

    monkeypatch.setattr(harness, "analyze_natural_map", not_onto)
    results = run_checks(load("z6.gps"), "all", "z6")
    skipped = {
        r.check_id for r in results
        if r.status == "skip" and r.detail == "natural map not surjective"
    }
    assert skipped == {"T2.13", "T3.4", "T3.5", "T4.5", "C4.7", "T4.10", "T4.11"}
    p211 = next(r for r in results if r.check_id == "P2.11")
    assert p211.status == "pass" and p211.vacuous


def test_guards_survive_a_rebuilt_catalog_entry(monkeypatch):
    # a Check rebuilt from (check_id, title, fn) keeps its guards, so a
    # wrapper around `fn` sees the same outcomes as the catalog itself
    rebuilt = tuple(Check(c.check_id, c.title, c.fn) for c in CATALOG)
    for name in ("z.gps", "z2z2_samedeg.gps", "z12.gps"):
        model = load(name)
        want = run_checks(model, "all", name)
        with monkeypatch.context() as m:
            m.setattr(harness, "CATALOG", rebuilt)
            got = run_checks(model, "all", name)
        assert [(r.check_id, r.status, r.detail, r.vacuous) for r in got] == [
            (r.check_id, r.status, r.detail, r.vacuous) for r in want
        ]


def test_repeated_subset_member_is_one_point(tmp_path):
    # a member listed twice, or two names for one submodule, is one point of
    # the named subset: `gps check` passes and the subset is that point
    head = (
        "group = Z2\nring = Z6\nmodule = Z6@0\n"
        "submodule N2 = (2)\nsubmodule N3 = (3)\nsubmodule F = (4)\n"
    )
    for members, point in (("N2, N2", "N2"), ("N3, N3", "N3"), ("N2, F", "N2")):
        text = f"{head}subset Y = {{{members}}}\n"
        path = tmp_path / "repeat.gps"
        path.write_text(text)
        err = io.StringIO()
        assert cli.run(["check", str(path)], stdout=io.StringIO(), stderr=err) == 0, err.getvalue()
        model = parse_model(text)
        ctx = harness.Context(model, "repeat", DEFAULT_ENUM_BOUND, 0)
        point_mask = 1 << ctx.pspec.index_of(model.named_submodules[point])
        assert ctx.named_subset_masks(ctx.pspec) == [point_mask], members


def test_catalog_lattice_work_is_pinned(monkeypatch):
    # the catalog answers pairs of enumerated submodules, star varieties
    # and radical cores from the lattice table: count the HNF plus,
    # intersect and contains calls and the variety calls of a whole run; the
    # counts are deterministic, so any return of per-pair HNF or variety
    # work changes them (the run made 1,280 contains and 1,236 variety
    # calls when star varieties and radical cores took the HNF route, and
    # 179 plus and 1,204 variety calls when every quotient map built its own
    # target module, and 1,013 variety calls when the natural maps took their
    # image identities over one submodule per colon, and 1,005 variety calls
    # when C2.16 analysed its own zero-kernel projection)
    counts = Counter()

    def counted(op):
        body = getattr(GradedSubmodule, op)

        def counted_body(self, other):
            counts[op] += 1
            return body(self, other)

        monkeypatch.setattr(GradedSubmodule, op, counted_body)

    real_variety = topology.variety

    def counted_variety(*args, **kwargs):
        counts["variety"] += 1
        return real_variety(*args, **kwargs)

    counted("plus")
    counted("intersect")
    counted("contains")
    for module in (topology, harness, maps):
        monkeypatch.setattr(module, "variety", counted_variety)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert counts["contains"] == 0
    assert counts == {"plus": 107, "variety": 997}


def test_catalog_divisors_are_pinned(monkeypatch):
    # the block enumeration lists the divisors of each order once per row,
    # not once per partial lattice below it (127 calls, 85 of them from the
    # enumeration, when it did), and enumerates each quotient presentation
    # once (111 calls when every quotient map built its own target), and
    # lists the colon ideals of a module once (70 calls when each natural map
    # listed the reduced ring's ideals); the count is deterministic
    calls = Counter()
    real = numtheory.divisors

    def counted(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(numtheory, "divisors", counted)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert sum(calls.values()) == 69
    assert set(calls) == {1, 2, 4, 8}


def test_catalog_elimination_work_is_pinned(monkeypatch):
    # every degree of Z4@0 x Z8@1 x Z2@0 has one or two columns, so HNFs and
    # quotient invariants are gcds and extended gcds (226 transform-free
    # Smith eliminations and 766 echelons when only one column had a closed
    # form); the
    # quotient maps alone run the Smith elimination, for their transforms,
    # one per degree of each kernel (66 when C2.16 built its own M -> M/0)
    calls = Counter()
    real_snf, real_echelon = intlinalg.smith_normal_form, intlinalg._Echelon

    def counted_snf(rows, ncols, transforms=True):
        calls["snf", transforms] += 1
        return real_snf(rows, ncols, transforms)

    class CountedEchelon(real_echelon):
        def __init__(self, *args, **kwargs):
            calls["echelon"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted_snf)
    monkeypatch.setattr(intlinalg, "_Echelon", CountedEchelon)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert (calls["snf", False], calls["echelon"], calls["snf", True]) == (0, 0, 64)


def test_catalog_factors_each_colon_once(monkeypatch):
    # the radical of a colon is memoised with the module by the ideal, so a
    # whole run factors each distinct colon generator once per module (the
    # run calls factorize 2,772 times when every colon radical factors
    # afresh); the count is deterministic, and 69 of the calls come from
    # numtheory.divisors (127 of 199 when the enumeration listed an order's
    # divisors once per partial lattice; 183 calls in all when membership in
    # the primary spectrum also factored the prime colon of each prime point;
    # 150, 111 of them from divisors, when every quotient map built its own
    # target module; 94, 70 of them from divisors, when each natural map
    # listed the reduced ring's ideals)
    calls = Counter()
    real = numtheory.factorize

    def counted(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(numtheory, "factorize", counted)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert sum(calls.values()) == 93
    assert set(calls) == {1, 2, 4, 8}


def test_catalog_builds_one_module_per_presentation(monkeypatch):
    # the quotient maps and permutations of one target presentation share
    # one module, interned in the source's memo, and a target presented as
    # the source is the source (the run built 34 modules when every map
    # built its own target); the memo never holds its own module
    built = []
    real = GradedModule.__init__

    def counted(self, *args):
        built.append(tuple(args[2]))
        real(self, *args)

    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    monkeypatch.setattr(GradedModule, "__init__", counted)
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert len(built) == len(set(built)) == 20
    assert all(value is not model.module for value in model.module.memo.values())


def test_catalog_transports_each_point_once(monkeypatch):
    # L2.14, T2.15 and C2.16 read one analysed induced map per projection,
    # and the map analyses loop over the colon ideals instead of the
    # submodules: the run pulls back each (projection, target point) pair
    # once (487 preimages, 112 enumerations and 885 membership tests when
    # both checks pulled back every point, L2.14 tested each transported
    # point's membership and every induced map walked the submodules; 259
    # preimages and 228 images when L2.14 pushed every primary point above
    # each kernel forward and C2.16 analysed its own M -> M/0); the counts
    # are deterministic
    calls, pairs = Counter(), set()

    def counted(owner, name):
        real = getattr(owner, name)

        def counted_fn(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        importers = [module for key, module in list(sys.modules.items())
                     if key.startswith("gpspec") and vars(module).get(name) is real]
        for module in importers:
            monkeypatch.setattr(module, name, counted_fn)

    counted(algebra, "enumerate_submodules")
    counted(spectra, "in_primary_spectrum")
    real_preimage = QuotientMap.preimage_submodule

    def preimage_submodule(self, N2):
        calls["preimage_submodule"] += 1
        pairs.add((real_preimage(self, self.target.zero_submodule), N2))  # (kernel, point)
        return real_preimage(self, N2)

    monkeypatch.setattr(QuotientMap, "preimage_submodule", preimage_submodule)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert calls == {"preimage_submodule": 228, "enumerate_submodules": 45,
                     "in_primary_spectrum": 201}
    assert len(pairs) == 228


def test_a_lone_C2_16_pulls_back_one_projection(monkeypatch):
    # C2.16 reads the zero-kernel projection's analysis from the Context,
    # which builds it on first use: a run of C2.16 alone pulls back the 31
    # primary points of M/0 = M once, not every kernel's target points
    calls = Counter()
    real = QuotientMap.preimage_submodule

    def preimage_submodule(self, N2):
        calls[real(self, self.target.zero_submodule)] += 1  # keyed by the kernel
        return real(self, N2)

    monkeypatch.setattr(QuotientMap, "preimage_submodule", preimage_submodule)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    (result,) = run_checks(model, ["C2.16"], "heavy")
    assert result.status == "pass"
    assert calls == {model.module.zero_submodule: 31}


def test_the_catalog_builds_only_the_projections_it_reads(monkeypatch):
    # Context.induced builds M -> M/K on first use: C2.16 alone builds the
    # projection onto M/0 (all 32 when the Context built every kernel's
    # projection at once), and the whole catalog builds each of the 32 once
    built = []
    real = QuotientMap.__init__

    def counted(self, source, kernel):
        built.append(kernel)
        real(self, source, kernel)

    monkeypatch.setattr(QuotientMap, "__init__", counted)
    model = parse_model("group = Z2\nring = Z\nmodule = Z4@0 x Z8@1 x Z2@0\n")
    (result,) = run_checks(model, ["C2.16"], "heavy")
    assert result.status == "pass"
    assert built == [model.module.zero_submodule]
    built.clear()
    results = run_checks(model, "all", "heavy")
    assert not [r for r in results if r.status == "fail"]
    assert len(built) == len(set(built)) == 32


@pytest.mark.parametrize("modulus, detail", [(2000, "4008000 instantiations"),
                                              (10**6, "1000004000000 instantiations")])
def test_P3_2_decides_every_residue_of_a_large_ring_by_its_ideal(modulus, detail):
    # P3.2 walks one scalar per ideal (r) of Z/n, 50 of them for n = 10^6,
    # and still counts all n residues and n^2 residue pairs, so the whole
    # catalog stays in bounded time however large n is
    model = parse_model(f"group = Z1\nring = Z{modulus}\nmodule = Z2@0\n")
    start = time.perf_counter()
    results = run_checks(model, "all", f"z{modulus}")
    elapsed = time.perf_counter() - start
    assert not [r for r in results if r.status in ("fail", "error")]
    (result,) = [r for r in results if r.check_id == "P3.2"]
    assert (result.status, result.detail) == ("pass", detail)
    assert elapsed < 5, elapsed


def test_P3_2_agrees_with_the_residue_walk_on_every_small_ring():
    # the differential half of the scalar classes: P3.2 by one scalar per
    # ideal against the walk over every residue and residue pair, on Z/n
    # for every n <= 60, with M = Z/n and with M = Z/d x Z/(n/d) for the
    # largest proper divisor d of n
    for n in range(2, 61):
        d = max(d for d in range(1, n) if n % d == 0)
        modules = [f"Z{n}@0"] + ([f"Z{d}@0 x Z{n // d}@1"] if d > 1 else [])
        for module in modules:
            model = parse_model(f"group = Z2\nring = Z{n}\nmodule = {module}\n")
            want, got = oracles.P3_2_routes(model, f"z{n}")
            assert want == got, (n, module)
            assert want[:2] == ("pass", f"{4 * n + n * n} instantiations"), (n, module)


def test_P3_2_computes_each_basic_open_once(monkeypatch):
    # D(r) depends on r only through the ideal (r), so P3.2 builds one basic
    # open per generator: over Z30 the 30 scalars and their 900 products
    # have the 8 divisors of 30 as generators
    calls = Counter()
    real = harness.basic_open

    def counted(space, r):
        calls[space.module.ring.ideal(r).gen] += 1
        return real(space, r)

    monkeypatch.setattr(harness, "basic_open", counted)
    (result,) = run_checks(load("z30.gps"), ["P3.2"], "z30")
    assert result.status == "pass"
    assert result.detail == "1020 instantiations"
    assert calls == {d: 1 for d in (1, 2, 3, 5, 6, 10, 15, 30)}
