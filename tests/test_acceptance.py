"""Acceptance criteria, one test per criterion.

Each test prints one line `ACCEPTANCE <n> PASS (<t> s): <what>` on success and
asserts its stated time budget.  All comparisons are exact.
"""

import io
import time
from functools import lru_cache
from itertools import product
from pathlib import Path

import oracles
from gpspec.algebra import (
    BaseRing,
    GradedModule,
    GradingGroup,
    enumerate_submodules,
)
from gpspec.cli import run as cli_run
from gpspec.dsl import model_text, parse_model
from gpspec.harness import ROSTER
from gpspec.maps import analyze_natural_map
from gpspec.spectra import (
    in_primary_spectrum,
    is_graded_primary,
    is_graded_prime,
)
from gpspec.topology import (
    analyze_space,
    basic_open,
    build_space,
    specialization_closures,
    variety,
    variety_membership,
)

MODELS = Path(__file__).parent.parent / "models"
Z = BaseRing(0)
Z2G = GradingGroup((2,))


def _report(n, started, what):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {n} PASS ({elapsed:.3f} s): {what}")
    return elapsed


@lru_cache(maxsize=1)
def corpus():
    """The oracle-equivalence corpus: Z_n over itself for 2 <= n <= 36, and
    two-factor products over Z graded by Z2 and by Z2 x Z2."""
    instances = [
        GradedModule(BaseRing(n), Z2G, [(n, (0,))]) for n in range(2, 37)
    ]
    picks = (2, 3, 4, 8, 9)
    for p, q in product(picks, picks):
        instances.append(GradedModule(Z, Z2G, [(p, (0,)), (q, (1,))]))
        instances.append(
            GradedModule(Z, GradingGroup((2, 2)), [(p, (1, 0)), (q, (0, 1))])
        )
    return tuple(instances)


def test_acceptance_1_integer_instance():
    started = time.perf_counter()
    M = GradedModule(Z, Z2G, [(0, (0,))])
    four = M.submodule([(4,)])
    assert in_primary_spectrum(four) is True
    assert is_graded_prime(four) is False
    elapsed = _report(1, started, "4Z is primary-spectral but not prime in Z")
    assert elapsed < 0.1


def test_acceptance_2_union_inclusion_is_strict():
    started = time.perf_counter()
    M = GradedModule(Z, Z2G, [(0, (0,)), (0, (1,))])
    N = M.submodule([(4, 0)])
    N2 = M.submodule([(0, 4)])
    P = M.zero_submodule
    assert is_graded_prime(P)
    assert variety_membership(N.intersect(N2), P, star=True)
    assert not variety_membership(N, P, star=True)
    assert not variety_membership(N2, P, star=True)
    elapsed = _report(2, started, "strictness witnessed at the zero point of Z x Z")
    assert elapsed < 0.1


def test_acceptance_3_trivial_topology_instance():
    started = time.perf_counter()
    M = GradedModule(BaseRing(8), Z2G, [(8, (0,))])
    sp = build_space(M)
    assert [q.text() for q in sp.points] == ["0", "4Z8", "2Z8"]
    assert set(sp.closed_masks) == {0, sp.full_mask}
    for r in (1, 3, 5, 7):
        assert basic_open(sp, r) == sp.full_mask
    for r in (0, 2, 4, 6):
        assert basic_open(sp, r) == 0
    elapsed = _report(3, started, "three points, trivial topology, unit/nilpotent base sets")
    assert elapsed < 0.1


def test_acceptance_4_two_point_space():
    started = time.perf_counter()
    M = GradedModule(BaseRing(6), Z2G, [(6, (0,))])
    sp = build_space(M)
    assert [q.element_set() for q in sp.points] == [
        frozenset({(0,), (3,)}),
        frozenset({(0,), (2,), (4,)}),
    ]
    n3, n2 = M.submodule([(3,)]), M.submodule([(2,)])
    assert sp.members(variety(sp, n3)) == [n3]
    assert sp.members(variety(sp, n2)) == [n2]
    assert analyze_space(sp).irreducible is False
    elapsed = _report(4, started, "the two-point space and its varieties")
    assert elapsed < 0.1


def test_acceptance_5_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for M in corpus():
        window = oracles.scalar_window(M)
        for N in enumerate_submodules(M):
            got_colon = N.colon()
            assert {
                r for r in window if got_colon.contains_element(r)
            } == oracles.colon_oracle(N), (M.text(), N.text())
            if N.is_proper:
                want_prime, wit = oracles.prime_oracle(N)
                assert is_graded_prime(N) == want_prime, (M.text(), N.text(), wit)
                want_primary, wit = oracles.primary_oracle(N)
                assert is_graded_primary(N) == want_primary, (M.text(), N.text(), wit)
            checked += 1
        ring = M.ring
        if ring.is_finite:
            for I in ring.ideals():
                got = I.radical()
                assert {
                    r for r in range(ring.modulus) if got.contains_element(r)
                } == oracles.radical_oracle(I), (M.text(), I.text())
        else:
            # radical over Z: the set of r with a power in (c), on a window
            for N in enumerate_submodules(M):
                c = N.colon().gen
                got = N.colon().radical().gen
                kmax = max(c.bit_length(), 1)
                window_set = {
                    r
                    for r in range(c + 1)
                    if any((r**k) % c == 0 for k in range(1, kmax + 1))
                } if c else {0}
                assert window_set == {r for r in range(c + 1) if got and r % got == 0} or (
                    c == 0 and got == 0
                ), (M.text(), N.text())
    elapsed = _report(
        5, started, f"prime/primary/colon/radical oracles over {len(corpus())} instances "
        f"({checked} submodules)"
    )
    assert elapsed < 20


def test_acceptance_6_theorem_harness_over_corpus():
    started = time.perf_counter()
    covered = set()
    for path in sorted(MODELS.glob("*.gps")):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(["check", str(path)], stdout=out, stderr=err)
        assert code == 0, (path.stem, out.getvalue(), err.getvalue())
        for line in out.getvalue().splitlines():
            if line.startswith("PASS ") and "(vacuous)" not in line:
                covered.add(line.split()[1].rstrip(":"))
    assert covered >= set(ROSTER), sorted(set(ROSTER) - covered)
    elapsed = _report(
        6, started, f"zero failures; every catalog id non-vacuous somewhere "
        f"({len(ROSTER)} ids)"
    )
    assert elapsed < 30


def test_acceptance_7_five_way_equivalence():
    started = time.perf_counter()
    instances = 0
    for M in corpus():
        res = analyze_natural_map(M, "primary")
        if not res.surjective.is_true:
            continue
        sp = res.space
        rep = analyze_space(sp)
        separates = all(
            variety(sp, sp.points[i]) != variety(sp, sp.points[j])
            for i in range(len(sp.points))
            for j in range(i + 1, len(sp.points))
        )
        closures = specialization_closures(sp)
        t0 = len(set(closures)) == len(closures)
        fibers_small = all(mask.bit_count() <= 1 for _, mask in res.fibers)
        injective = res.injective.is_true
        spectral = rep.spectral
        assert len({separates, t0, fibers_small, injective, spectral}) == 1, M.text()
        instances += 1
    assert instances > 0
    elapsed = _report(
        7, started, f"five separation statements agree on {instances} instances"
    )
    assert elapsed < 5


def test_acceptance_8_parser_and_cli_contract():
    started = time.perf_counter()
    # round-trip identity on the whole corpus
    for path in sorted(MODELS.glob("*.gps")):
        model = parse_model(path.read_text())
        canon = model_text(model)
        assert parse_model(canon) == model
        assert model_text(parse_model(canon)) == canon
    # byte-identical repeated runs
    for argv in (
        ["pspec", str(MODELS / "z6.gps")],
        ["topology", str(MODELS / "z8.gps"), "--format", "json"],
        ["check", str(MODELS / "z12.gps"), "--format", "json"],
    ):
        outs = []
        for _ in range(2):
            out = io.StringIO()
            assert cli_run(list(argv), stdout=out, stderr=io.StringIO()) == 0
            outs.append(out.getvalue())
        assert outs[0] == outs[1]
    # exit-code contract: deliberately failing check, then a malformed file
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(
        ["check", str(MODELS / "z6.gps"), "--theorem", "selftest.fail"],
        stdout=out, stderr=err,
    ) == 1
    bad = MODELS.parent / "tests" / "_malformed_tmp.gps"
    bad.write_text("module = Z@0\nring = Z\n")
    try:
        assert cli_run(["parse", str(bad)], stdout=io.StringIO(), stderr=io.StringIO()) == 2
    finally:
        bad.unlink()
    elapsed = _report(8, started, "round-trips, determinism and exit codes")
    assert elapsed < 1
