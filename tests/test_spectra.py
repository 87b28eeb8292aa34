import time
from functools import reduce

import pytest

import oracles
from gpspec import algebra, numtheory
from gpspec.algebra import (
    DEFAULT_ENUM_BOUND,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    enumerate_submodules,
    ideal_times_module,
)
from gpspec.spectra import (
    ImproperSubmoduleError,
    Trilean,
    graded_radical,
    in_primary_spectrum,
    is_cancellation,
    is_graded_maximal,
    is_graded_primary,
    is_graded_prime,
    is_multiplication,
    spectrum_points,
)

Z = BaseRing(0)
Z2G = GradingGroup((2,))


def zmod(n, ring=None):
    ring = ring or BaseRing(n)
    return GradedModule(ring, Z2G, [(n, (0,))])


def zxz():
    return GradedModule(Z, Z2G, [(0, (0,)), (0, (1,))])


# -- prime / primary decision procedures -------------------------------------


def test_prime_examples():
    M = zxz()
    assert is_graded_prime(M.zero_submodule)  # {(0,0)} in Z x Z
    M8 = zmod(8)
    assert not is_graded_prime(M8.submodule([(4,)]))
    assert is_graded_prime(M8.submodule([(2,)]))


def test_primary_examples():
    MZ = GradedModule(Z, Z2G, [(0, (0,))])
    assert is_graded_primary(MZ.submodule([(4,)]))
    M6 = zmod(6)
    assert not is_graded_primary(M6.zero_submodule)
    M8 = zmod(8)
    assert is_graded_primary(M8.zero_submodule)


def test_properness_errors():
    M6 = zmod(6)
    with pytest.raises(ImproperSubmoduleError):
        is_graded_prime(M6.full_submodule)
    with pytest.raises(ImproperSubmoduleError):
        is_graded_primary(M6.full_submodule)
    with pytest.raises(ImproperSubmoduleError):
        graded_radical(M6.full_submodule)
    with pytest.raises(ImproperSubmoduleError):
        in_primary_spectrum(M6.full_submodule)


def test_prime_primary_match_exhaustive_oracle():
    for M in oracles.oracle_corpus():
        for N in enumerate_submodules(M):
            if not N.is_proper:
                continue
            want_prime, wit = oracles.prime_oracle(N)
            assert is_graded_prime(N) == want_prime, (M.text(), N.text(), wit)
            want_primary, wit = oracles.primary_oracle(N)
            assert is_graded_primary(N) == want_primary, (M.text(), N.text(), wit)


def replaced_route_corpus():
    """Proper submodules on which the closed forms are compared with the
    enumeration routes they replaced: all of four finite modules, and
    submodules with finite quotient of two infinite ones."""
    finite = [
        GradedModule(Z, Z2G, [(4, (0,)), (8, (1,)), (2, (0,))]),
        GradedModule(Z, Z2G, [(6, (0,)), (6, (0,))]),
        GradedModule(Z, Z2G, [(16, (0,)), (16, (0,))]),
        GradedModule(Z, Z2G, [(8, (0,)), (9, (1,))]),
        GradedModule(Z, Z2G, [(12, (0,)), (10, (1,))]),  # three primes in e = 60
    ]
    subs = [N for M in finite for N in enumerate_submodules(M) if N.is_proper]
    z_z4 = GradedModule(Z, Z2G, [(0, (0,)), (4, (1,))])
    for gens in ([(4, 0)], [(6, 0)], [(12, 0), (0, 2)], [(2, 0), (0, 1)],
                 [(9, 0), (0, 2)], [(30, 0)], [(8, 0), (0, 2)], [(1, 0)]):
        subs.append(z_z4.submodule(gens))
    z_z = zxz()
    for gens in ([(4, 0), (0, 6)], [(2, 0), (0, 1)], [(12, 0), (0, 18)],
                 [(5, 0), (0, 25)], [(1, 0), (0, 8)], [(6, 0), (0, 6)],
                 [(30, 0), (0, 1)], [(3, 0), (0, 3)]):
        subs.append(z_z.submodule(gens))
    return subs


def test_closed_forms_match_replaced_routes():
    # the divisor loop and the quotient transport are the oracles here
    subs = replaced_route_corpus()
    assert len(subs) == 31 + 29 + 82 + 11 + 23 + 16
    assert max(len(numtheory.factorize(N.colon().gen)) for N in subs) == 3
    for N in subs:
        case = (N.module.text(), N.text())
        assert N.quotient_is_finite(), case
        colon = N.colon()
        assert is_graded_prime(N) == oracles.divisor_order_condition(N, colon), case
        assert is_graded_primary(N) == oracles.divisor_order_condition(
            N, colon.radical()
        ), case
        assert graded_radical(N).require() == oracles.transport_radical(N), case


# -- graded radical -----------------------------------------------------------


def test_radical_examples():
    MZ = GradedModule(Z, Z2G, [(0, (0,))])
    r = graded_radical(MZ.submodule([(4,)]))
    assert r.status == "submodule" and r.submodule == MZ.submodule([(2,)])
    M8 = zmod(8)
    r8 = graded_radical(M8.zero_submodule)
    assert r8.submodule == M8.submodule([(2,)])
    M = zxz()
    rp = graded_radical(M.zero_submodule)
    assert rp.submodule == M.zero_submodule  # prime already


def test_radical_against_prime_intersection_oracle():
    # finite instances: the radical must equal the intersection of the primes
    # containing N, computed directly over the enumerated prime spectrum
    for M in oracles.oracle_corpus():
        subs = enumerate_submodules(M)
        primes = [P for P in subs if P.is_proper and is_graded_prime(P)]
        for N in subs:
            if not N.is_proper:
                continue
            over = [P for P in primes if P.contains(N)]
            assert over, (M.text(), N.text())  # every proper N lies in a prime
            want = reduce(GradedSubmodule.intersect, over)
            assert graded_radical(N).require() == want, (M.text(), N.text())


def test_radical_strategy_consistency_multiplication():
    # on multiplication modules every strategy must give the same radical.
    # graded_radical answers by the first strategy that applies, so this test
    # is the one place that compares them: the default bound reaches the
    # quotient transport, bound=1 rules the transport out and reaches the
    # colon-radical identity, and both must equal the identity computed here
    modules = [M for M in oracles.oracle_corpus() if is_multiplication(M).is_true]
    assert len(modules) == 5
    answered_by = set()
    for M in modules:
        for N in enumerate_submodules(M):
            if not N.is_proper:
                continue
            want = ideal_times_module(N.colon().radical(), M)
            for bound in (DEFAULT_ENUM_BOUND, 1):
                r = graded_radical(N, bound)
                answered_by.add(r.strategies[-1])
                assert r.require() == want, (M.text(), N.text(), r.strategies)
    assert answered_by == {
        "prime-itself", "finite-quotient-transport", "multiplication-identity"
    }


def test_primary_spectrum_examples():
    MZ = GradedModule(Z, Z2G, [(0, (0,))])
    four = MZ.submodule([(4,)])
    assert in_primary_spectrum(four)
    assert not is_graded_prime(four)
    M6 = zmod(6)
    assert not in_primary_spectrum(M6.zero_submodule)
    M8 = zmod(8)
    assert in_primary_spectrum(M8.submodule([(2,)]))


def test_spectrum_enumeration_examples():
    M6 = zmod(6)
    ps = spectrum_points(M6, "primary")
    assert [p.element_set() for p in ps] == [
        frozenset({(0,), (3,)}),
        frozenset({(0,), (2,), (4,)}),
    ]
    M8 = zmod(8)
    assert [p.text() for p in spectrum_points(M8, "prime")] == ["2Z8"]
    assert [p.text() for p in spectrum_points(M8, "primary")] == ["0", "4Z8", "2Z8"]


def test_spec_subset_of_primary_spectrum():
    for M in oracles.oracle_corpus():
        prime = set(spectrum_points(M, "prime"))
        primary = set(spectrum_points(M, "primary"))
        assert prime <= primary
        # colon of the radical of a primary point is a prime ideal
        for Q in primary:
            assert graded_radical(Q).require().colon().is_prime


def test_maximal_closed_form_matches_enumeration():
    for M in oracles.oracle_corpus():
        for N in enumerate_submodules(M):
            want = oracles.maximal_oracle(N)
            assert is_graded_maximal(N) == want, (M.text(), N.text())


def test_maximal_implies_prime_implies_primary():
    for M in oracles.oracle_corpus():
        subs = enumerate_submodules(M)
        for N in subs:
            if N.is_proper and is_graded_maximal(N):
                assert is_graded_prime(N)
                assert in_primary_spectrum(N)


# -- multiplication / cancellation ---------------------------------------------


def test_is_multiplication_examples():
    assert is_multiplication(zmod(6)).is_true
    res = is_multiplication(zxz())
    assert res.is_false
    N = res.witness
    assert ideal_times_module(N.colon(), zxz()) != N  # checkable witness
    assert is_multiplication(GradedModule(Z, Z2G, [(0, (0,))])).is_true


def test_is_multiplication_exhaustive_definition():
    for M in [zmod(6), zmod(8), GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))])]:
        claim = is_multiplication(M)
        truth = all(
            ideal_times_module(N.colon(), M) == N for N in enumerate_submodules(M)
        )
        assert claim.value == truth


def test_multiplication_past_the_bound_without_enumeration(monkeypatch):
    def forbidden(orders):
        raise AssertionError(f"subgroups of {orders} enumerated")

    monkeypatch.setattr(algebra, "_enumerate_block_subgroups", forbidden)
    p, q = 1000003, 1000033  # primes: |M| is far past the enumeration bound
    M = GradedModule(Z, Z2G, [(p, (0,)), (q, (1,))])
    assert M.size > DEFAULT_ENUM_BOUND
    assert is_multiplication(M).is_true
    r = graded_radical(M.zero_submodule)
    assert r.require() == M.zero_submodule
    assert r.strategies[-1] == "multiplication-identity"
    twin = GradedModule(Z, Z2G, [(p, (0,)), (p, (1,))])
    res = is_multiplication(twin)
    assert res.is_false
    N = res.witness
    assert ideal_times_module(N.colon(), twin) != N


def test_is_cancellation_examples():
    assert is_cancellation(GradedModule(Z, Z2G, [(0, (0,))])).is_true
    assert is_cancellation(zmod(6)).is_true
    res = is_cancellation(zmod(4, ring=Z))
    assert res.is_false
    I, J = res.witness
    M = zmod(4, ring=Z)
    assert ideal_times_module(I, M) == ideal_times_module(J, M) and I != J


def test_is_cancellation_exhaustive_finite_ring():
    for n in (4, 6, 12):
        ring = BaseRing(n)
        M = GradedModule(ring, Z2G, [(n, (0,)), (2 if n % 2 == 0 else 3, (1,))])
        claim = is_cancellation(M)
        ideals = ring.ideals()
        truth = all(
            ideal_times_module(I, M) != ideal_times_module(J, M)
            for i, I in enumerate(ideals)
            for J in ideals[i + 1 :]
        )
        assert claim.value == truth


def test_trilean_labels():
    assert Trilean.yes().label == "true"
    assert Trilean.no(1).label == "false"
    assert Trilean.unknown("x").label == "unknown"


def test_predicates_on_infinite_modules():
    # decisions over Z x Z never enumerate; spot-check hand-computed facts
    M = zxz()
    two_cross = M.submodule([(2, 0), (0, 1)])  # 2Z x Z
    assert is_graded_prime(two_cross)
    four_cross = M.submodule([(4, 0), (0, 1)])  # 4Z x Z
    assert not is_graded_prime(four_cross)
    assert is_graded_primary(four_cross)
    assert in_primary_spectrum(four_cross)
    mixed = M.submodule([(2, 0), (0, 3)])  # colon (6), orders 2 and 3
    assert not is_graded_prime(mixed)
    assert not is_graded_primary(mixed)
    # torsion beside a free part: (module factors over Z graded by Z2,
    # generators of N, prime, primary, radical generators or None for unknown)
    cases = [
        ([(0, 0), (2, 0)], [], False, False, None),
        ([(0, 0), (2, 1)], [(0, 1)], True, True, [(0, 1)]),
        ([(0, 0), (2, 1)], [], False, False, None),
        ([(0, 0), (0, 1)], [(0, 2)], False, False, None),
        ([(0, 0), (0, 1)], [(0, 1)], True, True, [(0, 1)]),
        ([(0, 0), (0, 1)], [(4, 0), (0, 6)], False, False, [(2, 0), (0, 6)]),
        ([(0, 0), (4, 1)], [(4, 0)], False, True, [(2, 0), (0, 2)]),
        ([(0, 0), (4, 1)], [(12, 0), (0, 2)], False, False, [(6, 0), (0, 2)]),
    ]
    for factors, gens, prime, primary, radical in cases:
        M = GradedModule(Z, Z2G, [(o, (d,)) for o, d in factors])
        N = M.submodule(gens)
        case = (M.text(), N.text())
        assert is_graded_prime(N) is prime, case
        assert is_graded_primary(N) is primary, case
        r = graded_radical(N)
        if radical is None:
            assert r.status == "unknown", case
        else:
            assert r.require() == M.submodule(radical), case


def test_radical_transport_on_infinite_module():
    # the quotient by 4Z x Z is finite, so the transport strategy applies
    M = zxz()
    four_cross = M.submodule([(4, 0), (0, 1)])
    r = graded_radical(four_cross)
    assert r.status == "submodule"
    assert r.submodule == M.submodule([(2, 0), (0, 1)])
    assert "finite-quotient-transport" in r.strategies
    # no strategy reaches 4Z x 0: the quotient is infinite, the module is
    # not multiplication, and the submodule is not prime
    stuck = graded_radical(M.submodule([(4, 0)]))
    assert stuck.status == "unknown"
    assert stuck.reason == "quotient infinite and module not multiplication"
    with pytest.raises(Exception):
        stuck.require()


def test_radical_unknown_past_the_bound_names_the_bound():
    # M/N is finite but larger than the bound; Z4 x Z4 in one degree is not
    # a multiplication module and 0 is not prime, so no strategy answers
    M = GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))])
    N = M.zero_submodule
    assert not is_graded_prime(N) and is_multiplication(M).is_false
    stuck = graded_radical(N, bound=1)
    assert stuck.status == "unknown"
    assert stuck.strategies == ("prime-itself", "finite-quotient-transport")
    assert stuck.reason == (
        "|M/N| = 16 exceeds enumeration bound 1 and module not multiplication"
    )


def test_cancellation_claim_with_free_factor():
    # the structural True for a free coordinate: distinct ideals really do
    # give distinct scaled modules
    M = GradedModule(Z, Z2G, [(0, (0,)), (2, (1,))])
    assert is_cancellation(M).is_true
    gens = [0, 2, 3, 4, 6, 8]
    scaled = [ideal_times_module(Z.ideal(g), M) for g in gens]
    assert len(set(scaled)) == len(gens)


def test_primariness_and_membership_never_run_rho(monkeypatch):
    # a colon that is not a prime power is refuted at its first small prime,
    # and a prime-power colon is settled by roots and Miller-Rabin; shapes of
    # the slowest pointwise queries: colons 2^4*91081*280591 (over Z/n) and
    # 5*33967*5585761, and (p^2), (p^3) for the 12-digit prime p
    def forbidden(n, budget):
        raise AssertionError(f"rho on {n}")

    monkeypatch.setattr(numtheory, "_brent", forbidden)
    n = 408904141936  # 2^4 * 91081 * 280591
    over_zn = GradedModule(BaseRing(n), GradingGroup((2, 2)),
                           [(n, (0, 0)), (8, (0, 0))])
    free = GradedModule(Z, GradingGroup((3,)), [(0, (2,))])
    p = 999999999989
    cases = [
        (over_zn.submodule([(n, 6), (511130177420, 3)]), False),
        (over_zn.submodule([(1635616567744, 4)]), False),
        (free.submodule([(948657719435,)]), False),  # 5 * 33967 * 5585761
        (free.submodule([(76545587,)]), False),
        (free.submodule([(p**2,)]), True),
        (free.submodule([(p**3,)]), True),
    ]
    for N, want in cases:
        assert is_graded_primary(N) is want, N
        assert in_primary_spectrum(N) is want, N


def test_primariness_of_a_41_digit_semiprime_is_prompt():
    # (10^20 + 39)(10^20 + 129) has no small factor, is past PSI13 and is no
    # perfect power: one Miller-Rabin witness refutes it, where factoring it
    # runs out the whole rho budget
    M = GradedModule(Z, Z2G, [(0, (0,))])
    N = M.submodule([((10**20 + 39) * (10**20 + 129),)])
    start = time.perf_counter()
    assert not is_graded_primary(N)
    assert not in_primary_spectrum(N)
    assert time.perf_counter() - start < 1
