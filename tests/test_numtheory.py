"""numtheory against sympy as an independent oracle: factorization,
primality, prime powers, divisors and radicals on every small n, on seeded
random n up to 10^24 and on the hard cases of each kernel (prime powers,
perfect powers of composites, balanced semiprimes, Carmichael numbers and
strong pseudoprimes)."""

import random
import time
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpspec import numtheory
from gpspec.algebra import InvariantError
from gpspec.numtheory import (
    PRIMORIAL,
    PROVEN_BELOW,
    PSI,
    PSI13,
    SMALL_PRIMES,
    TRIAL_BOUND,
    divisors,
    factorize,
    is_prime,
    prime_power_root,
    radical_int,
)
from gpspec.spectra import UnknownResultError
from sympy.ntheory.primetest import mr

PSI12 = 318665857834031151167461  # strong pseudoprime to the bases 2..37
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, PSI12)
CARMICHAEL = (561, 41041)
SEMIPRIMES = (
    999999999959 * 999999999989,  # the two largest 12-digit primes
    100000000003 * 100000000019,
    sympy.nextprime(345678901234) * sympy.prevprime(876543210987),
)
PRIME_POWERS = (
    2**100, 3**60, 1009**7, 1000003**3, (2**31 - 1) ** 2, 999999999989**2,
)
# the hardest in-range split above takes about 1 s on a shared 2-vCPU VM
HARDEST_SPLIT_BUDGET_S = 20


def agree(n):
    """Every function against sympy on n >= 1."""
    expected = sympy.factorint(n)
    got = factorize(n)
    assert got == expected and list(got) == sorted(expected), n
    assert is_prime(n) == sympy.isprime(n), n
    assert radical_int(n) == prod(expected), n
    assert prime_power_root(n) == power_root_of(expected), n


def power_root_of(factorization):
    """The prime of a prime power, else None, read off sympy's answer."""
    return next(iter(factorization)) if len(factorization) == 1 else None


def test_every_n_up_to_20000():
    for n in range(1, 20001):
        agree(n)
        assert divisors(n) == sympy.divisors(n), n
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)
    assert radical_int(0) == 0 and radical_int(-12) == 6


def test_small_inputs_never_leave_trial_division(monkeypatch):
    # below TRIAL_BOUND**2 trial division is the whole answer
    def forbidden(n):
        raise AssertionError(f"probable-prime test on {n}")

    monkeypatch.setattr(numtheory, "_probable_prime", forbidden)
    for n in [*range(1, 5000), *range(999000, 1002000)]:
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == sympy.factorint(n), n


def test_trial_division_edges(monkeypatch):
    # the sieve and the gcd settle everything below 1009**2, the square of
    # the least prime past TRIAL_BOUND
    assert SMALL_PRIMES == tuple(sympy.primerange(TRIAL_BOUND))
    assert PRIMORIAL == prod(SMALL_PRIMES)
    assert PROVEN_BELOW == sympy.nextprime(TRIAL_BOUND) ** 2 == 1009**2
    real = numtheory._probable_prime

    def guarded(n):
        assert n >= PROVEN_BELOW, f"probable-prime test on {n}"
        return real(n)

    monkeypatch.setattr(numtheory, "_probable_prime", guarded)
    edges = (
        997**2, 997 * 1009, 1009**2, 1000003, 1009 * 1013, PRIMORIAL,
        PRIMORIAL * 1009, 997**3 * 1009**2 * 1013, 2**40 * 1009 * 1013,
    )
    for n in (*edges, *range(PROVEN_BELOW - 3000, PROVEN_BELOW + 3000)):
        agree(n)


def test_psi_table():
    # psi_k is the least strong pseudoprime to the first k BASES (A014233):
    # each entry is composite, passes the strong test to those k bases and
    # is found composite by a later base
    assert len(PSI) == len(numtheory.BASES) and PSI[-1] == PSI13
    assert list(PSI) == sorted(PSI)
    for k, psi in enumerate(PSI, 1):
        assert not sympy.isprime(psi), k
        assert mr(psi, numtheory.BASES[:k]), k
        if k < len(PSI):
            assert not is_prime(psi), k


def test_primes_just_below_each_psi(monkeypatch):
    # the test stops once n < psi_k after k bases: every n just below psi_k
    # agrees with sympy
    for psi in PSI:
        for n in range(max(psi - 200, PROVEN_BELOW), psi):
            assert is_prime(n) == sympy.isprime(n), n
    # base 0 calls every n composite, so the largest prime below psi_k is
    # proven only if the test stops after the first k bases
    bases = numtheory.BASES
    for k, psi in enumerate(PSI, 1):
        p = sympy.prevprime(psi)
        if p >= PROVEN_BELOW:
            monkeypatch.setattr(numtheory, "BASES", bases[:k] + (0,) * (len(bases) - k))
            assert numtheory._probable_prime(p), k


def test_seeded_random_n_up_to_1e24():
    rng = random.Random(20240917)
    for _ in range(60):
        agree(rng.randrange(1, 10**rng.randrange(6, 25)))


def test_prime_powers_and_semiprimes():
    for n in PRIME_POWERS + SEMIPRIMES:
        agree(n)
    for n in PRIME_POWERS:
        assert divisors(n) == sympy.divisors(n), n


def test_carmichael_numbers_and_strong_pseudoprimes():
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n
        agree(n)


def test_base_41_is_the_witness_of_psi12(monkeypatch):
    assert not is_prime(PSI12)
    monkeypatch.setattr(numtheory, "BASES", numtheory.BASES[:-1])
    assert is_prime(PSI12)  # every base below 41 passes it


def test_primality_past_psi13_is_refused():
    with pytest.raises(UnknownResultError):
        is_prime(PSI13)  # composite, but a strong pseudoprime to every base
    with pytest.raises(UnknownResultError):
        is_prime(10**30 + 57)
    with pytest.raises(UnknownResultError):
        factorize(3 * (10**30 + 57))
    # a witness proves compositeness at any size
    assert not is_prime((10**30 + 57) * 1000003)
    assert not is_prime((10**30 + 57) ** 2)


def test_factors_below_psi13_of_any_product():
    # a product past PSI13 still factors when every part is provable
    n = 2**200 * 3**7 * 1000003**2 * (10**12 + 39) * (10**13 + 37)
    assert n > PSI13
    assert factorize(n) == {2: 200, 3: 7, 1000003: 2, 10**12 + 39: 1, 10**13 + 37: 1}
    assert radical_int(n) == 2 * 3 * 1000003 * (10**12 + 39) * (10**13 + 37)


def test_hardest_in_range_split_is_bounded():
    start = time.perf_counter()
    assert factorize(999999999959 * 999999999989) == {999999999959: 1, 999999999989: 1}
    assert time.perf_counter() - start < HARDEST_SPLIT_BUDGET_S


def test_rho_budget_ends_in_a_refusal(monkeypatch):
    monkeypatch.setattr(numtheory, "RHO_STEPS", 4096)
    with pytest.raises(UnknownResultError, match="4096 rho steps"):
        factorize(999999999959 * 999999999989)


def test_factorization_is_multiplied_back(monkeypatch):
    # a split that is not a factor must not pass as a factorization
    monkeypatch.setattr(numtheory, "_brent", lambda n, budget: 1000)
    monkeypatch.setattr(numtheory, "_probable_prime", lambda n: n != 1009 * 1013)
    with pytest.raises(InvariantError):
        factorize(1009 * 1013)


def test_factorize_does_not_call_is_prime(monkeypatch):
    # the traced is_prime counts outside callers only
    monkeypatch.setattr(numtheory, "is_prime", None)
    assert factorize(1000003 * 999999999989) == {1000003: 1, 999999999989: 1}


def test_divisors_past_float_precision():
    # a float square root truncates 2**53 + 1 to 2**53, and 10**400 has none
    n = (2**53 + 1) ** 2
    assert 2**53 + 1 in divisors(n)
    assert divisors(n) == sympy.divisors(n)
    big = divisors(10**400)
    assert len(big) == 401**2 and big == sympy.divisors(10**400)
    with pytest.raises(ValueError):
        divisors(0)


# -- prime powers without factoring -------------------------------------------

PRIMES = st.one_of(
    st.sampled_from(SMALL_PRIMES),
    st.sampled_from(list(sympy.primerange(TRIAL_BOUND, 3000))),  # 1009 and up
    st.sampled_from((1000003, 999999999989, 2**61 - 1, 10**20 + 39)),
)
PRIME_POWER = st.builds(pow, PRIMES, st.integers(1, 6))
# cofactors that take n past PSI13 with sympy still fast on the product;
# 10**30 + 57 is a prime that is_prime refuses
PAST_PSI13 = st.sampled_from((10**30 + 57, 2**89 - 1, (10**20 + 39) ** 2, 1009**9))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    PRIME_POWER,
    st.builds(int.__mul__, PRIME_POWER, PRIME_POWER),
    st.builds(lambda p, q, k: (p * q) ** k, PRIMES, PRIMES, st.integers(2, 6)),
    st.builds(lambda s, k, m: s**k * m, st.sampled_from(SMALL_PRIMES),
              st.integers(1, 120), st.one_of(st.just(1), PAST_PSI13)),
))
def test_prime_power_root_agrees_with_sympy(n):
    assert prime_power_root(n) == power_root_of(sympy.factorint(n)), n


def test_prime_powers_never_run_rho(monkeypatch):
    def forbidden(n, budget):
        raise AssertionError(f"rho on {n}")

    monkeypatch.setattr(numtheory, "_brent", forbidden)
    for p, k in ((2, 1), (1009, 7), (1013, 3), (999999999989, 5), (10**20 + 39, 4)):
        assert prime_power_root(p**k) == p, (p, k)
        assert factorize(p**k) == {p: k}, (p, k)  # exact roots, not rho
    for n in ((1009 * 1013) ** 3, 2**4 * 91081 * 280591, 5 * 33967 * 5585761,
              (10**20 + 39) * (10**20 + 129), 3 * (10**30 + 57), PRIMORIAL, 1):
        assert prime_power_root(n) is None, n


def test_integer_roots_against_sympy():
    # Newton from a float guess: exact at m^k - 1, m^k and m^k + 1, for
    # roots past float range and for k past the primes below 1000
    rng = random.Random(13)
    for _ in range(400):
        k = rng.randrange(3, 1200)
        m = rng.randrange(2, 2 ** rng.randrange(2, 1200 if k < 40 else 20))
        for n in (m**k - 1, m**k, m**k + 1):
            assert numtheory._iroot(n, k) == sympy.integer_nthroot(n, k)[0], (m, k)
    assert prime_power_root(1013**1013) == 1013


def test_prime_power_root_is_refused_where_is_prime_is():
    for n in (10**30 + 57, (10**30 + 57) ** 3):
        with pytest.raises(UnknownResultError):
            prime_power_root(n)
    with pytest.raises(UnknownResultError):
        is_prime(10**30 + 57)
    with pytest.raises(ValueError):
        prime_power_root(0)
