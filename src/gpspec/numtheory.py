"""Exact number theory helpers for integers of any size.

The primes below TRIAL_BOUND come from a sieve at import, and one gcd of n
with their product, PRIMORIAL, picks out the small primes dividing a larger
n.  A number with no prime factor below TRIAL_BOUND is 1 or prime when it is
below PROVEN_BELOW = 1009**2, 1009 being the least prime past TRIAL_BOUND.
Above that, primality is the strong probable-prime test to the BASES in
turn; it answers "prime" after k passing bases once n < psi_k, the least
strong pseudoprime to the first k bases (the PSI table, OEIS A014233:
Jaeschke, Math. Comp. 1993, up to k = 8; Jiang & Deng, Math. Comp. 2014,
k = 9..11; Sorenson & Webster, Math. Comp. 2017, k = 12, 13), so it is
exact below PSI13.  Factorization takes exact roots of perfect powers and
splits the rest of what trial division leaves with Pollard's rho in
Brent's variant (Brent 1980), within RHO_STEPS steps.  Past
either limit the answer is UnknownResultError, never a guess.

Whether n is a prime power needs no factoring (Bernstein, Detecting perfect
powers in essentially linear time, Math. Comp. 1998): the gcd with
PRIMORIAL, exact integer roots, and one probable-prime test of a number that
is no perfect power, where a witness proves two distinct primes.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, log2, prod


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


TRIAL_BOUND = 1000
SMALL_PRIMES = _primes_below(TRIAL_BOUND)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
PRIMORIAL = prod(SMALL_PRIMES)
PROVEN_BELOW = 1009**2  # coprime to PRIMORIAL and below this: 1 or prime
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# PSI[k - 1] = psi_k, the least strong pseudoprime to the first k BASES (A014233)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
PSI13 = PSI[-1]  # the least strong pseudoprime to all BASES
RHO_STEPS = 1 << 24  # rho iterations per factorization, all splits together


def _unknown(reason: str) -> Exception:
    from .spectra import UnknownResultError  # spectra imports this module

    return UnknownResultError(reason)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, in ascending order of the primes.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorize(1)
    {}
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    # g has the prime factors of m below TRIAL_BOUND: n itself when n is
    # below it, else gcd(n, PRIMORIAL)
    m = n
    g = n if n < TRIAL_BOUND else gcd(n, PRIMORIAL)
    primes = iter(SMALL_PRIMES)
    while g > 1:
        p = next(primes)
        if p * p > g:  # g is a prime
            p = g
        if g % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
            g = gcd(g, m)
    if m < PROVEN_BELOW:  # m is 1 or a prime
        if m > 1:
            out[m] = 1
        return out
    budget, stack = [RHO_STEPS], [m]
    while stack:
        m = stack.pop()
        power = _perfect_power(m)
        if power:  # rho would pay sqrt(root) steps for this split
            root, k = power
            stack += (root,) * k
        elif m < PROVEN_BELOW or _probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent(m, budget)
            stack += (d, m // d)
    out = dict(sorted(out.items()))
    if prod(q**e for q, e in out.items()) != n:
        from .algebra import InvariantError  # algebra imports this module

        raise InvariantError(f"factorization {out} does not multiply to {n}")
    return out


def _probable_prime(n: int) -> bool:
    """Strong probable-prime test of n to the BASES in turn, for n with no
    prime factor below TRIAL_BOUND: False proves n composite; True proves it
    prime once n < psi_k after k bases, and is refused at or above PSI13."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a, psi in zip(BASES, PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    if n >= PSI13:
        raise _unknown(f"primality of {n} is not proven at or above {PSI13}")
    return True


def _brent(n: int, budget: list[int]) -> int:
    """A proper factor of the composite n by Brent's cycle-finding rho on
    x -> x^2 + c, trying c = 1, 2, ... while budget[0] steps remain."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget[0] -= 2 * r
            if budget[0] < 0:
                raise _unknown(f"no factor of {n} found in {RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's iteration from above, from
    2^(log2(n)/k) rounded up by far more than the float error of log2."""
    if k == 2:
        return isqrt(n)
    e = log2(n) / k
    s = max(int(e) - 52, 0)  # x = 2^(e - s), below 2^53, shifted by s
    x = (int(2 ** (e - s) * (1 + 2**-30)) + 2) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(m, k) with n = m^k for the least k >= 2 that has an exact root (a
    prime), for n with no prime factor below TRIAL_BOUND; None when n is no
    perfect power.  Every prime of n is at least 1009, so only k with
    1009^k <= n can have a root."""
    k = 2
    while 1009**k <= n:
        m = _iroot(n, k)
        if m**k == n:
            return m, k
        k += 1
    return None


def prime_power_root(n: int) -> int | None:
    """The prime p when n = p^k for some k >= 1, else None; no rho.

    A small prime p dividing n settles it: n is a power of p iff nothing is
    left once the p-part is stripped.  Otherwise a perfect power n = m^k
    recurses on m, and a number that is no perfect power is p itself or has
    two distinct primes; `_probable_prime` decides which, refused at or
    above PSI13 exactly where is_prime is.

    >>> prime_power_root(2**40), prime_power_root(1009**3), prime_power_root(12)
    (2, 1009, None)
    """
    if n < 1:
        raise ValueError(f"prime_power_root expects n >= 1, got {n}")
    g = gcd(n, PRIMORIAL)
    if g > 1:
        if g not in _SMALL_PRIME_SET:
            return None
        while n % g == 0:
            n //= g
        return g if n == 1 else None
    if n < PROVEN_BELOW:  # 1 or a prime
        return n if n > 1 else None
    power = _perfect_power(n)
    if power:
        return prime_power_root(power[0])
    return n if _probable_prime(n) else None


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def radical_int(n: int) -> int:
    """Product of the distinct primes dividing n; radical_int(0) = 0,
    radical_int(1) = 1.

    >>> radical_int(12), radical_int(8), radical_int(0)
    (6, 2, 0)
    """
    if n == 0:
        return 0
    r = 1
    for p in factorize(abs(n)):
        r *= p
    return r


def is_prime(n: int) -> bool:
    """Whether n is prime; UnknownResultError when n >= PSI13 passes the
    strong probable-prime test to every base in BASES.

    >>> is_prime(1009), is_prime(3215031751), is_prime(2**61 - 1)
    (True, False, True)
    """
    if n < TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    if gcd(n, PRIMORIAL) > 1:
        return False
    return n < PROVEN_BELOW or _probable_prime(n)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def divides(d: int, n: int) -> bool:
    """Integer divisibility with the 0 | n convention: 0 divides only 0."""
    if d == 0:
        return n == 0
    return n % d == 0
