"""Exact number theory helpers for integers of any size.

Trial division by the numbers below TRIAL_BOUND settles every n below
TRIAL_BOUND**2.  Above that, primality is the strong probable-prime test to
the first 13 prime bases, exact below PSI13 (Sorenson & Webster, Math. Comp.
2017), and factorization splits what trial division leaves with Pollard's
rho in Brent's variant (Brent 1980), within RHO_STEPS steps.  Past either
limit the answer is UnknownResultError, never a guess.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

TRIAL_BOUND = 1000
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981  # the least strong pseudoprime to all BASES
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
    m, p = n, 2
    while p * p <= m and p < TRIAL_BOUND:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if p * p > m:  # m is 1 or a prime
        if m > 1:
            out[m] = 1
        return out
    budget, stack = [RHO_STEPS], [m]
    while stack:
        m = stack.pop()
        root = isqrt(m)
        if root * root == m:  # rho would pay sqrt(root) steps for this split
            stack += (root, root)
        elif _probable_prime(m):
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
    """Strong probable-prime test of n to every base in BASES, for n with no
    prime factor below TRIAL_BOUND: False proves n composite; True proves it
    prime below PSI13 and is refused at or above it."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    if n < 2:
        return False
    p = 2
    while p * p <= n and p < TRIAL_BOUND:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return p * p > n or _probable_prime(n)


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
