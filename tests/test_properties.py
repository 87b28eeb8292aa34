"""Property-based checks of the colon, the prime and primary predicates and
the graded radical against the brute-force oracles, on generated finite
modules.

The examples are derandomized, so every run checks the same modules.
"""

from functools import reduce

from hypothesis import assume, given, settings, strategies as st

import oracles
from gpspec.algebra import (
    BaseRing,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    enumerate_submodules,
)
from gpspec.spectra import graded_radical, is_graded_primary, is_graded_prime

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
