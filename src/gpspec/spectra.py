"""Decision procedures for graded prime and primary submodules, graded
radicals of submodules, primary-spectrum membership, and enumeration of the
prime, primary and maximal spectra of finite graded modules.

Each decision is read off the colon (N : M) and the torsion exponents e_g
of the degree components M_g/N_g: N is graded prime (primary) iff (N : M)
(its radical) is a prime ideal and, when M/N has a free part, every e_g = 1.
A nonzero colon (e) has a prime radical iff e is a prime power, which
numtheory.prime_power_root decides without factoring e.  When M/N is finite
and (N : M) = (e), the graded radical of N is N + rad(e)M.
"""

from __future__ import annotations

from math import gcd, prod

from . import numtheory
from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    GradedModule,
    GradedSubmodule,
    Value,
    _diagonal_blocks,
    enumerate_submodules,
    ideal_times_module,
    per_module,
)


class ImproperSubmoduleError(AlgebraError):
    """Raised when a predicate defined only for proper submodules gets M."""


class UnknownResultError(AlgebraError):
    """Raised when an exact answer is required but no strategy applies."""


class Trilean(Value):
    """Exact three-valued answer: True, False with a checkable witness, or
    Unknown with the reason no strategy applied."""

    __slots__ = ("value", "witness", "reason")

    def __init__(self, value: bool | None, witness: object = None, reason: str = ""):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)

    @classmethod
    def yes(cls) -> "Trilean":
        return cls(True)

    @classmethod
    def no(cls, witness) -> "Trilean":
        return cls(False, witness=witness)

    @classmethod
    def unknown(cls, reason: str) -> "Trilean":
        return cls(None, reason=reason)

    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    @property
    def label(self) -> str:
        return {True: "true", False: "false", None: "unknown"}[self.value]


class RadicalResult(Value):
    """Outcome of the graded radical of a submodule: the intersection of all
    graded prime submodules containing it, or Unknown when no exact strategy
    applied.  The status is "submodule" or "unknown"; `strategies` are those
    tried, in order, up to the one that answered."""

    __slots__ = ("status", "submodule", "strategies", "reason")

    def __init__(self, status: str, submodule: GradedSubmodule | None = None,
                 strategies: tuple[str, ...] = (), reason: str = ""):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "submodule", submodule)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "reason", reason)

    @property
    def is_known(self) -> bool:
        return self.status != "unknown"

    def require(self) -> GradedSubmodule:
        if self.is_known:
            return self.submodule
        raise UnknownResultError(
            f"graded radical unknown ({self.reason}); tried {', '.join(self.strategies)}"
        )


def _require_proper(N: GradedSubmodule, what: str) -> None:
    if not N.is_proper:
        raise ImproperSubmoduleError(f"{what} is defined only for proper submodules")


def _order_condition(N: GradedSubmodule, target_is_prime: bool) -> bool:
    """Whether ann(m + N) <= target for every homogeneous m outside N, for
    target (N : M) or its radical, given whether target is prime: iff it is
    and, when M/N has a free part, every e_g = 1.

    ann(m + N) = (o), o the order of m + N; (0) lies in every ideal and the
    finite o > 1 in degree g are the divisors > 1 of e_g, so each prime
    p | e_g must lie in target.  M/N finite: target is (e) or rad(e) for
    e = lcm e_g, and p | e in target forces target = (p).  M/N with a free
    part: target is the prime (0), holding no p.
    """
    return target_is_prime and (
        N.quotient_is_finite() or all(inv.exponent == 1 for inv in N.quotients())
    )


def is_graded_prime(P: GradedSubmodule) -> bool:
    """Whether rm in P forces m in P or r in (P : M), for homogeneous r, m."""
    _require_proper(P, "graded primeness")
    return _order_condition(P, P.colon().is_prime)


def is_graded_primary(Q: GradedSubmodule) -> bool:
    """Whether rm in Q forces m in Q or r in the radical of (Q : M)."""
    _require_proper(Q, "graded primariness")
    return _is_primary(Q)


def _is_primary(Q: GradedSubmodule) -> bool:
    """is_graded_primary for a Q known to be proper."""
    e = Q.colon().gen  # 0 only for the prime (0) of Z
    return _order_condition(Q, e == 0 or numtheory.prime_power_root(e) is not None)


def is_multiplication(M: GradedModule) -> Trilean:
    """Whether every graded submodule N equals (N : M) . M: iff the factor
    orders are pairwise coprime, counting gcd(0, o) = o, that is iff M is
    cyclic (multiplication modules are locally cyclic: El-Bast and Smith,
    Comm. Algebra 16, 1988).  Otherwise the witness is <e_i>, for the first
    i whose order shares a factor with a later one: (<e_i> : M) = (L), L the
    lcm of the other orders (0 if one is free), and L . M = <gcd(L, o_i) e_i>
    lies strictly inside <e_i>."""
    blocks = _multiplication_witness(M)
    return Trilean.yes() if blocks is None else Trilean.no(GradedSubmodule(M, blocks))


@per_module
def _multiplication_witness(M: GradedModule) -> tuple | None:
    """The blocks of the witness of is_multiplication(M), None if M is
    multiplication."""
    orders = [o for o, _ in M.factors]
    for i, o in enumerate(orders):
        if any(gcd(o, later) != 1 for later in orders[i + 1 :]):
            return _diagonal_blocks(M, [int(k == i) for k in range(len(orders))])
    return None


@per_module
def is_cancellation(M: GradedModule) -> Trilean:
    """Whether I.M = J.M forces I = J for ideals I, J.

    A free coordinate recovers the generator of I.  Otherwise the exponent L
    of M kills M, so over Z the ideals (L) and (2L) refute.  Over Z/n, d.M
    determines every gcd(d, o_k), hence their lcm gcd(d, L), which is the
    canonical d when L = n; otherwise (L) and the zero ideal refute."""
    ring = M.ring
    if any(o == 0 for o, _ in M.factors):
        return Trilean.yes()
    L = M.exponent
    if not ring.is_finite:
        return Trilean.no((ring.ideal(L), ring.ideal(2 * L)))
    if L == ring.modulus:
        return Trilean.yes()
    return Trilean.no((ring.ideal(L), ring.zero_ideal))


def graded_radical(
    N: GradedSubmodule, bound: int = DEFAULT_ENUM_BOUND
) -> RadicalResult:
    """Intersection of all graded prime submodules containing proper N.

    Strategies in priority order; the first that answers gives the result
    and `strategies` lists those tried, in order, up to it.
    * prime-itself: N when N is prime.
    * finite-quotient-transport: when |M/N| <= bound and (N : M) = (e),
      N + rad(e)M.  A prime P over N has (P : M) = (p) with p | e, so P
      holds N + pM, itself a prime (M/(N + pM) is a nonzero F_p-space with
      colon (p)); the radical is the meet of the N + pM over p | e.  Degree
      by degree, in A = M_g/N_g, whose exponent divides e, N + pM is the
      preimage of pA, the sum of pA_p and the Sylow parts A_q, q != p; so
      the meet is the preimage of the sum of the qA_q over q | e, and so is
      N + rad(e)M, since rad(e)/q is a unit on A_q.
    * multiplication-identity: rad(N : M) . M when M is multiplication,
      that is cyclic (see is_multiplication).
    Unknown when none applies: M/N is infinite or past the bound, M has
    factor orders with a common factor, and N is not prime.
    """
    _require_proper(N, "the graded radical")
    status, blocks, strategies, reason = _graded_radical(N, bound)
    if blocks is None:
        return RadicalResult(status, None, strategies, reason)
    rad = N if strategies == ("prime-itself",) else GradedSubmodule(N.module, blocks)
    return RadicalResult(status, rad, strategies, reason)


@per_module
def _graded_radical(N: GradedSubmodule, bound: int) -> tuple:
    """graded_radical(N, bound) as (status, the blocks of the radical,
    strategies, reason), for a proper N."""
    M = N.module
    tried = ["prime-itself"]

    if _order_condition(N, N.colon().is_prime):
        return "submodule", N.blocks, tuple(tried), ""

    reason = "quotient infinite"
    if N.quotient_is_finite():
        tried.append("finite-quotient-transport")
        size = prod(inv.size() for inv in N.quotients())
        if size <= bound:
            rad = N.plus(ideal_times_module(N.colon_radical(), M))
            return "submodule", rad.blocks, tuple(tried), ""
        reason = f"|M/N| = {size} exceeds enumeration bound {bound}"

    if is_multiplication(M).is_true:
        tried.append("multiplication-identity")
        rad = ideal_times_module(N.colon_radical(), M)
        return "submodule", rad.blocks, tuple(tried), ""

    return "unknown", None, tuple(tried), f"{reason} and module not multiplication"


def in_primary_spectrum(Q: GradedSubmodule, bound: int = DEFAULT_ENUM_BOUND) -> bool:
    """Primary-spectrum membership: Q is graded primary and the colon of its
    graded radical Gr(Q) equals the radical of its colon.

    The equation holds whenever a strategy of graded_radical answers, so
    membership is graded primariness once the radical is known, and the
    refusal stays when it is not.  With (Q : M) = (e):
    * prime-itself: Gr(Q) = Q, whose colon is prime.
    * finite-quotient-transport: M/(Q + rad(e)M) is A/rad(e)A, A = M/Q of
      exponent e, and the exponent of A/rad(e)A is gcd(e, rad(e)) = rad(e).
    * multiplication-identity: M is cyclic, so (J.M : M) = J + ann(M) for
      J = rad(e) = (j), and ann(M) = (L) lies in (Q : M), hence in J: the
      colon is gcd(j, L) = j.
    """
    _require_proper(Q, "primary-spectrum membership")
    if not _is_primary(Q):
        return False
    status, _, tried, reason = _graded_radical(Q, bound)
    RadicalResult(status, None, tried, reason).require()  # raises when unknown
    return True


def is_graded_maximal(N: GradedSubmodule) -> bool:
    """No graded submodule strictly between N and M.  Graded submodules are
    the degreewise subgroups, so this holds iff M/N is Z/p for a prime p:
    no free part, and one torsion factor over all degrees, a prime."""
    quotients = N.quotients()
    factors = [d for q in quotients for d in q.torsion_factors]
    free = any(q.free_rank for q in quotients)
    return not free and len(factors) == 1 and numtheory.is_prime(factors[0])


def spectrum_points(
    M: GradedModule, kind: str, bound: int = DEFAULT_ENUM_BOUND
) -> list[GradedSubmodule]:
    """Points of the requested spectrum of a finite module, in canonical
    order.  Kinds: "prime", "primary", "maximal"."""
    proper = [N for N in enumerate_submodules(M, bound) if N.is_proper]
    if kind == "prime":
        return [N for N in proper if is_graded_prime(N)]
    if kind == "primary":
        return [N for N in proper if in_primary_spectrum(N, bound)]
    if kind == "maximal":
        return [N for N in proper if is_graded_maximal(N)]
    raise AlgebraError(f"unknown spectrum kind {kind!r}")
