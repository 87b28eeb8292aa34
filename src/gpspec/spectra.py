"""Decision procedures for graded prime and primary submodules, graded
radicals of submodules, primary-spectrum membership, and enumeration of the
prime, primary and maximal spectra of finite graded modules.

The prime/primary quantifiers over all ring scalars and homogeneous elements
are eliminated through element orders: for homogeneous m outside N, the set
of scalars sending m into N is the ideal generated by the additive order of
m + N, and the achievable orders in each degree are read off the Smith
invariants of M_g/N_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from . import numtheory
from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    GradedModule,
    GradedSubmodule,
    Ideal,
    enumerate_submodules,
    ideal_times_module,
    quotient_module,
)


class ImproperSubmoduleError(AlgebraError):
    """Raised when a predicate defined only for proper submodules gets M."""


class UnknownResultError(AlgebraError):
    """Raised when an exact answer is required but no strategy applies."""


@dataclass(frozen=True)
class Trilean:
    """Exact three-valued answer: True, False with a checkable witness, or
    Unknown with the reason no strategy applied."""

    value: bool | None
    witness: object = None
    reason: str = ""

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


@dataclass(frozen=True)
class RadicalResult:
    """Outcome of the graded radical of a submodule: the intersection of all
    graded prime submodules containing it, the whole module when no prime
    contains it, or Unknown when no exact strategy applied."""

    status: str  # "submodule" | "top" | "unknown"
    submodule: GradedSubmodule | None = None
    # strategies tried, in order, up to the one that answered
    strategies: tuple[str, ...] = ()
    reason: str = ""

    @property
    def is_known(self) -> bool:
        return self.status != "unknown"

    def require(self) -> GradedSubmodule:
        if self.is_known:
            return self.submodule  # the full submodule when "top"
        raise UnknownResultError(
            f"graded radical unknown ({self.reason}); tried {', '.join(self.strategies)}"
        )


def _require_proper(N: GradedSubmodule, what: str) -> None:
    if not N.is_proper:
        raise ImproperSubmoduleError(f"{what} is defined only for proper submodules")


def _order_condition(N: GradedSubmodule, target: Ideal) -> bool:
    """Whether ann(m + N) <= target for every homogeneous m outside N.

    ann(m + N) is generated by the additive order of the class, infinite
    order giving the zero ideal which lies in every ideal.  The achievable
    finite orders in degree g are exactly the divisors > 1 of the largest
    torsion invariant of M_g/N_g.
    """
    M = N.module
    for g in M.degrees:
        top = N.quotient_invariants(g).exponent
        for o in numtheory.divisors(top):
            if o > 1 and not target.contains(M.ring.ideal(o)):
                return False
    return True


def is_graded_prime(P: GradedSubmodule) -> bool:
    """Whether rm in P forces m in P or r in (P : M), for homogeneous r, m."""
    _require_proper(P, "graded primeness")
    return _order_condition(P, P.colon())


def is_graded_primary(Q: GradedSubmodule) -> bool:
    """Whether rm in Q forces m in Q or r in the radical of (Q : M)."""
    _require_proper(Q, "graded primariness")
    return _order_condition(Q, Q.colon().radical())


@lru_cache(maxsize=None)
def is_multiplication(M: GradedModule, witness_scale: int = 4) -> Trilean:
    """Whether every graded submodule N equals (N : M) . M.

    Finite modules are checked exhaustively.  An infinite module with a single
    factor is a multiplication module (its submodules are exactly d.M); with
    several factors a bounded search over cyclic submodules looks for a
    refutation, and Unknown is returned when it finds none.
    """
    if M.is_finite and M.size <= DEFAULT_ENUM_BOUND:
        for N in enumerate_submodules(M):
            if ideal_times_module(N.colon(), M) != N:
                return Trilean.no(N)
        return Trilean.yes()
    if len(M.factors) == 1:
        return Trilean.yes()  # submodules of a cyclic or rank-1 free module are d.M
    from itertools import product as iproduct

    for coords in iproduct(range(witness_scale), repeat=len(M.factors)):
        if not any(coords):
            continue
        N = M.submodule([coords])
        if ideal_times_module(N.colon(), M) != N:
            return Trilean.no(N)
    return Trilean.unknown("no refuting cyclic submodule within the search bound")


@lru_cache(maxsize=None)
def is_cancellation(M: GradedModule) -> Trilean:
    """Whether I.M = J.M forces I = J for ideals I, J."""
    ring = M.ring
    if ring.is_finite:
        ideals = ring.ideals()
        for i, I in enumerate(ideals):
            for J in ideals[i + 1 :]:
                if ideal_times_module(I, M) == ideal_times_module(J, M):
                    return Trilean.no((I, J))
        return Trilean.yes()
    if any(o == 0 for o, _ in M.factors):
        return Trilean.yes()  # a free coordinate recovers the generator of I
    L = M.exponent
    I, J = ring.ideal(L), ring.ideal(2 * L)
    return Trilean.no((I, J))  # the exponent kills both


@lru_cache(maxsize=None)
def graded_radical(
    N: GradedSubmodule, bound: int = DEFAULT_ENUM_BOUND
) -> RadicalResult:
    """Intersection of all graded prime submodules containing proper N.

    Strategies, in priority order: the submodule itself when it is prime;
    transport through M -> M/N when the quotient is finite (primes of M
    containing N correspond to primes of M/N); the colon-radical identity
    when M is a multiplication module.  The first strategy that answers
    gives the result; `strategies` lists those tried, in order, up to it.
    """
    _require_proper(N, "the graded radical")
    M = N.module
    tried = ["prime-itself"]

    def answer(R: GradedSubmodule) -> RadicalResult:
        status = "top" if R.is_full else "submodule"
        return RadicalResult(status, R, strategies=tuple(tried))

    if is_graded_prime(N):
        return answer(N)

    if N.quotient_is_finite():
        tried.append("finite-quotient-transport")
        quot, proj = quotient_module(M, N)
        if quot.size <= bound:
            preimages = [
                proj.preimage_submodule(P)
                for P in enumerate_submodules(quot, bound)
                if P.is_proper and is_graded_prime(P)
            ]
            if not preimages:
                return answer(M.full_submodule)
            return answer(reduce(GradedSubmodule.intersect, preimages))

    if is_multiplication(M).is_true:
        tried.append("multiplication-identity")
        return answer(ideal_times_module(N.colon().radical(), M))

    return RadicalResult(
        "unknown",
        strategies=tuple(tried),
        reason="quotient infinite and module not known to be multiplication",
    )


def in_primary_spectrum(Q: GradedSubmodule, bound: int = DEFAULT_ENUM_BOUND) -> bool:
    """Primary-spectrum membership: Q is graded primary and the colon of its
    graded radical equals the radical of its colon, both sides computed
    independently."""
    _require_proper(Q, "primary-spectrum membership")
    if not is_graded_primary(Q):
        return False
    rad = graded_radical(Q, bound).require()
    return rad.colon() == Q.colon().radical()


def is_graded_maximal(
    N: GradedSubmodule, submodules=None, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """No graded submodule strictly between N and M (finite regime)."""
    if not N.is_proper:
        return False
    if submodules is None:
        submodules = enumerate_submodules(N.module, bound)
    for L in submodules:
        if L.is_proper and L != N and L.contains(N):
            return False
    return True


def spectrum_points(
    M: GradedModule, kind: str, bound: int = DEFAULT_ENUM_BOUND
) -> list[GradedSubmodule]:
    """Points of the requested spectrum of a finite module, in canonical
    order.  Kinds: "prime", "primary", "maximal", "all"."""
    subs = enumerate_submodules(M, bound)
    if kind == "all":
        return subs
    proper = [N for N in subs if N.is_proper]
    if kind == "prime":
        return [N for N in proper if is_graded_prime(N)]
    if kind == "primary":
        return [N for N in proper if in_primary_spectrum(N, bound)]
    if kind == "maximal":
        return [N for N in proper if is_graded_maximal(N, subs)]
    raise AlgebraError(f"unknown spectrum kind {kind!r}")
