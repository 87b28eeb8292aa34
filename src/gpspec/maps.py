"""The reduced ring R/Ann(M), the natural maps from the primary and prime
spectra into its prime spectrum, fibers over ring primes, and maps of
primary spectra induced by graded epimorphisms.

Both base rings are principal, so the reduced ring is presented concretely
as Z/m via the annihilator generator m (Z itself when m = 0).

A closed set of a finite space depends on its colon ideal (c) only through
the primes dividing c: each point's radical colon is a radical ideal, so it
contains (c) iff it contains rad(c).  An induced map onto M' of exponent L'
pairs ν(IM) with ν(rad(I)M'), of colon (gcd(rad I, L')), so with (gcd(I, L')).
"""

from __future__ import annotations

from math import gcd

from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    Ideal,
    InvariantError,
    ModuleMismatchError,
    Value,
    _presentation,
    annihilator,
    per_module,
)
from .spectra import Trilean, UnknownResultError, graded_radical
from .topology import PSPEC, FiniteSpace, build_ring_space, build_space, ring_variety


class ReducedRing(Value):
    """R/Ann(M), presented as Z/m (or Z again when Ann(M) = 0)."""

    __slots__ = ("source", "ann", "ring")

    def reduce_ideal(self, I: Ideal) -> Ideal:
        """Image of an ideal of R containing Ann(M)."""
        if I.ring != self.source:
            raise AlgebraError("ideal belongs to a different ring")
        if not I.contains(self.ann):
            raise AlgebraError("ideal does not contain the annihilator")
        return self.ring.ideal(I.gen)

    def ideals(self) -> list[Ideal]:
        return self.ring.ideals()


@per_module
def reduced_ring(M: GradedModule) -> ReducedRing:
    ann = annihilator(M)
    if ann.is_unit:
        raise UnknownResultError("the zero module has the zero ring as reduction")
    # the annihilator generator a gives Z/a, which is Z when a = 0
    return ReducedRing(M.ring, ann, BaseRing(ann.gen))


@per_module
def reduced_ring_space(M: GradedModule) -> FiniteSpace:
    """The prime spectrum of R/Ann(M), built once per module."""
    return build_ring_space(reduced_ring(M).ring)


def primary_point_image(Q: GradedSubmodule, bound: int = DEFAULT_ENUM_BOUND) -> Ideal:
    """Image of a primary-spectrum point: the colon of its graded radical,
    reduced modulo the annihilator.  The image is checked to be prime.  It
    serves the prime spectrum too, where Gr_M(P) = P."""
    rad = graded_radical(Q, bound).require()
    img = reduced_ring(Q.module).reduce_ideal(rad.colon())
    if not img.is_prime:
        raise InvariantError(f"natural image {img.text()} of {Q.text()} is not prime")
    return img


class MapAnalysis(Value):
    """Exact analysis of a natural map in the finite regime: `kind` "rho" or
    "phi" (primary or prime side), `mapping` the ring-space index of each
    point's image, `fibers` the (prime of the reduced ring, mask) pairs."""

    __slots__ = ("kind", "space", "ring_space", "reduced", "images", "mapping",
                 "injective", "surjective", "continuity_ok", "image_identities_ok",
                 "open_closed", "homeomorphism", "fibers")


def image_mask(mapping, mask: int) -> int:
    """Image of a point set under a map given by mapping[i], the target
    index of source point i."""
    out = 0
    for i, j in enumerate(mapping):
        if mask >> i & 1:
            out |= 1 << j
    return out


def preimage_mask(mapping, mask: int) -> int:
    """Preimage of a target point set under a map given as in image_mask."""
    out = 0
    for i, j in enumerate(mapping):
        if mask >> j & 1:
            out |= 1 << i
    return out


def _map_flags(X: FiniteSpace, Y: FiniteSpace, mapping, closed_pairs):
    """Injectivity and surjectivity of the map X -> Y sending point i to
    Y.points[mapping[i]], witnessed by the first two points with one image and
    the first target point nothing maps to, and continuity: preimage(B) = A
    for each pair (A, B) of corresponding closed masks."""
    inj: Trilean = Trilean.yes()
    first: dict[int, int] = {}  # target index -> first point mapped to it
    for i, j in enumerate(mapping):
        if first.setdefault(j, i) != i:
            inj = Trilean.no((X.points[first[j]], X.points[i]))
            break
    missed = Y.full_mask & ~image_mask(mapping, X.full_mask)
    surj = Trilean.no(Y.points[(missed & -missed).bit_length() - 1]) if missed else Trilean.yes()
    continuous = all(preimage_mask(mapping, B) == A for A, B in closed_pairs)
    return inj, surj, continuous


def _closed_map(X: FiniteSpace, Y: FiniteSpace, mapping) -> bool:
    """Whether the map of _map_flags sends every closed set to a closed set."""
    closed = set(Y.closed_masks)
    return all(image_mask(mapping, c) in closed for c in X.closed_masks)


def analyze_natural_map(
    M: GradedModule, source: str = PSPEC, bound: int = DEFAULT_ENUM_BOUND
) -> MapAnalysis:
    """Analyze the natural map from the primary spectrum ("rho" side) or the
    prime spectrum ("phi" side) of a finite module to the reduced ring
    spectrum: injectivity, surjectivity, fibers, the preimage identity for
    every reduced ideal, and the open/closed image identities when the map
    is surjective.  One analysis per (M, source, bound), however the call is
    spelled."""
    return _natural_map(M, source, bound)


@per_module
def _natural_map(M: GradedModule, source: str, bound: int) -> MapAnalysis:
    rr = reduced_ring(M)
    kind = "rho" if source == PSPEC else "phi"
    space = build_space(M, source, bound)
    ring_space = reduced_ring_space(M)

    images = tuple(primary_point_image(Q, bound) for Q in space.points)
    mapping = tuple(ring_space.position[img] for img in images)
    fibers = tuple(
        (p, preimage_mask(mapping, 1 << j)) for j, p in enumerate(ring_space.points)
    )

    # per colon ideal I ⊇ Ann(M), the variety of I.M and the reduced closed
    # set of I; when surjective, the image identities say that the variety
    # and its complement map onto the closed set and its complement
    pairs = [(closed, ring_variety(ring_space, rr.reduce_ideal(I)))
             for I, closed in space.closed_of.items()]
    inj, surj, continuity_ok = _map_flags(space, ring_space, mapping, pairs)
    image_identities_ok = all(
        image_mask(mapping, closed) == want
        and image_mask(mapping, closed ^ space.full_mask) == want ^ ring_space.full_mask
        for closed, want in pairs
    ) if surj.is_true else None

    # open and closed as a map of finite spaces, checked extensionally
    closed_map = _closed_map(space, ring_space, mapping)
    ring_opens = {m ^ ring_space.full_mask for m in ring_space.closed_masks}
    open_map = all(
        image_mask(mapping, c ^ space.full_mask) in ring_opens
        for c in space.closed_masks
    )
    open_closed = Trilean.yes() if (closed_map and open_map) else Trilean.no(None)

    bijective = inj.is_true and surj.is_true
    homeo = Trilean.yes() if bijective and continuity_ok and closed_map else Trilean.no(None)

    return MapAnalysis(
        kind=kind,
        space=space,
        ring_space=ring_space,
        reduced=rr,
        images=images,
        mapping=mapping,
        injective=inj,
        surjective=surj,
        continuity_ok=continuity_ok,
        image_identities_ok=image_identities_ok,
        open_closed=open_closed,
        homeomorphism=homeo,
        fibers=fibers,
    )


# -- graded homomorphisms beyond quotient projections -------------------------


class PermutationMap:
    """Graded isomorphism onto the same factors listed in another order."""

    def __init__(self, source: GradedModule, assignment):
        """assignment[j] = source factor index feeding target slot j, for any
        permutation; the target relists the source's factors in that order and
        is the source itself when the list is unchanged, as for the identity or
        a swap of two equal factors (see algebra._presentation)."""
        self.source = source
        self.assignment = tuple(assignment)
        if sorted(self.assignment) != list(range(len(source.factors))):
            raise AlgebraError("assignment is not a permutation of the factors")
        factors = tuple(source.factors[i] for i in self.assignment)
        self.target = _presentation(source, factors)

    def preimage_submodule(self, N2: GradedSubmodule) -> GradedSubmodule:
        if N2.module != self.target:
            raise ModuleMismatchError("submodule lives in a different module")
        inverse = [0] * len(self.assignment)
        for j, i in enumerate(self.assignment):
            inverse[i] = j
        gens = [
            tuple(row[inverse[i]] for i in range(len(inverse)))
            for g, block in zip(self.target.degrees, N2.blocks)
            for row in (self.target.embed_block(g, r) for r in block)
        ]
        return self.source.submodule(gens)


class PiAnalysis(Value):
    """Induced spectrum map: `mapping` is the source index of each target
    point's preimage, None where the preimage is not a point of the source
    spectrum; then every flag is false."""

    __slots__ = ("mapping", "injective", "surjective", "continuity_ok", "homeomorphism")


class InducedSpectrumMap:
    """The map of primary spectra induced by a graded epimorphism
    f : M -> M', sending a point of the target spectrum to its preimage."""

    def __init__(self, f):
        self.f = f

    def apply(self, Q2: GradedSubmodule) -> GradedSubmodule:
        """Preimage of a primary-spectrum point of M'; it lies in the primary
        spectrum of M (L2.14 checks this)."""
        return self.f.preimage_submodule(Q2)

    def analyze(self, bound: int = DEFAULT_ENUM_BOUND) -> PiAnalysis:
        """Extensional analysis between materialized primary spectra:
        injectivity, surjectivity, the continuity identity for every closed
        set of the source side, and the homeomorphism property."""
        M, M2 = self.f.source, self.f.target
        sp = build_space(M, PSPEC, bound)
        sp2 = build_space(M2, PSPEC, bound)
        mapping = tuple(sp.position.get(self.apply(Q2)) for Q2 in sp2.points)
        if None in mapping:
            return PiAnalysis(mapping, False, False, False,
                              Trilean(False, reason="a preimage is not a point"))
        pairs = [(sp2.closed_of[M2.ring.ideal(gcd(I.gen, M2.exponent))], closed)
                 for I, closed in sp.closed_of.items()]
        inj, surj, continuity_ok = _map_flags(sp2, sp, mapping, pairs)
        bijective = inj.is_true and surj.is_true
        homeo = (Trilean.yes() if bijective and continuity_ok and _closed_map(sp2, sp, mapping)
                 else Trilean.no(None))
        return PiAnalysis(mapping, inj.is_true, surj.is_true, continuity_ok, homeo)


def identity_map(M: GradedModule) -> PermutationMap:
    return PermutationMap(M, range(len(M.factors)))
