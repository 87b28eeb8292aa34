"""The reduced ring R/Ann(M), the natural maps from the primary and prime
spectra into its prime spectrum, fibers over ring primes, and maps of
primary spectra induced by graded epimorphisms.

Both base rings are principal, so the reduced ring is presented concretely
as Z/m via the annihilator generator.  When the annihilator is zero over Z
the ring spectrum is not materialized and only pointwise images are
available (lazy mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    Ideal,
    InvariantError,
    LazyRingError,
    annihilator,
    enumerate_submodules,
    ideal_times_module,
    per_module,
)
from .spectra import Trilean, graded_radical
from .topology import (
    PSPEC,
    SPEC,
    FiniteSpace,
    PointSet,
    build_ring_space,
    build_space,
    ring_variety,
    variety,
)


@dataclass(frozen=True)
class ReducedRing:
    """R/Ann(M), presented as Z/m (or Z again when Ann(M) = 0)."""

    source: BaseRing
    ann: Ideal
    ring: BaseRing

    @property
    def is_lazy(self) -> bool:
        return not self.ring.is_finite

    def reduce_ideal(self, I: Ideal) -> Ideal:
        """Image of an ideal of R containing Ann(M)."""
        if I.ring != self.source:
            raise AlgebraError("ideal belongs to a different ring")
        if not I.contains(self.ann):
            raise AlgebraError("ideal does not contain the annihilator")
        if self.is_lazy:
            return I
        return self.ring.ideal(I.gen)

    def lift_ideal(self, J: Ideal) -> Ideal:
        """Preimage in R of an ideal of the reduced ring."""
        if J.ring != self.ring:
            raise AlgebraError("ideal belongs to a different ring")
        if self.is_lazy:
            return J
        return self.source.ideal(J.gen)

    def ideals(self) -> list[Ideal]:
        return self.ring.ideals()


def reduced_ring(M: GradedModule) -> ReducedRing:
    ann = annihilator(M)
    if ann.is_unit:
        raise AlgebraError("the zero module has the zero ring as reduction")
    if ann.is_zero and not M.ring.is_finite:
        return ReducedRing(M.ring, ann, M.ring)
    # over Z/n the annihilator generator a gives Z/a; over Z likewise
    return ReducedRing(M.ring, ann, BaseRing(ann.gen))


def primary_point_image(Q: GradedSubmodule, rr: ReducedRing | None = None,
                        bound: int = DEFAULT_ENUM_BOUND) -> Ideal:
    """Image of a primary-spectrum point: the colon of its graded radical,
    reduced modulo the annihilator.  The image is checked to be prime."""
    rr = rr or reduced_ring(Q.module)
    rad = graded_radical(Q, bound).require()
    img = rr.reduce_ideal(rad.colon())
    if not img.is_prime:
        raise InvariantError(f"natural image {img.text()} of {Q.text()} is not prime")
    return img


def prime_point_image(P: GradedSubmodule, rr: ReducedRing | None = None) -> Ideal:
    """Image of a prime-spectrum point: its colon reduced modulo the
    annihilator; agrees with the primary image since Gr_M(P) = P."""
    rr = rr or reduced_ring(P.module)
    img = rr.reduce_ideal(P.colon())
    if not img.is_prime:
        raise InvariantError(f"natural image {img.text()} of {P.text()} is not prime")
    return img


@dataclass(frozen=True)
class MapAnalysis:
    """Exact analysis of a natural map in the finite regime."""

    kind: str                       # "rho" (primary side) or "phi" (prime side)
    space: FiniteSpace
    ring_space: FiniteSpace
    reduced: ReducedRing
    images: tuple[Ideal, ...]
    injective: Trilean
    surjective: Trilean
    continuity_ok: bool
    image_identities_ok: bool | None
    open_closed: Trilean
    homeomorphism: Trilean
    fibers: tuple[tuple[Ideal, int], ...]  # (prime of the reduced ring, mask)

    def fiber(self, p: Ideal) -> PointSet:
        for q, mask in self.fibers:
            if q == p:
                return self.space.point_set(mask)
        raise AlgebraError(f"{p.text()} is not a prime of the reduced ring")


@per_module
def analyze_natural_map(
    M: GradedModule, source: str = "primary", bound: int = DEFAULT_ENUM_BOUND
) -> MapAnalysis:
    """Analyze the natural map from the primary spectrum ("rho" side) or the
    prime spectrum ("phi" side) of a finite module to the reduced ring
    spectrum: injectivity, surjectivity, fibers, the preimage identity for
    every reduced ideal, and the open/closed image identities when the map
    is surjective."""
    rr = reduced_ring(M)
    if rr.is_lazy:
        raise LazyRingError("the reduced ring spectrum of Z is not materialized")
    kind = "rho" if source == "primary" else "phi"
    space = build_space(M, PSPEC if source == "primary" else SPEC, bound)
    ring_space = build_ring_space(rr.ring)

    if source == "primary":
        images = tuple(primary_point_image(Q, rr, bound) for Q in space.points)
    else:
        images = tuple(prime_point_image(P, rr) for P in space.points)

    inj: Trilean = Trilean.yes()
    seen: dict[Ideal, int] = {}
    for i, img in enumerate(images):
        if img in seen:
            inj = Trilean.no((space.points[seen[img]], space.points[i]))
            break
        seen[img] = i

    image_set = set(images)
    missing = [p for p in ring_space.points if p not in image_set]
    surj = Trilean.yes() if not missing else Trilean.no(missing[0])

    fibers = tuple(
        (
            p,
            sum(1 << i for i, img in enumerate(images) if img == p),
        )
        for p in ring_space.points
    )

    # continuity: the preimage of every reduced closed set is the variety of
    # the corresponding ideal times M
    continuity_ok = True
    for J in rr.ideals():
        I = rr.lift_ideal(J)
        target = set(ring_variety(ring_space, J).members())
        preim = sum(1 << i for i, img in enumerate(images) if img in target)
        expected = variety(space, ideal_times_module(I, M)).mask
        if preim != expected:
            continuity_ok = False

    # image identities when surjective: images of closed sets are the reduced
    # varieties of the colon, and images of opens are their complements;
    # note (N : M) always contains Ann(M)
    image_identities_ok: bool | None = None
    if surj.is_true:
        image_identities_ok = True
        for N in enumerate_submodules(M, bound):
            closed = variety(space, N)
            img_mask = _image_mask(images, ring_space, closed.mask)
            want = ring_variety(ring_space, rr.reduce_ideal(N.colon())).mask
            if img_mask != want:
                image_identities_ok = False
            open_img = _image_mask(images, ring_space, closed.mask ^ space.full_mask)
            if open_img != want ^ ring_space.full_mask:
                image_identities_ok = False

    # open and closed as a map of finite spaces, checked extensionally
    ring_closed = set(ring_space.closed_masks)
    ring_opens = {m ^ ring_space.full_mask for m in ring_space.closed_masks}
    closed_map = all(
        _image_mask(images, ring_space, c) in ring_closed for c in space.closed_masks
    )
    open_map = all(
        _image_mask(images, ring_space, c ^ space.full_mask) in ring_opens
        for c in space.closed_masks
    )
    open_closed = Trilean.yes() if (closed_map and open_map) else Trilean.no(None)

    bijective = inj.is_true and surj.is_true
    homeo = (
        Trilean.yes()
        if bijective and continuity_ok and closed_map
        else Trilean.no(None)
    )

    return MapAnalysis(
        kind=kind,
        space=space,
        ring_space=ring_space,
        reduced=rr,
        images=images,
        injective=inj,
        surjective=surj,
        continuity_ok=continuity_ok,
        image_identities_ok=image_identities_ok,
        open_closed=open_closed,
        homeomorphism=homeo,
        fibers=fibers,
    )


def _image_mask(images, ring_space: FiniteSpace, mask: int) -> int:
    out = 0
    for i, img in enumerate(images):
        if mask >> i & 1:
            out |= 1 << ring_space.index_of(img)
    return out


# -- graded homomorphisms beyond quotient projections -------------------------


class PermutationMap:
    """Graded isomorphism permuting factors with equal (order, degree)."""

    def __init__(self, source: GradedModule, assignment):
        """assignment[j] = source factor index feeding target slot j; the
        target presentation keeps each factor's (order, degree)."""
        self.source = source
        self.assignment = tuple(assignment)
        if sorted(self.assignment) != list(range(len(source.factors))):
            raise AlgebraError("assignment is not a permutation of the factors")
        factors = [source.factors[i] for i in self.assignment]
        self.target = GradedModule(source.ring, source.group, factors)

    def kernel(self) -> GradedSubmodule:
        return self.source.zero_submodule

    def apply(self, vec):
        vec = self.source.reduce_vector(vec)
        return tuple(vec[i] for i in self.assignment)

    def image_submodule(self, N: GradedSubmodule) -> GradedSubmodule:
        gens = [
            self.apply(self.source.embed_block(g, row))
            for g, block in zip(self.source.degrees, N.blocks)
            for row in block
        ]
        return self.target.submodule(gens)

    def preimage_submodule(self, N2: GradedSubmodule) -> GradedSubmodule:
        inverse = [0] * len(self.assignment)
        for j, i in enumerate(self.assignment):
            inverse[i] = j
        gens = [
            tuple(row[inverse[i]] for i in range(len(inverse)))
            for g, block in zip(self.target.degrees, N2.blocks)
            for row in (self.target.embed_block(g, r) for r in block)
        ]
        return self.source.submodule(gens)


class ComposedMap:
    """Composition second . first of two supported graded epimorphisms."""

    def __init__(self, first, second):
        if first.target != second.source:
            raise AlgebraError("maps do not compose")
        self.first = first
        self.second = second
        self.source = first.source
        self.target = second.target

    def kernel(self) -> GradedSubmodule:
        return self.first.preimage_submodule(self.second.kernel())

    def apply(self, vec):
        return self.second.apply(self.first.apply(vec))

    def image_submodule(self, N):
        return self.second.image_submodule(self.first.image_submodule(N))

    def preimage_submodule(self, N2):
        return self.first.preimage_submodule(self.second.preimage_submodule(N2))


@dataclass(frozen=True)
class PiAnalysis:
    injective: bool
    surjective: bool
    continuity_ok: bool
    homeomorphism: Trilean


class InducedSpectrumMap:
    """The map of primary spectra induced by a graded epimorphism
    f : M -> M', sending a point of the target spectrum to its preimage."""

    def __init__(self, f):
        self.f = f

    def apply(self, Q2: GradedSubmodule) -> GradedSubmodule:
        """Preimage of a primary-spectrum point of M'; it lies in the primary
        spectrum of M (L2.14 checks this)."""
        return self.f.preimage_submodule(Q2)

    def push(self, Q: GradedSubmodule) -> GradedSubmodule:
        """Image of a primary-spectrum point of M containing the kernel; it
        lies in the primary spectrum of M' (L2.14 checks this)."""
        if not Q.contains(self.f.kernel()):
            raise AlgebraError("point does not contain the kernel")
        return self.f.image_submodule(Q)

    def analyze(self, bound: int = DEFAULT_ENUM_BOUND) -> PiAnalysis:
        """Extensional analysis between materialized primary spectra:
        injectivity, the continuity identity for every closed set of the
        source side, and the homeomorphism property when surjective."""
        M, M2 = self.f.source, self.f.target
        sp = build_space(M, PSPEC, bound)
        sp2 = build_space(M2, PSPEC, bound)
        mapping = [sp.index_of(self.apply(Q2)) for Q2 in sp2.points]
        injective = len(set(mapping)) == len(mapping)
        surjective = set(mapping) == set(range(len(sp.points)))

        continuity_ok = True
        for N in enumerate_submodules(M, bound):
            want = variety(
                sp2, ideal_times_module(N.colon().radical(), M2)
            ).mask
            got = 0
            target = variety(sp, N).mask
            for j, i in enumerate(mapping):
                if target >> i & 1:
                    got |= 1 << j
            if got != want:
                continuity_ok = False

        if surjective:
            source_closed = set(sp.closed_masks)
            closed_map = True
            for c2 in sp2.closed_masks:
                img = 0
                for j, i in enumerate(mapping):
                    if c2 >> j & 1:
                        img |= 1 << i
                if img not in source_closed:
                    closed_map = False
            homeo = (
                Trilean.yes()
                if (injective and continuity_ok and closed_map)
                else Trilean.no(None)
            )
        else:
            homeo = Trilean(False, reason="not surjective")
        return PiAnalysis(injective, surjective, continuity_ok, homeo)


def identity_map(M: GradedModule) -> PermutationMap:
    return PermutationMap(M, range(len(M.factors)))
