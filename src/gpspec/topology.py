"""Finite Zariski-type spaces on the primary, prime and ring spectra, their
varieties and base sets, and the topological analyzer (connectedness,
irreducibility, components, generic points, separation, soberness, the
spectral-space checklist).

Only finite spaces are materialized; they read star varieties and radical
cores off the lattice table, and pointwise membership predicates serve the rest.
"""

from __future__ import annotations

from math import lcm

from . import numtheory
from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    Ideal,
    SubmoduleLattice,
    Value,
    _lattice,
    enumerate_submodules,
    ideal_times_module,
    is_enumerable,
    per_module,
)
from .spectra import Trilean, graded_radical, is_multiplication, spectrum_points

PSPEC = "primary"
SPEC = "prime"
RINGSPEC = "ringspec"


class FiniteSpace:
    """A materialized spectrum with its full closed-set family.

    points are canonical submodules (module spaces) or prime ideals (ring
    spaces), position maps each to its index; closed_masks is the deduplicated
    family of all varieties, with a witness submodule/ideal per closed set;
    base lists the distinct basic opens with one representative scalar each.
    """

    def __init__(self, kind, points, module=None, ring=None):
        self.kind = kind
        self.points = tuple(points)
        self.position = {p: i for i, p in enumerate(self.points)}
        self.module = module
        self.ring = ring
        self.full_mask = (1 << len(self.points)) - 1
        self.closed_masks: tuple[int, ...] = ()
        self.witnesses: dict[int, object] = {}
        self.base: tuple[tuple[int, int], ...] = ()
        # the graded radical of each point, for module spaces
        self.radicals: tuple[GradedSubmodule, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.points

    def indices(self, mask: int) -> list[int]:
        """The indices of the points in a mask, ascending."""
        return [i for i in range(len(self.points)) if mask >> i & 1]

    def members(self, mask: int) -> list:
        """The points in a mask, in canonical order."""
        return [self.points[i] for i in self.indices(mask)]

    def index_of(self, point) -> int:
        return self.position[point]


def build_space(
    M: GradedModule, kind: str = PSPEC, bound: int = DEFAULT_ENUM_BOUND
) -> FiniteSpace:
    """Materialize the primary or prime spectrum of a finite module with every
    variety (deduplicated, witnessed) and the basic opens, shared read-only:
    one space per (M, kind, bound), however the call is spelled."""
    return _build_space(M, kind, bound)


@per_module
def _build_space(M: GradedModule, kind: str, bound: int) -> FiniteSpace:
    if kind not in (PSPEC, SPEC):
        raise AlgebraError(f"unknown module space kind {kind!r}")
    points = spectrum_points(M, kind, bound)
    space = FiniteSpace(kind, points, module=M)
    space.radicals = tuple(graded_radical(Q, bound).require() for Q in points)
    _fill_families(
        space, enumerate_submodules(M, bound), variety, base_scalars(M.exponent),
        basic_open,
    )
    return space


def _fill_families(space: FiniteSpace, generators, closed_of, scalars, open_of) -> None:
    """Set the deduplicated closed family, witnessed by the first generator
    giving each closed set, and the distinct basic opens, represented by the
    first scalar giving each."""
    witnesses: dict[int, object] = {}
    for X in generators:
        witnesses.setdefault(closed_of(space, X), X)
    space.closed_masks = tuple(sorted(witnesses))
    space.witnesses = witnesses
    base: dict[int, int] = {}
    for r in scalars:
        base.setdefault(open_of(space, r), r)
    space.base = tuple((r, m) for m, r in base.items())


def base_scalars(n: int) -> list[int]:
    """0, 1 and the divisors of n, ascending: representative scalars for
    every distinct basic open when n is the ring modulus or the module's
    exponent L.  S_r depends on r only through gcd(r, L), a divisor of L no
    larger than r, so the first scalar giving each open is in this list."""
    return sorted({0, 1, *numtheory.divisors(n)})


def build_ring_space(ring: BaseRing) -> FiniteSpace:
    """Materialize the prime spectrum of a finite ring Z/m with the V(I)
    closed family and the basic opens D_r."""
    points = ring.prime_ideals()
    space = FiniteSpace(RINGSPEC, points, ring=ring)
    _fill_families(
        space, ring.ideals(), ring_variety, base_scalars(ring.modulus), ring_basic_open
    )
    return space


# -- varieties ---------------------------------------------------------------


def variety(space: FiniteSpace, N: GradedSubmodule, star: bool = False) -> int:
    """Mask of the closed set of points cut out by N.

    On the primary spectrum: points whose graded radical contains N (star,
    read off the space's star table) or whose radical-colon contains (N : M)
    (default, the closed sets of the topology, memoised with the space by
    (N : M)).  On the prime spectrum the same with each point its own radical.
    """
    if space.kind == RINGSPEC:
        raise AlgebraError("use ring_variety on ring spectra")
    if N.module != space.module:
        raise AlgebraError("submodule lives in a different module")
    if star:
        return star_masks(space)[_lattice(space.module).position[N]]
    return _colon_variety(space, N.colon())


@per_module
def _radical_masks(space: FiniteSpace) -> tuple[SubmoduleLattice, tuple[int, ...]]:
    """The lattice table and the element masks of the points' graded radicals in it."""
    lat = _lattice(space.module)
    return lat, tuple(lat.masks[lat.position[R]] for R in space.radicals)


@per_module
def star_masks(space: FiniteSpace) -> tuple[int, ...]:
    """Star-variety masks of a module space, aligned with enumerate_submodules:
    one AND of element masks per submodule and distinct point radical."""
    lat, radicals = _radical_masks(space)
    points_of: dict[int, int] = {}  # radical element mask -> its points
    for j, R in enumerate(radicals):
        points_of[R] = points_of.get(R, 0) | 1 << j
    return tuple(sum(points for R, points in points_of.items() if not mask & ~R)
                 for mask in lat.masks)


@per_module
def _colon_variety(space: FiniteSpace, c: Ideal) -> int:
    return sum(1 << i for i, R in enumerate(space.radicals) if R.colon().contains(c))


def variety_membership(
    N: GradedSubmodule, Q: GradedSubmodule, star: bool = False,
    bound: int = DEFAULT_ENUM_BOUND,
) -> bool:
    """Pointwise variety membership, usable when the spectrum is infinite."""
    R = graded_radical(Q, bound).require()
    if star:
        return R.contains(N)
    return R.colon().contains(N.colon())


def basic_open(space: FiniteSpace, r: int) -> int:
    """Complement of the variety of r.M; these sets form the base."""
    if space.kind == RINGSPEC:
        raise AlgebraError("use ring_basic_open on ring spectra")
    M = space.module
    return variety(space, ideal_times_module(M.ring.ideal(r), M)) ^ space.full_mask


def ring_variety(space: FiniteSpace, I: Ideal) -> int:
    if space.kind != RINGSPEC:
        raise AlgebraError("ring_variety needs a ring spectrum")
    return sum(1 << i for i, p in enumerate(space.points) if p.contains(I))


def ring_basic_open(space: FiniteSpace, r: int) -> int:
    return ring_variety(space, space.ring.ideal(r)) ^ space.full_mask


# -- eta / gamma / closure -----------------------------------------------------


def radical_core(space: FiniteSpace, Y: int) -> GradedSubmodule:
    """Intersection of the graded radicals of the points in Y: the AND of their
    element masks in the lattice table; the whole module for the empty set."""
    if space.kind == RINGSPEC:
        raise AlgebraError("radical_core applies to module spaces")
    lat, radicals = _radical_masks(space)
    core = lat.masks[-1]  # M, the last and largest submodule
    for i, R in enumerate(radicals):
        if Y >> i & 1:
            core &= R
    return lat.subs[lat.index[core]]


def ideal_core(space: FiniteSpace, Z: int) -> Ideal:
    """Intersection of the member ideals of a ring-spectrum subset; the unit
    ideal for the empty set."""
    if space.kind != RINGSPEC:
        raise AlgebraError("ideal_core applies to ring spectra")
    members = space.members(Z)
    if not members:
        return space.ring.unit_ideal
    gen = 1
    for p in members:
        gen = lcm(gen, p.gen)
    return space.ring.ideal(gen)


def closure(space: FiniteSpace, Y: int) -> int:
    """Topological closure: the intersection of the closed sets containing Y
    (the family is closed under intersection, so this is closed).  On the
    primary spectrum it is the variety of the radical core; P4.1 checks that."""
    acc = space.full_mask
    for m in space.closed_masks:
        if Y & ~m == 0:
            acc &= m
    return acc


# -- analysis ------------------------------------------------------------------


class TopologyReport(Value):
    """Flags of a finite space, component masks, (closed mask, generic points) pairs."""

    __slots__ = ("connected", "irreducible", "t0", "t1", "sober", "spectral",
                 "quasi_compact", "trivial_topology", "is_empty", "components",
                 "generic_points")


def is_irreducible_subset(space: FiniteSpace, mask: int) -> bool:
    """Irreducibility by definition: nonempty, and any two relatively open
    nonempty subsets intersect.  The empty set is not irreducible."""
    if mask == 0:
        return False
    opens = [m ^ space.full_mask for m in space.closed_masks]
    rel = {o & mask for o in opens if o & mask}
    for a in rel:
        for b in rel:
            if a & b == 0:
                return False
    return True


def specialization_closures(space: FiniteSpace) -> list[int]:
    """Closure mask of each singleton; point j specializes point i (edge
    i -> j) when j lies in the closure of {i}."""
    return [closure(space, 1 << i) for i in range(len(space.points))]


def analyze_space(space: FiniteSpace) -> TopologyReport:
    full = space.full_mask
    closed = list(space.closed_masks)
    closed_set = set(closed)
    opens = [m ^ full for m in closed]

    connected = not any(
        m in closed_set and m not in (0, full) for m in opens
    )
    irreducible = is_irreducible_subset(space, full)

    sing = specialization_closures(space)
    t0 = len(set(sing)) == len(sing)
    t1 = all(sing[i] == 1 << i for i in range(len(space.points)))

    irr_closed = [m for m in closed if is_irreducible_subset(space, m)]
    generic: list[tuple[int, tuple[int, ...]]] = []
    for m in irr_closed:
        pts = tuple(i for i in range(len(space.points)) if m >> i & 1 and sing[i] == m)
        generic.append((m, pts))
    sober = all(len(pts) == 1 for _, pts in generic)

    components = [
        m for m in irr_closed if not any(other != m and other & m == m for other in irr_closed)
    ]

    # a finite space is quasi-compact and its opens form a base closed under
    # finite intersection (T3.4 runs quasi-compactness, T3.5 checks the base)
    spectral = t0 and sober

    trivial = set(closed) <= {0, full}

    return TopologyReport(
        connected=connected,
        irreducible=irreducible,
        t0=t0,
        t1=t1,
        sober=sober,
        spectral=spectral,
        quasi_compact=True,
        trivial_topology=trivial,
        is_empty=space.is_empty,
        components=tuple(sorted(components)),
        generic_points=tuple(sorted(generic)),
    )


# -- the quasi topology --------------------------------------------------------


def union_gap(family) -> tuple[int, int] | None:
    """First pair of masks (a, b), in ascending order, whose union a | b is
    not in the family; None when the family is closed under union."""
    order = sorted(family)
    for a in order:
        for b in order:
            if a | b not in family:
                return a, b
    return None


def star_variety_family(space: FiniteSpace):
    """Each star variety with the first submodule giving it as witness."""
    out: dict[int, GradedSubmodule] = {}
    for N, mask in zip(_lattice(space.module).subs, star_masks(space)):
        out.setdefault(mask, N)
    return out


def is_primary_top_module(M: GradedModule, bound: int = DEFAULT_ENUM_BOUND) -> Trilean:
    """Whether the star-variety family is closed under finite union, so that
    it defines a topology on the primary spectrum.

    Finite modules within the bound are decided exhaustively over all
    pairs; past it, multiplication (that is cyclic) modules qualify, and
    any other is Unknown.
    """
    if is_enumerable(M, bound):
        space = build_space(M, PSPEC, bound)
        fam = star_variety_family(space)
        gap = union_gap(fam)
        if gap is not None:
            return Trilean.no((fam[gap[0]], fam[gap[1]]))
        return Trilean.yes()
    mult = is_multiplication(M)
    if mult.is_true:
        return Trilean.yes()  # multiplication modules carry the quasi topology
    return Trilean.unknown("past the enumeration bound and not a multiplication module")
