"""Catalog of executable structural checks with stable ids, each with the
applicability guards its catalog entry declares and a counterexample
reporter; `gps check` is its CLI front end.

Identities are verified extensionally over all graded submodules, pairs
and ideals of a finite instance.  A scalar r enters only through its ideal
(r): P3.2 decides every residue of Z/n and every pair of residues through
one scalar per ideal and counts them all.  Graded maps are read only
through pullbacks, and a projection M -> M/K is built on first use.  Three
quantifiers sample past a size, with SUBSET_SAMPLES draws from
random.Random(seed), seed being `gps check --seed`: triples of submodules
past n^3 > TRIPLE_LIMIT (more than 50 submodules), subsets of points past
SUBSET_EXHAUSTIVE_LIMIT points, and T3.4's families of base sets past that
many base sets.  The two sides of an identity are always computed by
independent routines (for example closure as the variety of the radical
core versus the intersection of the closed sets containing it).
Implications whose hypothesis is Unknown are skipped, never assumed.
T3.4 alone runs quasi-compactness, and T3.5 alone checks the quasi-compact
base, which on a finite space is every open; analyze_space takes both as given.
"""

from __future__ import annotations

import random
from functools import cached_property, reduce
from itertools import chain

from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    GradedModule,
    Ideal,
    SubmoduleLattice,
    UnknownCheckError,
    Value,
    enumerate_submodules,
    ideal_times_module,
    is_enumerable,
    lattice,
    quotient_module,
)
from .dsl import Model
from .maps import (
    InducedSpectrumMap,
    MapAnalysis,
    PermutationMap,
    PiAnalysis,
    analyze_natural_map,
    identity_map,
    image_mask,
    preimage_mask,
)
from .spectra import (
    graded_radical,
    in_primary_spectrum,
    is_cancellation,
    is_graded_prime,
    is_graded_primary,
    is_multiplication,
    spectrum_points,
)
from .topology import (
    PSPEC,
    SPEC,
    analyze_space,
    base_scalars,
    basic_open,
    build_space,
    closure,
    ideal_core,
    is_irreducible_subset,
    is_primary_top_module,
    radical_core,
    ring_basic_open,
    ring_variety,
    specialization_closures,
    star_masks,
    star_variety_family,
    variety,
    variety_membership,
)

SUBSET_EXHAUSTIVE_LIMIT = 12
SUBSET_SAMPLES = 256
TRIPLE_LIMIT = 125_000


class Skip(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class CheckFailure(Exception):
    def __init__(self, message: str, counterexample=None):
        self.message = message
        self.counterexample = counterexample
        super().__init__(message)


class CheckResult(Value):
    """One check's outcome on one instance: "pass", "fail", "skip" or "error"."""

    __slots__ = ("check_id", "status", "instance", "detail", "vacuous",
                 "counterexample")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, check_id: str, status: str, instance: str, detail: str = "",
                 vacuous: bool = False, counterexample: object = None):
        super().__init__(check_id, status, instance, detail, vacuous, counterexample)


class Context:
    """Per-instance caches shared by the checks.  Each table enumerates M,
    so the checks read them only behind the `finite` guard."""

    def __init__(self, model: Model, instance: str, bound: int, seed: int):
        self.model = model
        self.instance = instance
        self.bound = bound
        self.seed = seed
        self._induced: dict[int, PiAnalysis] = {}

    @property
    def module(self) -> GradedModule:
        return self.model.module

    @cached_property
    def finite(self) -> bool:
        return is_enumerable(self.module, self.bound)

    @cached_property
    def subs(self):
        return enumerate_submodules(self.module, self.bound)

    @cached_property
    def proper_subs(self):
        return tuple(N for N in self.subs if N.is_proper)

    @cached_property
    def lattice(self) -> SubmoduleLattice:
        """Meets, joins and containments of `subs`, by position."""
        return lattice(self.module, self.bound)

    @cached_property
    def pspec(self):
        return build_space(self.module, PSPEC, self.bound)

    @cached_property
    def spec(self):
        return build_space(self.module, SPEC, self.bound)

    @cached_property
    def rho(self) -> MapAnalysis:
        return analyze_natural_map(self.module, PSPEC, self.bound)

    @cached_property
    def reduced(self):
        return self.rho.reduced

    @cached_property
    def ring_space(self):
        return self.rho.ring_space

    @cached_property
    def phi(self) -> MapAnalysis:
        return analyze_natural_map(self.module, SPEC, self.bound)

    @cached_property
    def nu_masks(self) -> list[int]:
        """Variety masks on the primary spectrum, aligned with `subs`."""
        return [variety(self.pspec, N) for N in self.subs]

    @cached_property
    def star_masks(self) -> tuple[int, ...]:
        """Star-variety masks on the primary spectrum, aligned with `subs`."""
        return star_masks(self.pspec)

    @cached_property
    def ring_ideal_reps(self) -> tuple[Ideal, ...]:
        ring = self.module.ring
        if ring.is_finite:
            return tuple(ring.ideals())
        return tuple(ring.ideal(g) for g in self.scalar_reps)

    @cached_property
    def scalar_reps(self) -> tuple[int, ...]:
        """A scalar for every ideal (r), ascending, so that each ideal comes
        first at its least residue: 0, 1 and the divisors of n over Z/n (n
        gives (0) again), of the module's exponent L over Z (base_scalars)."""
        return tuple(base_scalars(self.module.ring.modulus or self.module.exponent))

    def subset_masks(self, space) -> list[int]:
        n = len(space.points)
        if n <= SUBSET_EXHAUSTIVE_LIMIT:
            return list(range(1 << n))
        rng = random.Random(self.seed)
        masks = {0, space.full_mask}
        while len(masks) < SUBSET_SAMPLES:
            masks.add(rng.randrange(1 << n))
        return sorted(masks)

    def named_subset_masks(self, space) -> list[int]:
        """Masks of the all-point named subsets; a repeated point counts once."""
        out = []
        for members in self.model.named_subsets.values():
            subs = {self.model.named_submodules[m] for m in members}
            if subs <= space.position.keys():
                out.append(sum(1 << space.position[s] for s in subs))
        return out

    def triples(self, items):
        n = len(items)
        if n**3 <= TRIPLE_LIMIT:
            for a in items:
                for b in items:
                    for c in items:
                        yield a, b, c
            return
        rng = random.Random(self.seed)
        for _ in range(SUBSET_SAMPLES):
            yield (
                items[rng.randrange(n)],
                items[rng.randrange(n)],
                items[rng.randrange(n)],
            )

    def induced(self, k: int) -> PiAnalysis:
        """The induced spectrum map of the projection M -> M/subs[k], built
        and analysed on first use: only the projections a check reads are
        built, and each target point is pulled back at most once per run."""
        if k not in self._induced:
            proj = quotient_module(self.module, self.subs[k])[1]
            self._induced[k] = InducedSpectrumMap(proj).analyze(self.bound)
        return self._induced[k]


# -- guards --------------------------------------------------------------------
# A catalog entry names its guards in `requires`; they run in that order
# before the check.  A guard raises Skip, returns a vacuous (0, detail) result
# when the check's hypothesis fails, or returns None to go on.


def finite(ctx: Context):
    if not ctx.finite:
        M = ctx.module
        if M.is_finite:
            raise Skip(f"|M| = {M.size} exceeds enumeration bound {ctx.bound}: "
                       "only pointwise checks apply")
        raise Skip("infinite instance: only pointwise checks apply")


def nonzero(ctx: Context):
    if not ctx.module.factors:
        raise Skip("the zero module: R/ann(M) is the zero ring")


def surjective(ctx: Context):
    if not ctx.rho.surjective.is_true:
        raise Skip("natural map not surjective")


def multiplication(ctx: Context):
    if is_multiplication(ctx.module).is_false:
        return 0, "hypothesis fails (not a multiplication module)"
    return None


def over_integers(ctx: Context):
    if ctx.module.ring.modulus != 0:
        raise Skip("stated for modules over a graded principal ideal domain")


# -- check implementations -----------------------------------------------------
# Each check returns (substantive_count, detail) or raises Skip / CheckFailure.


def _fail(msg: str, ce=None):
    raise CheckFailure(msg, ce)


def _union_closed(fam: dict, what: str) -> int:
    """Fail on the first pair of masks in `fam` whose union is missing from
    it, reporting their witnesses; else return the number of pairs.  The
    walk is its own, not `topology.union_gap`, which decides C2.7's
    hypothesis: a fault there would otherwise pass its own check."""
    for a in fam:
        for b in fam:
            if a | b not in fam:
                _fail(f"{what} is not closed under union", (fam[a], fam[b]))
    return len(fam) ** 2


def _separates_points(sp) -> bool:
    """Whether distinct points of the space have distinct point varieties."""
    masks = [variety(sp, Q) for Q in sp.points]
    return len(set(masks)) == len(masks)


def check_T2_1(ctx: Context):
    sp = ctx.pspec
    star = ctx.star_masks
    lat = ctx.lattice
    pos = lat.position
    count = 0
    if star[pos[ctx.module.zero_submodule]] != sp.full_mask:
        _fail("star variety of 0 is not the whole space")
    if star[pos[ctx.module.full_submodule]] != 0:
        _fail("star variety of M is not empty")
    count += 2
    subs, masks, up = ctx.subs, lat.masks, lat.up
    n = len(subs)
    for i in range(n):
        for j in range(n):
            inside = not masks[i] & ~masks[j]
            if inside != up[i] >> j & 1:
                _fail("containment table disagrees with the element masks", (subs[i], subs[j]))
            if inside and star[j] & ~star[i]:
                _fail("antitonicity fails", (subs[i], subs[j]))
            if star[i] & star[j] != star[lat.join(i, j)]:
                _fail("pairwise intersection law fails", (subs[i], subs[j]))
            if (star[i] | star[j]) & ~star[lat.meet(i, j)]:
                _fail("union is not inside the variety of the intersection",
                      (subs[i], subs[j]))
            count += 3
    for i, j, k in ctx.triples(range(n)):
        if star[i] & star[j] & star[k] != star[lat.join(lat.join(i, j), k)]:
            _fail("triple intersection law fails", (subs[i], subs[j], subs[k]))
        count += 1
    for N in ctx.proper_subs:
        r = graded_radical(N, ctx.bound)
        if r.status == "submodule" and star[pos[N]] != star[pos[r.submodule]]:
            _fail("variety differs from variety of the radical", N)
        count += 1
    return count, f"{count} instantiations"


def check_CE2_1(ctx: Context):
    M = ctx.module
    if (
        M.ring.modulus != 0
        or len(M.factors) != 2
        or any(o != 0 for o, _ in M.factors)
        or M.factors[0][1] == M.factors[1][1]
    ):
        raise Skip("needs the rank-two free instance with distinct degrees")
    N = M.submodule([(4, 0)])
    N2 = M.submodule([(0, 4)])
    P = M.zero_submodule
    if not is_graded_prime(P):
        _fail("the zero submodule should be graded prime here")
    inter = N.intersect(N2)
    if not variety_membership(inter, P, star=True, bound=ctx.bound):
        _fail("P should lie in the star variety of the intersection")
    if variety_membership(N, P, star=True, bound=ctx.bound) or variety_membership(
        N2, P, star=True, bound=ctx.bound
    ):
        _fail("P should avoid both star varieties")
    return 3, "strict inclusion confirmed at P"


def check_T2_2(ctx: Context):
    fam = star_variety_family(ctx.pspec)
    count = _union_closed(fam, "star family")
    return count, f"union closure over {len(fam)} distinct star varieties"


def check_P2_3(ctx: Context):
    M = ctx.module
    sp = ctx.pspec
    star = ctx.star_masks
    pos = ctx.lattice.position
    count = 0
    for I in ctx.ring_ideal_reps:
        IM = pos[ideal_times_module(I, M)]
        for i, N in enumerate(ctx.subs):
            IN = N.scaled(I)
            lhs = star[i] | star[IM]
            rhs = variety(sp, IN, star=True)
            if lhs != rhs:
                _fail("scaled-variety union law fails", (I, N))
            count += 1
        for J in ctx.ring_ideal_reps:
            lhs = star[IM] | star[pos[ideal_times_module(J, M)]]
            rhs = variety(sp, ideal_times_module(I.product(J), M), star=True)
            if lhs != rhs:
                _fail("product law for scaled varieties fails", (I, J))
            count += 1
    return count, f"{count} instantiations"


def check_T2_4(ctx: Context):
    sp = ctx.pspec
    nu = ctx.nu_masks
    lat = ctx.lattice
    pos = lat.position
    M = ctx.module
    count = 0
    if nu[pos[M.zero_submodule]] != sp.full_mask or nu[pos[M.full_submodule]] != 0:
        _fail("boundary varieties are wrong")
    count += 2
    subs, up = ctx.subs, lat.up
    n = len(subs)
    colon_mods = [pos[ideal_times_module(N.colon(), M)] for N in subs]
    for i in range(n):
        for j in range(n):
            if nu[i] & nu[j] != nu[lat.join(colon_mods[i], colon_mods[j])]:
                _fail("pairwise intersection law fails", (subs[i], subs[j]))
            if nu[i] | nu[j] != nu[lat.meet(i, j)]:
                _fail("union law fails", (subs[i], subs[j]))
            if up[i] >> j & 1 and nu[j] & ~nu[i]:
                _fail("antitonicity fails", (subs[i], subs[j]))
            count += 3
    for i, j, k in ctx.triples(range(n)):
        lhs = nu[i] & nu[j] & nu[k]
        rhs = nu[lat.join(lat.join(colon_mods[i], colon_mods[j]), colon_mods[k])]
        if lhs != rhs:
            _fail("triple intersection law fails", (subs[i], subs[j], subs[k]))
        count += 1
    return count, f"{count} instantiations"


def check_P2_5(ctx: Context):
    mult = is_multiplication(ctx.module)
    primary_points = set(ctx.pspec.points)
    count = 0
    logged = 0
    for N in ctx.proper_subs:
        r = graded_radical(N, ctx.bound)
        if r.status != "submodule":
            continue
        identity_holds = (
            ctx.nu_masks[ctx.lattice.position[N]] == variety(ctx.pspec, r.submodule)
        )
        hyp = (N in primary_points) or mult.is_true
        if hyp:
            if not identity_holds:
                _fail("variety of the radical differs", N)
            count += 1
        elif identity_holds:
            logged += 1  # observed outside the hypotheses; logged, not asserted
    note = f"; identity also held in {logged} unguarded cases" if logged else ""
    return count, f"{count} instantiations{note}"


def check_L2_6(ctx: Context):
    ps, ss = ctx.pspec, ctx.spec
    inclusion = [ps.position.get(p) for p in ss.points]
    if None in inclusion:
        _fail("a prime point is not primary", ss.points[inclusion.index(None)])
    M = ctx.module
    nu, star = ctx.nu_masks, ctx.star_masks
    pos = ctx.lattice.position
    subs = ctx.subs
    count = 0
    for N, nu_mask, star_mask in zip(subs, nu, star):
        if variety(ss, N) != preimage_mask(inclusion, nu_mask):
            _fail("prime-side variety is not the restriction", N)
        if variety(ss, N, star=True) != preimage_mask(inclusion, star_mask):
            _fail("prime-side star variety is not the restriction", N)
        cm = pos[ideal_times_module(N.colon(), M)]
        gm = pos[ideal_times_module(N.colon_radical(), M)]
        if not nu_mask == nu[cm] == star[cm] == star[gm]:
            _fail("colon reformulations of the variety differ", N)
        count += 3
    rads = [N.colon_radical() for N in subs]
    primary_points = set(ps.points)
    on_points = [N in primary_points for N in subs]
    n = len(subs)
    for i in range(n):
        for j in range(n):
            same_rad = rads[i] == rads[j]
            same_variety = nu[i] == nu[j]
            if same_rad and not same_variety:
                _fail("equal colon radicals gave different varieties", (subs[i], subs[j]))
            if on_points[i] and on_points[j] and same_variety and not same_rad:
                _fail("converse fails on primary points", (subs[i], subs[j]))
            count += 1
    return count, f"{count} instantiations"


def check_C2_7(ctx: Context):
    if is_primary_top_module(ctx.module, ctx.bound).is_false:
        return 0, "hypothesis fails (not primary top)"
    fam = star_variety_family(ctx.spec)
    count = _union_closed(fam, "prime-side star family")
    return count, f"union closure over {len(fam)} distinct sets"


def check_P2_8(ctx: Context):
    res = ctx.rho
    separates = _separates_points(res.space)
    fibers_small = all(mask.bit_count() <= 1 for _, mask in res.fibers)
    injective = res.injective.is_true
    if not (separates == fibers_small == injective):
        _fail(
            f"equivalence broken: separates={separates}, fibers<=1={fibers_small}, "
            f"injective={injective}"
        )
    return 3, f"all three equal {injective}"


def check_C2_9(ctx: Context):
    res = ctx.rho
    if not all(mask.bit_count() == 1 for _, mask in res.fibers):
        return 0, "hypothesis fails (some fiber is not a singleton)"
    if not (res.injective.is_true and res.surjective.is_true):
        _fail("map is not bijective despite singleton fibers")
    return 1, "bijective"


def check_P2_10(ctx: Context):
    res = ctx.rho
    ann = ctx.reduced.ann.gen
    for p in ctx.ring_space.points:
        if ann % p.gen:
            _fail("a prime of the reduced ring does not lie over Ann(M)", p)
    if not res.continuity_ok:
        _fail("preimage identity fails for some reduced ideal")
    return len(ctx.reduced.ideals()), "preimage identity for every reduced ideal"


def check_P2_11(ctx: Context):
    res = ctx.rho
    if not res.surjective.is_true:
        return 0, "hypothesis fails (natural map not surjective)"
    if res.image_identities_ok is not True:
        _fail("image identities fail")
    if not res.open_closed.is_true:
        _fail("map is not open and closed")
    return len(ctx.subs), "image identities over all submodules"


def check_C2_12(ctx: Context):
    res = ctx.rho
    bijective = res.injective.is_true and res.surjective.is_true
    homeo = res.homeomorphism.is_true
    if bijective != homeo:
        _fail(f"bijective={bijective} but homeomorphism={homeo}")
    return 1, f"both sides {bijective}"


def check_T2_13(ctx: Context):
    c_spec = analyze_space(ctx.spec).connected
    c_pspec = analyze_space(ctx.pspec).connected
    c_ring = analyze_space(ctx.ring_space).connected
    if c_spec and not c_pspec:
        _fail("connected prime spectrum but disconnected primary spectrum")
    if c_pspec != c_ring:
        _fail("primary spectrum and reduced ring disagree on connectedness")
    count = 1 + (1 if c_spec else 0)
    if ctx.phi.surjective.is_true:
        if not (c_spec == c_pspec == c_ring):
            _fail("the three connectedness statements differ")
        count += 1
    return count, f"connected: spec={c_spec}, pspec={c_pspec}, ring={c_ring}"


def check_L2_14(ctx: Context):
    # pi is onto with kernel K, so a primary Q containing K maps to a point
    # exactly when Q = pi^-1(pi(Q)) is among the pullbacks of the points;
    # the points are in lattice order, so the lowest uncovered bit is the first
    lat, points = ctx.lattice, ctx.pspec.points
    position = [lat.position[Q] for Q in points]
    primary_mask = sum(1 << p for p in position)
    count = 0
    for k, K in enumerate(ctx.subs):
        res = ctx.induced(k)
        if None in res.mapping:
            target_space = build_space(quotient_module(ctx.module, K)[0], PSPEC, ctx.bound)
            _fail("preimage left the primary spectrum",
                  (K, target_space.points[res.mapping.index(None)]))
        above = lat.up[k] & primary_mask
        uncovered = above & ~sum(1 << position[i] for i in set(res.mapping))
        if uncovered:
            _fail("image left the primary spectrum",
                  (K, ctx.subs[(uncovered & -uncovered).bit_length() - 1]))
        count += len(res.mapping) + above.bit_count()
    return count, f"{count} transports"


def check_T2_15(ctx: Context):
    count = 0
    for k, K in enumerate(ctx.subs):
        res = ctx.induced(k)
        if None in res.mapping:
            _fail("preimage left the primary spectrum", K)
        if not res.injective:
            _fail("induced map is not injective", K)
        if not res.continuity_ok:
            _fail("continuity identity fails", K)
        if res.surjective and not res.homeomorphism.is_true:
            _fail("surjective induced map is not a homeomorphism", K)
        count += 2 + (1 if res.surjective else 0)
    return count, f"{len(ctx.subs)} projections analyzed"


def check_C2_16(ctx: Context):
    M = ctx.module
    isos = [identity_map(M)]
    factors = M.factors
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[i] == factors[j]:
                assignment = list(range(len(factors)))
                assignment[i], assignment[j] = j, i
                isos.append(PermutationMap(M, assignment))
    # subs[0] is the zero submodule, so the projection M -> M/0 is one more
    analyses = chain([ctx.induced(0)], (InducedSpectrumMap(f).analyze(ctx.bound) for f in isos))
    count = 0
    for res in analyses:
        if not res.homeomorphism.is_true:
            _fail("isomorphism did not induce a homeomorphism")
        count += 1
    return count, f"{count} isomorphisms"


def check_T2_17(ctx: Context):
    M = ctx.module
    if M.ring.modulus != 0:
        raise Skip("needs the ring of integers (a graded PID)")
    if not (is_multiplication(M).is_true and is_cancellation(M).is_true):
        return 0, "hypothesis fails (not a cancellation multiplication module)"
    candidates = list(dict.fromkeys(
        [M.submodule([tuple(d if i == 0 else 0 for i in range(len(M.factors)))])
         for d in (0, 2, 3, 4, 6, 8, 9, 12)]
        + list(ctx.model.named_submodules.values())
    ))
    count = 0
    for N in candidates:
        if not N.is_proper:
            continue
        lhs = in_primary_spectrum(N, ctx.bound)
        r = graded_radical(N, ctx.bound)
        rhs = r.status == "submodule" and is_graded_prime(r.submodule)
        if lhs != rhs:
            _fail("membership equivalence fails", N)
        count += 1
    return count, f"{count} submodules tested"


def _finite_subcover_exists(target: int, cover: list[int]) -> bool:
    """Greedy extraction of a finite subcover from a cover by base opens;
    in a finite space this always succeeds, but it is executed, not assumed."""
    acc = 0
    for m in cover:
        if m & target & ~acc:
            acc |= m
        if target & ~acc == 0:
            return True
    return target & ~acc == 0


def is_quasi_compact(space, target_mask: int) -> bool:
    """Every cover of the target by basic opens admits a finite subcover.

    Any cover refines the maximal one (all base opens), so extracting an
    explicit finite subcover from that settles it; when no basic-open cover
    exists the condition holds vacuously.
    """
    if target_mask == 0:
        return True
    base_masks = [m for _, m in space.base]
    union_all = 0
    for m in base_masks:
        union_all |= m
    if target_mask & ~union_all:
        return True
    return _finite_subcover_exists(target_mask, base_masks)


def is_union_of_members(target: int, family: list[int]) -> bool:
    """Whether the members of the family inside the target cover it."""
    acc = 0
    for m in family:
        if m & target == m:
            acc |= m
    return acc == target


def check_P3_1(ctx: Context):
    sp = ctx.pspec
    base_masks = [m for _, m in sp.base]
    for c in sp.closed_masks:
        if not is_union_of_members(c ^ sp.full_mask, base_masks):
            _fail("an open set is not a union of basic opens", sp.witnesses[c])
    count = len(sp.closed_masks)
    return count, f"{count} opens generated by {len(base_masks)} basic sets"


def check_P3_2(ctx: Context):
    sp = ctx.pspec
    ring = ctx.module.ring
    rr = ctx.reduced
    rs = ctx.ring_space
    mapping = ctx.rho.mapping
    # S_r, D(r), nilpotence and being a unit depend on r only through (r),
    # and (rt) only through (r) and (t).  So every residue is decided by the
    # least residue of its ideal, and the ascending scalar_reps reach the
    # first failing residue first; the count is every residue and pair.
    opens: dict[int, int] = {}

    def open_of(r: int) -> int:
        gen = ring.ideal(r).gen
        if gen not in opens:
            opens[gen] = basic_open(sp, r)
        return opens[gen]

    for r in ctx.scalar_reps:
        s_r = open_of(r)
        # (1) the preimage of the reduced basic open is the module basic open
        d_r = ring_basic_open(rs, rr.reduce_ideal(ring.ideal(r).plus(rr.ann)).gen)
        if preimage_mask(mapping, d_r) != s_r:
            _fail("preimage of the reduced basic open differs", r)
        # (2) image inside the reduced basic open, equal when surjective
        img_mask = image_mask(mapping, s_r)
        if img_mask & ~d_r:
            _fail("image escapes the reduced basic open", r)
        if ctx.rho.surjective.is_true and img_mask != d_r:
            _fail("image equality fails despite surjectivity", r)
        # (4)(5) nilpotents and units
        if ring.is_nilpotent(r) and s_r != 0:
            _fail("nilpotent scalar gave a nonempty basic open", r)
        if ring.is_unit(r) and s_r != sp.full_mask:
            _fail("unit scalar did not give the full space", r)
    for r in ctx.scalar_reps:
        for t in ctx.scalar_reps:
            if open_of(r) & open_of(t) != open_of(r * t):
                _fail("multiplicativity of basic opens fails", (r, t))
    n = ring.modulus or len(ctx.scalar_reps)
    count = 4 * n + n * n
    return count, f"{count} instantiations"


def check_E3_3(ctx: Context):
    M = ctx.module
    ring = M.ring
    matched = False
    count = 0
    if ring.is_field and ctx.finite:
        rep = analyze_space(ctx.pspec)
        if not rep.trivial_topology:
            _fail("graded field did not give the trivial topology")
        matched = True
        count += 1
    if ring.modulus == 8 and ctx.finite and M.factors == ((8, (0,)),):
        sp = ctx.pspec
        if len(sp.points) != 3:
            _fail("the primary spectrum should have three points")
        for r in (1, 3, 5, 7):
            if basic_open(sp, r) != sp.full_mask:
                _fail("unit scalar basic open is not full", r)
        for r in (0, 2, 4, 6):
            if basic_open(sp, r) != 0:
                _fail("nilpotent scalar basic open is not empty", r)
        if not analyze_space(sp).trivial_topology:
            _fail("topology is not trivial")
        if ring.is_field:
            _fail("this ring must not be a graded field")
        matched = True
        count += 3
    if not matched:
        raise Skip("binds to graded-field instances and the Z8 instance")
    return count, "trivial topology confirmed"


def check_T3_4(ctx: Context):
    sp = ctx.pspec
    base_masks = [m for _, m in sp.base]
    count = 0
    targets = [sp.full_mask] + [m for m in base_masks]
    for target in targets:
        if not is_quasi_compact(sp, target):
            _fail("a basic open is not quasi-compact")
        count += 1
    # covers by subfamilies of the base, exhaustively or sampled
    n = len(base_masks)
    if n <= SUBSET_EXHAUSTIVE_LIMIT:
        families = range(1 << n)
    else:
        rng = random.Random(ctx.seed)
        families = (rng.randrange(1 << n) for _ in range(SUBSET_SAMPLES))
    for fam_mask in families:
        fam = [base_masks[i] for i in range(n) if fam_mask >> i & 1]
        union = 0
        for m in fam:
            union |= m
        for target in targets:
            if target & ~union == 0 and target:
                if not _finite_subcover_exists(target, fam):
                    _fail("a basic-open cover admitted no finite subcover")
                count += 1
    return count, f"{count} covers checked"


def check_T3_5(ctx: Context):
    # the space is finite, so every open is quasi-compact (T3.4)
    sp = ctx.pspec
    opens = [m ^ sp.full_mask for m in sp.closed_masks]
    opens_set = set(opens)
    count = 0
    for a in opens:
        for b in opens:
            if a & b not in opens_set:
                _fail("quasi-compact opens are not closed under intersection")
            count += 1
    for u in opens:
        if not is_union_of_members(u, opens):
            _fail("quasi-compact opens do not form a base")
        count += 1
    return count, f"{count} instantiations"


def check_P4_1(ctx: Context):
    sp = ctx.pspec
    count = 0
    for mask in ctx.subset_masks(sp) + ctx.named_subset_masks(sp):
        if ctx.nu_masks[ctx.lattice.position[radical_core(sp, mask)]] != closure(sp, mask):
            _fail("closure routes disagree", mask)
        count += 1
    return count, f"{count} subsets"


def check_T4_2(ctx: Context):
    sp = ctx.pspec
    count = 0
    for Q in sp.points:
        if not is_irreducible_subset(sp, variety(sp, Q)):
            _fail("a point variety is not irreducible", Q)
        count += 1
    if ctx.module.zero_submodule in set(sp.points):
        if not is_irreducible_subset(sp, sp.full_mask):
            _fail("zero is a point but the space is not irreducible")
        count += 1
    return count, f"{count} varieties"


def check_L4_3(ctx: Context):
    rs = ctx.ring_space
    count = 0
    for mask in ctx.subset_masks(rs):
        if mask == 0:
            continue  # nonempty subsets only, by the stated convention
        irr = is_irreducible_subset(rs, mask)
        meet_prime = ideal_core(rs, mask).is_prime
        if irr != meet_prime:
            _fail("irreducibility and primeness of the meet disagree", mask)
        count += 1
    return count, f"{count} ring-spectrum subsets"


def check_T4_4(ctx: Context):
    sp = ctx.pspec
    count = 0
    for mask in ctx.subset_masks(sp) + ctx.named_subset_masks(sp):
        if mask == 0:
            continue
        eta = radical_core(sp, mask)
        irreducible = is_irreducible_subset(sp, mask)
        if eta.is_proper and is_graded_primary(eta):
            if not irreducible:
                _fail("primary radical core but reducible subset", mask)
            count += 1
        if irreducible:
            meet = reduce(Ideal.intersect, [sp.radicals[i].colon() for i in sp.indices(mask)])
            if meet != eta.colon():
                _fail("colon of the core differs from the meet of colons", mask)
            if not eta.colon().is_prime:
                _fail("irreducible subset with non-prime core colon", mask)
            count += 1
    return count, f"{count} subsets"


def check_T4_5(ctx: Context):
    sp = ctx.pspec
    point_varieties = {variety(sp, Q) for Q in sp.points}
    closures = specialization_closures(sp)
    count = 0
    for c in sp.closed_masks:
        irr = is_irreducible_subset(sp, c)
        if irr != (c in point_varieties):
            _fail("irreducible closed sets are not exactly point varieties", c)
        if irr:
            if not any(closures[i] == c for i in range(len(sp.points)) if c >> i & 1):
                _fail("an irreducible closed set has no generic point", c)
        count += 1
    return count, f"{count} closed sets"


def _minimal_primes(ring_space):
    out = []
    for i, p in enumerate(ring_space.points):
        if not any(q != p and p.contains(q) for q in ring_space.points):
            out.append(p)
    return out


def check_T4_6(ctx: Context):
    sp = ctx.pspec
    rep = analyze_space(sp)
    components = set(rep.components)
    minimal = set(_minimal_primes(ctx.ring_space))
    count = 0
    for i, Q in enumerate(sp.points):
        is_min = ctx.rho.images[i] in minimal
        is_comp = variety(sp, Q) in components
        if is_min and not is_comp:
            _fail("minimal image but the variety is not a component", Q)
        if ctx.rho.surjective.is_true and is_comp and not is_min:
            _fail("component whose image is not minimal", Q)
        count += 1
    return count, f"{count} points"


def check_C4_7(ctx: Context):
    sp = ctx.pspec
    rs = ctx.ring_space
    minimal = set(_minimal_primes(rs))
    K = [i for i in range(len(sp.points)) if ctx.rho.images[i] in minimal]
    comp = set(analyze_space(sp).components)
    varieties = {variety(sp, sp.points[i]) for i in K}
    if varieties != comp:
        _fail("component family differs from the minimal-fiber varieties")
    union = 0
    for i in K:
        union |= variety(sp, sp.points[i])
    if union != sp.full_mask:
        _fail("point varieties over minimal primes do not cover")
    ring_union = 0
    rr = ctx.reduced
    for i in K:
        ring_union |= ring_variety(rs, rr.reduce_ideal(sp.points[i].colon()))
    if ring_union != rs.full_mask:
        _fail("reduced ring spectrum is not covered by the colon varieties")
    ss = ctx.spec
    spec_union = 0
    for i in K:
        spec_union |= variety(ss, sp.points[i])
    if spec_union != ss.full_mask:
        _fail("prime spectrum is not covered")
    count = 4
    if ctx.module.zero_submodule in set(ss.points):
        if comp != {sp.full_mask}:
            _fail("zero is prime but the space has several components")
        count += 1
    return count, "cover identities hold"


def check_P4_8(ctx: Context):
    sp = ctx.pspec
    count = 0
    for mask in ctx.subset_masks(sp) + ctx.named_subset_masks(sp):
        if mask == 0:
            continue
        eta = radical_core(sp, mask)
        if eta.is_zero or not eta.is_proper or not is_graded_primary(eta):
            continue
        fibers = {sp.radicals[i].colon() for i in sp.indices(mask)}
        if len(fibers) != 1:
            _fail("subset spreads over several fibers", mask)
        p = next(iter(fibers))
        if not p.is_maximal:
            _fail("fiber prime is not maximal", mask)
        count += 1
    return count, f"{count} qualifying subsets"


def check_P4_9(ctx: Context):
    if not analyze_space(ctx.pspec).t1:
        return 0, "hypothesis fails (not a T1 space)"
    primary = list(ctx.pspec.points)
    prime = list(ctx.spec.points)
    maximal = spectrum_points(ctx.module, "maximal", ctx.bound)
    if not (primary == prime == maximal):
        _fail("the three spectra differ under T1")
    return 1, f"all three spectra equal ({len(primary)} points)"


def check_T4_10(ctx: Context):
    rep = analyze_space(ctx.pspec)
    if rep.spectral != rep.t0:
        _fail(f"spectral={rep.spectral} but t0={rep.t0}")
    return 1, f"both {rep.t0}"


def check_T4_11(ctx: Context):
    sp = ctx.pspec
    rep = analyze_space(sp)
    t0 = rep.t0
    separates = _separates_points(sp)
    injective = ctx.rho.injective.is_true
    fibers_small = all(mask.bit_count() <= 1 for _, mask in ctx.rho.fibers)
    spectral = rep.spectral
    values = {t0, separates, injective, fibers_small, spectral}
    if len(values) != 1:
        _fail(
            f"five statements disagree: t0={t0}, separates={separates}, "
            f"injective={injective}, fibers={fibers_small}, spectral={spectral}"
        )
    return 5, f"all five equal {t0}"


def check_EX1_4Z(ctx: Context):
    M = ctx.module
    if not (M.ring.modulus == 0 and len(M.factors) == 1 and M.factors[0][0] == 0):
        raise Skip("binds to the rank-one free instance over the integers")
    four = M.submodule([(4,)])
    if not in_primary_spectrum(four, ctx.bound):
        _fail("4M should lie in the primary spectrum")
    if is_graded_prime(four):
        _fail("4M should not be graded prime")
    return 2, "primary spectrum strictly contains the prime spectrum here"


def check_EX4_2Z6(ctx: Context):
    M = ctx.module
    if not (M.ring.modulus == 6 and M.factors == ((6, (0,) * len(M.group.cyclic_orders)),)):
        raise Skip("binds to the Z6 instance")
    finite(ctx)
    sp = ctx.pspec
    sets = [frozenset(q.element_set()) for q in sp.points]
    want = [frozenset({(0,), (3,)}), frozenset({(0,), (2,), (4,)})]
    if sorted(sets, key=sorted) != sorted(want, key=sorted):
        _fail("primary spectrum points differ from the worked values")
    n3, n2 = M.submodule([(3,)]), M.submodule([(2,)])
    if sp.members(variety(sp, n3)) != [n3] or sp.members(variety(sp, n2)) != [n2]:
        _fail("the two varieties differ from the worked values")
    if variety(sp, M.zero_submodule) != sp.full_mask:
        _fail("the variety of zero is not the whole space")
    if is_irreducible_subset(sp, sp.full_mask):
        _fail("the space should not be irreducible")
    return 4, "worked example reproduced"


def check_selftest_fail(ctx: Context):
    _fail("deliberate self-test failure (exit-code exercise)")


class Check(Value):
    """A catalog entry: its guards (`requires`) and the check body they
    protect.  `fn` runs both, so a Check rebuilt from (check_id, title, fn)
    keeps its guards."""

    __slots__ = ("check_id", "title", "body", "requires")

    def __init__(self, check_id: str, title: str, body, requires: tuple = ()):
        super().__init__(check_id, title, body, requires)

    def fn(self, ctx: Context):
        for guard in self.requires:
            vacuous = guard(ctx)
            if vacuous is not None:
                return vacuous
        return self.body(ctx)


FINITE = (finite,)
NONZERO = (finite, nonzero)  # the checks that build R/ann(M)
SURJECTIVE = (finite, nonzero, surjective)
MULTIPLICATION = (finite, multiplication)

CATALOG: tuple[Check, ...] = (
    Check("T2.1", "laws of the radical-containment varieties", check_T2_1, FINITE),
    Check("T2.2", "multiplication modules carry the quasi topology", check_T2_2,
          MULTIPLICATION),
    Check("P2.3", "scaled-variety union laws on multiplication modules", check_P2_3,
          MULTIPLICATION),
    Check("T2.4", "closed-set axioms for the colon varieties", check_T2_4, FINITE),
    Check("P2.5", "variety of the radical under the stated hypotheses", check_P2_5,
          FINITE),
    Check("L2.6", "subspace and colon reformulation identities", check_L2_6, FINITE),
    Check("C2.7", "the quasi topology restricts to the prime spectrum", check_C2_7,
          FINITE),
    Check("P2.8", "separation, fibers and injectivity are equivalent", check_P2_8,
          NONZERO),
    Check("C2.9", "singleton fibers force a bijection", check_C2_9, NONZERO),
    Check("P2.10", "preimage identity (continuity of the natural map)", check_P2_10,
          NONZERO),
    Check("P2.11", "surjective natural maps are open and closed", check_P2_11, NONZERO),
    Check("C2.12", "bijective iff homeomorphism", check_C2_12, NONZERO),
    Check("T2.13", "connectedness transfers along the natural maps", check_T2_13,
          SURJECTIVE),
    Check("L2.14", "primary points transport along epimorphisms", check_L2_14, FINITE),
    Check("T2.15", "induced spectrum maps are injective and continuous", check_T2_15,
          FINITE),
    Check("C2.16", "isomorphisms induce homeomorphisms", check_C2_16, FINITE),
    Check("T2.17", "membership via the radical on cancellation modules", check_T2_17),
    Check("P3.1", "the scalar opens form a base", check_P3_1, FINITE),
    Check("P3.2", "behavior of the scalar opens", check_P3_2, NONZERO),
    Check("E3.3", "trivial-topology instances", check_E3_3),
    Check("T3.4", "basic opens are quasi-compact", check_T3_4, SURJECTIVE),
    Check("T3.5", "quasi-compact opens form a multiplicative base", check_T3_5,
          SURJECTIVE),
    Check("P4.1", "closure equals the variety of the radical core", check_P4_1, FINITE),
    Check("T4.2", "point varieties are irreducible", check_T4_2, FINITE),
    Check("L4.3", "irreducible ring subsets have prime meets", check_L4_3, NONZERO),
    Check("T4.4", "irreducibility via the radical core", check_T4_4, FINITE),
    Check("T4.5", "irreducible closed sets have generic points", check_T4_5, SURJECTIVE),
    Check("T4.6", "components come from minimal primes", check_T4_6, NONZERO),
    Check("C4.7", "components cover the spectra", check_C4_7, SURJECTIVE),
    Check("P4.8", "subsets with primary core sit inside one fiber", check_P4_8,
          (finite, over_integers, multiplication)),
    Check("P4.9", "T1 collapses the three spectra", check_P4_9, FINITE),
    Check("T4.10", "spectral iff T0 under surjectivity", check_T4_10, SURJECTIVE),
    Check("T4.11", "the five-way separation equivalence", check_T4_11, SURJECTIVE),
    Check("EX1.4Z", "the integer instance separating primary from prime", check_EX1_4Z),
    Check("CE2.1", "strictness of the union inclusion (rank two)", check_CE2_1),
    Check("EX4.2Z6", "the Z6 instance and its reducible spectrum", check_EX4_2Z6),
)

ROSTER: tuple[str, ...] = tuple(c.check_id for c in CATALOG)

SELFTEST = Check("selftest.fail", "deliberately failing self-test", check_selftest_fail)


def run_checks(
    model: Model,
    selection="all",
    instance: str = "model",
    bound: int = DEFAULT_ENUM_BOUND,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the selected checks against one instance.  The selection is
    "all", one check id, or a list of ids; unknown ids raise.  The self-test
    id runs only when named explicitly.  A check raising anything but Skip,
    CheckFailure or an AlgebraError gets status "error" and the run goes on."""
    by_id = {c.check_id: c for c in CATALOG}
    if selection == "all":
        chosen = list(CATALOG)
    else:
        if isinstance(selection, str):
            selection = [selection]
        chosen = []
        for cid in selection:
            if cid == SELFTEST.check_id:
                chosen.append(SELFTEST)
            elif cid in by_id:
                chosen.append(by_id[cid])
            else:
                raise UnknownCheckError(f"unknown check id {cid!r}")
    ctx = Context(model, instance, bound, seed)
    results = []
    for check in chosen:
        try:
            count, detail = check.fn(ctx)
            status, vacuous, ce = "pass", count == 0, None
        except Skip as s:
            status, vacuous, detail, ce = "skip", False, s.reason, None
        except CheckFailure as f:
            status, vacuous, detail, ce = "fail", False, f.message, f.counterexample
        except AlgebraError:
            raise
        except Exception as exc:  # a bug in the check: record it, run the rest
            detail = f"{type(exc).__name__}: {exc}"
            status, vacuous, ce = "error", False, None
        results.append(
            CheckResult(
                check_id=check.check_id,
                status=status,
                instance=instance,
                detail=detail,
                vacuous=vacuous,
                counterexample=ce,
            )
        )
    return results
