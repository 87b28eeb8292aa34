"""Brute-force oracles for the test suite.

Everything here works by exhaustive enumeration over finite structures and is
deliberately independent of the lattice/Smith machinery it cross-checks, except
`divisor_order_condition`, `transport_radical` and `maximal_oracle`: the
enumeration routes that the library's closed forms for primeness, the radical
and maximality replaced, kept as references for them; `multiplication_oracle`
and `cancellation_oracle`, the enumerated definitions that the gcd tests for
multiplication and cancellation replaced; `colon_identity_membership`, the
primary-spectrum membership test that re-checked the colon identity the
radical's strategies already imply; `echelon_hnf`,
`component_blocks` and `identity_blocks_full`, the general elimination and the
construction routes that one-column gcds, the one-pass submodule and the colon
test for N = M replaced; `module_fields`, the module constructor that reduced
each degree through `GradingGroup.reduce` and hashed its key at once, and
`embedded_generator_vectors`, the generator route that reduced each Hermite
row inside M and tested it against the relation rows; `left_kernel`,
`kernel_intersection` and `pivot_dict_reduce`, the transform-tail
elimination, the meet through it and the pivot-dictionary membership walk
that the one Hermite form of the meet and the pivot-order walk replaced;
`hnf_star_mask` and `hnf_radical_core`, the per-point HNF containments and
intersections that the star table and the radical core's mask AND replaced;
`FreshQuotientMap`, the projection that built a fresh target module per
kernel and lifted a preimage from unit rows and moduli rows, which the
shared presentations and the preimage K + lift(N2) replaced;
`forward_map`, the element map of a projection or a permutation, which
the library's maps dropped when every answer came to pull back, with
`smith_transforms`, the Smith transform V that it reads, which the
elimination dropped for the same reason (the exact inverse of V^-1);
`element_order_by_coordinates`, an element's order in Z^n/L as the lcm of
the denominators of its coordinates over L's Hermite basis, in place of
the index of two Hermite forms that the library reads; and
`image_submodule`, the image of a submodule under one, which L2.14 took
per primary point until it read the images off the pullback table;
`scaled_basic_open`, `scaled_transport_pairs` and
`zero_colon_annihilator`, the basic opens, the induced maps' closed-set
pairs and Ann(M) through I.M or the colon of 0, which reading the spaces'
tables at (gcd(r, L)) and the exponent replaced;
`residue_P3_2`, P3.2 walking every residue and residue pair of Z/n, which
the walk over one scalar per ideal replaced, and `P3_2_routes`, P3.2's
outcome by both; `one_per_colon`, the submodule walk that the map
analyses' loop over the colon ideals replaced, and `per_call_L2_14`, the
transport check that pulled back every point per call and pushed every
primary point forward, testing membership of both, which the shared
pullback table replaced; `map_flags_oracle`,
the injectivity, surjectivity and continuity of a finite map by their
definitions, in place of the mask routine both map analyses share;
and `coset_key`, a Hermite-form coset label that only the order-multiset
oracle uses.  `oracle_corpus` lists the
finite modules the spectra oracles run on.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from fractions import Fraction
from math import gcd, lcm

import pytest
from sympy import Matrix as SymMatrix

from gpspec import harness, intlinalg, maps, numtheory, spectra, topology
from gpspec.algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    Ideal,
    ModuleMismatchError,
    colon_ideals,
    enumerate_submodules,
    ideal_times_module,
    quotient_module,
)
from gpspec.harness import _fail
from gpspec.maps import PermutationMap


def oracle_corpus() -> list[GradedModule]:
    Z, Z2G = BaseRing(0), GradingGroup((2,))
    return [
        *(GradedModule(BaseRing(n), Z2G, [(n, (0,))]) for n in (6, 8, 12, 9)),
        GradedModule(Z, Z2G, [(2, (0,)), (4, (1,))]),
        GradedModule(Z, Z2G, [(4, (0,)), (4, (0,))]),
        GradedModule(Z, Z2G, [(2, (0,)), (9, (1,))]),
        GradedModule(BaseRing(12), Z2G, [(4, (0,)), (6, (1,))]),
        GradedModule(Z, GradingGroup((2, 2)), [(2, (1, 0)), (8, (0, 1))]),
    ]


def echelon_hnf(rows, ncols: int) -> intlinalg.Matrix:
    """The HNF by the general incremental elimination, at any column count."""
    ech = intlinalg._Echelon(ncols)
    for r in rows:
        ech.add(r)
    ech.normalize()
    return tuple(tuple(r) for r in ech.rows)


def left_kernel(rows, ncols: int) -> intlinalg.Matrix:
    """HNF basis of { z : z . A = 0 } for the matrix A given by `rows`: the
    incremental gcd elimination of each row with an identity tail appended,
    keeping the tails whose leading part reduces to zero."""
    m = len(rows)
    echelon, pivots, kernel = [], [], []
    for i, r in enumerate(rows):
        v = list(r) + [int(k == i) for k in range(m)]
        j = 0
        while True:
            while j < ncols and v[j] == 0:
                j += 1
            if j == ncols:
                kernel.append(v[ncols:])
                break
            if j not in pivots:
                pivots.append(j)
                echelon.append(v)
                break
            row = echelon[pivots.index(j)]
            g, x, y = intlinalg.xgcd(row[j], v[j])
            a, b = row[j] // g, v[j] // g
            for k in range(j, len(v)):
                row[k], v[k] = x * row[k] + y * v[k], -b * row[k] + a * v[k]
    return intlinalg.hermite_normal_form(kernel, m)


def kernel_intersection(basis1, basis2, ncols: int) -> intlinalg.Matrix:
    """HNF basis of the meet of two row lattices: the left kernel of the
    stacked bases, recombined through the first basis."""
    if not basis1 or not basis2:
        return ()
    gens = [
        [sum(c * row[k] for c, row in zip(z, basis1)) for k in range(ncols)]
        for z in left_kernel(list(basis1) + list(basis2), ncols)
    ]
    return intlinalg.hermite_normal_form(gens, ncols)


def pivot_dict_reduce(basis, vec) -> tuple[int, ...]:
    """Residual of vec modulo the HNF lattice `basis`, scanning every column
    and looking its pivot row up in a dictionary."""
    v = list(vec)
    pivots = {intlinalg.row_pivot(r): i for i, r in enumerate(basis)}
    for j in range(len(v)):
        if j in pivots:
            row = basis[pivots[j]]
            q = v[j] // row[j]
            for k in range(j, len(v)):
                v[k] -= q * row[k]
    return tuple(v)


def component_blocks(M: GradedModule, gens) -> tuple:
    """Blocks of the submodule generated by gens: each generator split into
    its homogeneous components, each degree's component blocks and relation
    rows o e_i put in Hermite form by the general elimination."""
    per_degree = {g: [] for g in M.degrees}
    for v in gens:
        for g, comp in M.homogeneous_components(v).items():
            per_degree[g].append(M.block_of(comp, g))
    blocks = []
    for g in M.degrees:
        orders = [M.factors[i][0] for i in M.slots[g]]
        n = len(orders)
        moduli = [tuple(o if j == i else 0 for j in range(n)) for i, o in enumerate(orders) if o]
        assert M.moduli_rows(g) == tuple(moduli)
        blocks.append(echelon_hnf(per_degree[g] + moduli, n))
    return tuple(blocks)


def module_fields(ring: BaseRing, group: GradingGroup, factors) -> tuple:
    """The fields GradedModule(ring, group, factors) had when its constructor
    reduced each degree by GradingGroup.reduce and hashed its key at once:
    (factors, [(degree, slots)] in order, {degree: relation rows}, hash).
    Raises what that constructor raised, every arity error before any order
    error."""
    n = ring.modulus
    reduced, slots, bad = [], {}, None
    for i, (o, d) in enumerate(factors):
        o, d = int(o), group.reduce(d)
        if bad is None and (o < 0 or o == 1 or n and (o == 0 or n % o)):
            bad = o
        reduced.append((o, d))
        slots.setdefault(d, []).append(i)
    if bad is not None:
        if bad < 0 or bad == 1:
            raise AlgebraError(f"factor order must be 0 or >= 2: {bad}")
        raise AlgebraError(f"factor order {bad} does not divide ring modulus {n}")
    factors = tuple(reduced)
    slots = {g: tuple(slots[g]) for g in sorted(slots)}
    moduli = {}
    for g, here in slots.items():
        rows = []
        for pos, i in enumerate(here):
            if factors[i][0]:
                rows.append((0,) * pos + (factors[i][0],) + (0,) * (len(here) - pos - 1))
        moduli[g] = tuple(rows)
    return factors, list(slots.items()), moduli, hash((ring, group, factors))


def embedded_generator_vectors(N: GradedSubmodule) -> list[tuple[int, ...]]:
    """GradedSubmodule.generator_vectors by embedding each Hermite row in M,
    reducing it there and projecting it back, and dropping the rows that the
    relation rows generate."""
    M = N.module
    out = []
    for g, block in zip(M.degrees, N.blocks):
        moduli = M.moduli_rows(g)
        for row in block:
            red = M.block_of(M.reduce_vector(M.embed_block(g, row)), g)
            if any(red) and not intlinalg.lattice_contains(moduli, row):
                out.append(M.embed_block(g, red))
    return out


def identity_blocks_full(N: GradedSubmodule) -> bool:
    """N = M read off the canonical form: every block is the identity and
    the blocks cover every factor."""
    M = N.module
    count = 0
    for g, block in zip(M.degrees, N.blocks):
        n = len(M.slots[g])
        if block != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
            return False
        count += n
    return count == len(M.factors)


def vec_add(M: GradedModule, a, b):
    return M.reduce_vector(tuple(x + y for x, y in zip(a, b)))


def vec_neg(M: GradedModule, a):
    return M.reduce_vector(tuple(-x for x in a))


def vec_scale(M: GradedModule, r, a):
    return M.reduce_vector(tuple(r * x for x in a))


def is_homogeneous(M: GradedModule, vec) -> bool:
    return len(M.homogeneous_components(vec)) <= 1


def zero_vector(M: GradedModule) -> tuple[int, ...]:
    return (0,) * len(M.factors)


def degree_of(M: GradedModule, vec):
    """Degree of a nonzero homogeneous element, else None (zero is
    homogeneous of every degree and also returns None)."""
    comps = M.homogeneous_components(vec)
    return next(iter(comps)) if len(comps) == 1 else None


def homogeneous_elements(M: GradedModule) -> list:
    """All homogeneous elements of a finite module, zero included once."""
    out = [zero_vector(M)]
    for g in M.degrees:
        for block in product(*(range(M.factors[i][0]) for i in M.slots[g])):
            if any(block):
                out.append(M.embed_block(g, block))
    return out


def coset_key(N: GradedSubmodule, vec) -> tuple:
    """Canonical representative of vec + N; equal keys iff equal cosets."""
    M = N.module
    vec = M.reduce_vector(vec)
    return tuple(
        intlinalg.reduce_mod_lattice(N.block(g), M.block_of(vec, g)) for g in M.degrees
    )


def span_closure(M: GradedModule, gens) -> frozenset:
    """Element set of the smallest graded submodule containing gens, computed
    by additive closure of all homogeneous components (finite modules only).
    """
    seeds = {zero_vector(M)}
    for v in gens:
        for comp in M.homogeneous_components(v).values():
            seeds.add(M.reduce_vector(comp))
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for z in (vec_add(M, x, y), vec_neg(M, x)):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return frozenset(closed)


def subgroup_closure(M: GradedModule, gens) -> frozenset:
    """Additive closure without homogeneous splitting (plain subgroups)."""
    closed = {zero_vector(M)} | {M.reduce_vector(v) for v in gens}
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for z in (vec_add(M, x, y), vec_neg(M, x)):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return frozenset(closed)


def all_subgroups(M: GradedModule) -> set[frozenset]:
    """Every subgroup of a finite module's additive group, as element sets."""
    elements = M.elements()
    zero = frozenset({zero_vector(M)})
    seen = {zero}
    queue = [zero]
    while queue:
        H = queue.pop()
        for x in elements:
            if x in H:
                continue
            bigger = subgroup_closure(M, list(H) + [x])
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return seen


def bfs_block_subgroups(orders: tuple[int, ...]) -> list:
    """All subgroups of Z_{o_1} x ... x Z_{o_k} as HNF preimage lattices, by
    closure BFS with canonical-form dedup: from each subgroup found, adjoin
    every element outside it.  One HNF per element per subgroup, so small
    sizes only.  Sorted by the HNF."""
    n = len(orders)
    moduli = [tuple(o if j == i else 0 for j in range(n)) for i, o in enumerate(orders)]
    zero = intlinalg.hermite_normal_form(moduli, n)
    elements = list(product(*(range(o) for o in orders)))
    seen = {zero}
    queue = [zero]
    while queue:
        lat = queue.pop(0)
        for x in elements:
            if intlinalg.lattice_contains(lat, x):
                continue
            bigger = intlinalg.hermite_normal_form(list(lat) + [x], n)
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return sorted(seen)


def is_graded_subset(M: GradedModule, elems: frozenset) -> bool:
    """Whether an additive subgroup decomposes as the sum of its degree parts."""
    return all(
        all(M.reduce_vector(c) in elems for c in M.homogeneous_components(x).values())
        for x in elems
    )


def scalar_window(M: GradedModule) -> range:
    """Ring scalars that suffice for exhaustive (r, m) checks.

    For Z/n this is the whole ring.  For ring Z and finite M with exponent L,
    every colon-type generator divides L, and both r*m and membership of r in
    any ideal (c) with c | L depend only on r mod L, so 0..L-1 is exact.
    """
    if M.ring.modulus:
        return range(M.ring.modulus)
    return range(M.exponent)


def colon_oracle(N: GradedSubmodule) -> set[int]:
    """{r in the scalar window : r*M <= N}, checked over every element."""
    M = N.module
    elems = M.elements()
    return {
        r
        for r in scalar_window(M)
        if all(N.contains_element(vec_scale(M, r, m)) for m in elems)
    }


def radical_oracle(I: Ideal) -> set[int]:
    """{r in Z/n : some power r^k, k <= n, lies in I}."""
    n = I.ring.modulus
    out = set()
    for r in range(n):
        p = 1
        for _ in range(n):
            p = (p * r) % n
            if I.contains_element(p):
                out.add(r)
                break
    return out


def prime_oracle(P: GradedSubmodule) -> tuple[bool, tuple | None]:
    """Direct double loop over (r, homogeneous m) for the prime condition."""
    M = P.module
    colon = P.colon()
    for r in scalar_window(M):
        for m in homogeneous_elements(M):
            if P.contains_element(vec_scale(M, r, m)):
                if not P.contains_element(m) and not colon.contains_element(r):
                    return False, (r, m)
    return True, None


def primary_oracle(Q: GradedSubmodule) -> tuple[bool, tuple | None]:
    """Direct double loop for the primary condition."""
    M = Q.module
    target = Q.colon().radical()
    for r in scalar_window(M):
        for m in homogeneous_elements(M):
            if Q.contains_element(vec_scale(M, r, m)):
                if not Q.contains_element(m) and not target.contains_element(r):
                    return False, (r, m)
    return True, None


def maximal_oracle(N: GradedSubmodule) -> bool:
    """No proper graded submodule other than N contains N, over every
    enumerated submodule."""
    if not N.is_proper:
        return False
    for L in enumerate_submodules(N.module):
        if L.is_proper and L != N and L.contains(N):
            return False
    return True


def multiplication_oracle(M: GradedModule) -> bool:
    """Whether every enumerated submodule N equals (N : M) . M."""
    return all(ideal_times_module(N.colon(), M) == N for N in enumerate_submodules(M))


def cancellation_oracle(M: GradedModule) -> bool:
    """Whether distinct ideals I, J always give distinct I . M, over every
    pair of ideals of Z/n.  Over Z, for finite M of exponent L, over the
    pairs of (0), (1), ..., (L): every d . M is gcd(d, L) . M, so these
    already meet every product that any ideal gives."""
    ring = M.ring
    if ring.is_finite:
        ideals = ring.ideals()
    else:
        ideals = [ring.ideal(d) for d in range(M.exponent + 1)]
    products = [ideal_times_module(I, M) for I in ideals]
    return len(set(products)) == len(products)


def colon_identity_membership(Q: GradedSubmodule, bound: int) -> bool:
    """Q is graded primary and the colon of its graded radical equals the
    radical of its colon, both sides computed independently."""
    if not spectra.is_graded_primary(Q):
        return False
    rad = spectra.graded_radical(Q, bound).require()
    return rad.colon() == Q.colon_radical()


class FreshQuotientMap:
    """Canonical degree-preserving projection M -> M/K.

    Per degree g the Smith transform V of K's lattice identifies
    M_g = Z^k / (moduli) with new cyclic coordinates; columns with invariant 1
    vanish, columns with invariant d > 1 become Z_d factors and columns past
    the rank become Z factors, all of degree g.
    """

    def __init__(self, source: GradedModule, kernel: GradedSubmodule):
        if kernel.module != source:
            raise ModuleMismatchError("kernel lives in a different module")
        self.source = source
        factors = []
        self._plan = {}
        for g in source.degrees:
            block = kernel.block(g)
            n = len(source.slots[g])
            inv, V, Vinv = smith_transforms(block, n)
            keep = []  # (column, order) with order 0 for free columns
            for j, d in enumerate(inv):
                if d > 1:
                    keep.append((j, d))
            for j in range(len(inv), n):
                keep.append((j, 0))
            base = len(factors)
            for _, d in keep:
                factors.append((d, g))
            self._plan[g] = (V, Vinv, tuple(keep), base, len(inv))
        self.target = GradedModule(source.ring, source.group, factors)

    def apply(self, vec) -> tuple[int, ...]:
        src = self.source
        vec = src.reduce_vector(vec)
        out = [0] * len(self.target.factors)
        for g in src.degrees:
            V, _, keep, base, _ = self._plan[g]
            y = intlinalg.matmul_vec(src.block_of(vec, g), V)
            for pos, (j, d) in enumerate(keep):
                out[base + pos] = y[j] % d if d else y[j]
        return self.target.reduce_vector(out)

    def image_submodule(self, N: GradedSubmodule) -> GradedSubmodule:
        return image_submodule(self, N)

    def preimage_submodule(self, N2: GradedSubmodule) -> GradedSubmodule:
        if N2.module != self.target:
            raise ModuleMismatchError("submodule lives in a different module")
        src = self.source
        blocks = []
        for g in src.degrees:
            V, Vinv, keep, base, rank = self._plan[g]
            n = len(src.slots[g])
            rows = []
            if keep:
                tgt_block = N2.block(g)
                # target block coordinates correspond, in order, to `keep`
                for t_row in tgt_block:
                    row = [0] * n
                    for pos, (j, _) in enumerate(keep):
                        row[j] = t_row[pos]
                    rows.append(row)
            # columns with invariant 1 collapse, so every unit direction there
            # is in the preimage; dropped Smith columns j < rank not in keep
            kept_cols = {j for j, _ in keep}
            for j in range(rank):
                if j not in kept_cols:
                    row = [0] * n
                    row[j] = 1
                    rows.append(row)
            lifted = [intlinalg.matmul_vec(r, Vinv) for r in rows]
            blocks.append(
                intlinalg.hermite_normal_form(
                    lifted + list(src.moduli_rows(g)), n
                )
            )
        return GradedSubmodule(src, tuple(blocks))


def smith_transforms(rows, ncols: int):
    """(invariants, V, V^-1) of the Smith elimination, V the exact inverse
    of the V^-1 that `intlinalg.smith_normal_form` tracks."""
    inv, Vinv = intlinalg.smith_normal_form(rows, ncols)
    V = SymMatrix(Vinv).inv()
    return inv, tuple(tuple(int(V[i, j]) for j in range(ncols)) for i in range(ncols)), Vinv


def element_order_by_coordinates(rows, ncols: int, vec) -> int:
    """The order of vec in Z^ncols / L by its coordinates x over the
    Hermite basis H of L: vec = xH is solved on the pivot columns in pivot
    order, and the order is the lcm of the denominators of x, 0 when xH
    misses vec (vec leaves L's rational span)."""
    H = intlinalg.hermite_normal_form(rows, ncols)
    x = []
    for row in H:
        c = intlinalg.row_pivot(row)
        x.append((vec[c] - sum(xk * H[k][c] for k, xk in enumerate(x))) / Fraction(row[c]))
    if any(sum(xk * H[k][j] for k, xk in enumerate(x)) != vec[j] for j in range(ncols)):
        return 0
    return lcm(*(xk.denominator for xk in x))


def forward_map(f):
    """The element map vec -> f(vec) of a quotient projection or a
    permutation of factors, which the library's maps drop since every answer
    pulls back.  A projection's kernel is the pullback of 0, and its target
    coordinates are those of the kernel's Smith transform V, y = xV, on the
    columns whose invariant is not 1."""
    if isinstance(f, FreshQuotientMap):
        return f.apply
    src = f.source
    if isinstance(f, PermutationMap):
        return lambda vec: tuple(src.reduce_vector(vec)[i] for i in f.assignment)
    plan = []
    for g, block in zip(src.degrees, f.preimage_submodule(f.target.zero_submodule).blocks):
        n = len(src.slots[g])
        inv, V, _ = smith_transforms(block, n)
        orders = inv + [0] * (n - len(inv))  # 0: a free column past the rank
        plan.append((g, V, [j for j, d in enumerate(orders) if d != 1]))

    def apply(vec) -> tuple[int, ...]:
        vec = src.reduce_vector(vec)
        out = []  # the target's factors follow the source's degrees
        for g, V, keep in plan:
            y = intlinalg.matmul_vec(src.block_of(vec, g), V)
            out += [y[j] for j in keep]
        return f.target.reduce_vector(out)
    return apply


def image_submodule(f, N: GradedSubmodule) -> GradedSubmodule:
    """The image of N under a graded homomorphism f (a quotient projection or
    a permutation of factors): the submodule of f's target generated by f
    applied to N's generators."""
    if N.module != f.source:
        raise ModuleMismatchError("submodule lives in a different module")
    apply = forward_map(f)
    gens = [apply(f.source.embed_block(g, row))
            for g, block in zip(f.source.degrees, N.blocks)
            for row in block]
    return f.target.submodule(gens)


def one_per_colon(M: GradedModule, bound: int = DEFAULT_ENUM_BOUND):
    """The first enumerated submodule of M for each distinct colon (N : M).
    A non-star variety, and every ideal derived from (N : M), depends on N
    only through it, so a loop over these covers every closed set."""
    first: dict[Ideal, GradedSubmodule] = {}
    for N in enumerate_submodules(M, bound):
        first.setdefault(N.colon(), N)
    return first.values()


def scaled_basic_open(space, r: int) -> int:
    """The basic open S_r of a module space through the submodule r.M and
    the variety at its colon, read off Smith invariants, in place of the
    table read at (gcd(r, L))."""
    M = space.module
    return topology.variety(space, ideal_times_module(M.ring.ideal(r), M)) ^ space.full_mask


def scaled_transport_pairs(f, sp, sp2) -> list[tuple[int, int]]:
    """The closed-set pairs of the primary spectra of an epimorphism's
    target (sp2) and source (sp): for each colon ideal I of the source,
    the variety of rad(IM : M).M' and that of I.M, each built as a
    submodule, in place of the target's table read at (gcd(I, L'))."""
    M, M2 = f.source, f.target
    pairs = []
    for I in colon_ideals(M):
        IM = ideal_times_module(I, M)
        pairs.append((topology.variety(sp2, ideal_times_module(IM.colon_radical(), M2)),
                      topology.variety(sp, IM)))
    return pairs


def zero_colon_annihilator(M: GradedModule) -> Ideal:
    """Ann(M) as the colon (0 : M) read off the Smith invariants of the
    zero submodule, in place of the exponent."""
    return M.zero_submodule.colon()


def residue_P3_2(ctx):
    """Check P3.2 residue by residue: over Z/n on every residue and every
    pair of residues, over Z on the library's scalars, with one basic open
    per generator of (r).  It reads the library through module attributes,
    so a fault seeded in one reaches both routes."""
    sp, ring, rr, rs = ctx.pspec, ctx.module.ring, ctx.reduced, ctx.ring_space
    mapping = ctx.rho.mapping
    scalars = range(ring.modulus) if ring.is_finite else ctx.scalar_reps
    opens = {}

    def open_of(r):
        gen = ring.ideal(r).gen
        if gen not in opens:
            opens[gen] = topology.basic_open(sp, r)
        return opens[gen]

    count = 0
    for r in scalars:
        s_r = open_of(r)
        d_r = topology.ring_basic_open(rs, rr.reduce_ideal(ring.ideal(r).plus(rr.ann)).gen)
        if maps.preimage_mask(mapping, d_r) != s_r:
            _fail("preimage of the reduced basic open differs", r)
        img_mask = maps.image_mask(mapping, s_r)
        if img_mask & ~d_r:
            _fail("image escapes the reduced basic open", r)
        if ctx.rho.surjective.is_true and img_mask != d_r:
            _fail("image equality fails despite surjectivity", r)
        if ring.is_nilpotent(r) and s_r != 0:
            _fail("nilpotent scalar gave a nonempty basic open", r)
        if ring.is_unit(r) and s_r != sp.full_mask:
            _fail("unit scalar did not give the full space", r)
        count += 4
    for r in scalars:
        for t in scalars:
            if open_of(r) & open_of(t) != open_of(r * t):
                _fail("multiplicativity of basic opens fails", (r, t))
            count += 1
    return count, f"{count} instantiations"


def P3_2_routes(model, instance: str) -> tuple[tuple, tuple]:
    """(status, detail, counterexample) of P3.2 on a model, by the catalog's
    route and by `residue_P3_2` in its place, each from an empty memo."""
    def outcome():
        model.module.memo.clear()
        (result,) = harness.run_checks(model, ["P3.2"], instance)
        return result.status, result.detail, result.counterexample

    ran = []

    def residues(ctx):
        ran.append(ctx)
        return residue_P3_2(ctx)

    catalog = tuple(harness.Check(c.check_id, c.title, residues, c.requires)
                    if c.check_id == "P3.2" else c for c in harness.CATALOG)
    want = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "CATALOG", catalog)
        got = outcome()
    assert ran or got[0] == "skip", instance  # the swap was reached
    return want, got


def per_call_L2_14(ctx):
    """Check L2.14 with a preimage taken per call for every primary point of
    every projection's target, every primary point above the kernel pushed
    forward by `image_submodule`, and membership in the primary spectrum
    decided by `in_primary_spectrum` for the preimages and the images."""
    count = 0
    lat = ctx.lattice
    primary_points = [(Q, lat.position[Q]) for Q in ctx.pspec.points]
    for k, K in enumerate(ctx.subs):
        target, proj = quotient_module(ctx.module, K)
        if target.factors:
            for Q2 in spectra.spectrum_points(target, "primary", ctx.bound):
                pre = proj.preimage_submodule(Q2)
                if not spectra.in_primary_spectrum(pre, ctx.bound):
                    _fail("preimage left the primary spectrum", (K, Q2))
                count += 1
        for Q, q in primary_points:
            if lat.up[k] >> q & 1:
                img = image_submodule(proj, Q)
                if not spectra.in_primary_spectrum(img, ctx.bound):
                    _fail("image left the primary spectrum", (K, Q))
                count += 1
    return count, f"{count} transports"


def map_flags_oracle(X, Y, mapping, closed_pairs):
    """Injectivity, surjectivity and continuity of the map X -> Y sending
    point i to Y.points[mapping[i]], by the definitions: the first pair of
    points with one image by a double loop, the target points nothing maps
    to by a loop, and each preimage compared with its closed set point by
    point."""
    Trilean, n = spectra.Trilean, len(mapping)
    injective = Trilean.yes()
    for i in range(n):
        clash = [k for k in range(i) if mapping[k] == mapping[i]]
        if clash:
            injective = Trilean.no((X.points[clash[0]], X.points[i]))
            break
    missing = []
    for j, point in enumerate(Y.points):
        if all(mapping[i] != j for i in range(n)):
            missing.append(point)
    surjective = Trilean.no(missing[0]) if missing else Trilean.yes()
    continuous = True
    for A, B in closed_pairs:
        closed = {Y.points[j] for j in range(len(Y.points)) if B >> j & 1}
        preimage = {X.points[i] for i in range(n) if Y.points[mapping[i]] in closed}
        if preimage != {X.points[i] for i in range(n) if A >> i & 1}:
            continuous = False
    return injective, surjective, continuous


def hnf_star_mask(space, N: GradedSubmodule) -> int:
    """The star variety of N on a module space by the definition: one HNF
    containment of N per point's graded radical."""
    return sum(1 << i for i, R in enumerate(space.radicals) if R.contains(N))


def hnf_radical_core(space, Y: int) -> GradedSubmodule:
    """The radical core of a point set, a mask of a module space, as a fold
    of HNF intersections of the members' graded radicals, starting from M."""
    radicals = [space.radicals[i] for i in space.indices(Y)]
    return reduce(GradedSubmodule.intersect, radicals, space.module.full_submodule)


def divisor_order_condition(N: GradedSubmodule, target: Ideal) -> bool:
    """Whether (o) <= target for every divisor o > 1 of every degree's
    quotient exponent e_g: the achievable annihilators (o) of homogeneous
    classes m + N, one divisor at a time.  N is graded prime iff this holds
    for target (N : M), graded primary iff it holds for the radical."""
    M = N.module
    for g in M.degrees:
        for o in numtheory.divisors(N.quotient_invariants(g).exponent):
            if o > 1 and not target.contains(M.ring.ideal(o)):
                return False
    return True


def transport_radical(N: GradedSubmodule) -> GradedSubmodule:
    """Graded radical of N with M/N finite, through the correspondence
    theorem: enumerate the submodules of M/N, keep the graded primes (by the
    divisor test), and intersect their preimages in M (M itself when no
    prime lies over N)."""
    M = N.module
    quot, proj = quotient_module(M, N)
    preimages = [
        proj.preimage_submodule(P)
        for P in enumerate_submodules(quot)
        if P.is_proper and divisor_order_condition(P, P.colon())
    ]
    return reduce(GradedSubmodule.intersect, preimages, M.full_submodule)


def quotient_order_multiset(M: GradedModule, N: GradedSubmodule, g) -> dict[int, int]:
    """Multiset of element orders of M_g/N_g by explicit coset arithmetic."""
    slots = M.slots[g]
    block_elems = [
        M.embed_block(g, b)
        for b in product(*(range(M.factors[i][0]) for i in slots))
    ]
    cosets = {}
    for x in block_elems:
        cosets.setdefault(coset_key(N, x), x)
    counts: dict[int, int] = {}
    for rep in cosets.values():
        o = 1
        acc = rep
        while not N.contains_element(acc):
            o += 1
            acc = vec_add(M, acc, rep)
        counts[o] = counts.get(o, 0) + 1
    return counts


def invariant_order_multiset(free_rank: int, torsion) -> dict[int, int]:
    """Element-order multiset predicted by Smith invariants (finite case)."""
    assert free_rank == 0
    counts: dict[int, int] = {}
    for combo in product(*(range(d) for d in torsion)):
        o = 1
        for d, x in zip(torsion, combo):
            od = d // gcd(d, x)
            o = o * od // gcd(o, od)
        counts[o] = counts.get(o, 0) + 1
    if not torsion:
        counts[1] = 1
    return counts
