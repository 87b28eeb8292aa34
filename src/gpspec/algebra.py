"""Exact graded algebra over Z and Z/n: grading groups, principal ideals,
graded modules given as direct sums of cyclic factors with degrees, and
graded submodules in canonical per-degree Hermite form.

The base ring is always concentrated in the identity degree, so a subset
N = (+) N_g is a graded submodule exactly when every N_g is a subgroup of
M_g; all submodule computations therefore happen degree by degree on
integer lattices.  Each degree block of a submodule is stored as the Hermite
normal form of its preimage lattice in Z^k (factor moduli adjoined as
relation rows), which makes equality of submodules syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce, wraps
from itertools import product as iproduct
from math import gcd, lcm, prod

from . import intlinalg, numtheory

DEFAULT_ENUM_BOUND = 20000


class AlgebraError(Exception):
    """Base class for domain errors."""


class ModuleMismatchError(AlgebraError):
    pass


class InfiniteEnumerationError(AlgebraError):
    pass


class EnumerationBoundError(AlgebraError):
    pass


class InvariantError(AlgebraError):
    """An internal invariant failed: a bug, never a property of the input."""


class UnknownCheckError(AlgebraError):
    """A check id that is not in the catalog."""


class LazyRingError(AlgebraError):
    """Raised when an analysis needs the reduced ring spectrum materialized
    but the annihilator is zero over Z."""


def per_module(fn):
    """Memoise fn(x, *args, **kwargs) in the memo of x's module, x being a
    GradedModule or a submodule of one: the value lives and dies with the
    module, and equal calls share one result, which nobody may mutate."""

    @wraps(fn)
    def memoised(x, *args, **kwargs):
        memo = getattr(x, "module", x).memo
        key = (fn, x, *args, *sorted(kwargs.items())) if kwargs else (fn, x, *args)
        value = memo.get(key, memo)  # the memo itself marks a miss
        if value is memo:
            value = memo[key] = fn(x, *args, **kwargs)
        return value

    return memoised


@dataclass(frozen=True)
class GradingGroup:
    """Finite abelian grading group, a product of cyclic groups in additive
    tuple notation.  The identity is the all-zeros tuple."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if not self.cyclic_orders or any(n < 1 for n in self.cyclic_orders):
            raise AlgebraError(f"cyclic orders must be >= 1: {self.cyclic_orders}")

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    @property
    def size(self) -> int:
        return prod(self.cyclic_orders)

    def reduce(self, g) -> tuple[int, ...]:
        if len(g) != len(self.cyclic_orders):
            raise AlgebraError(f"degree arity {len(g)} != {len(self.cyclic_orders)}")
        return tuple(a % n for a, n in zip(g, self.cyclic_orders))

    def add(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.cyclic_orders))

    def elements(self):
        return [tuple(t) for t in iproduct(*(range(n) for n in self.cyclic_orders))]


@dataclass(frozen=True)
class BaseRing:
    """Z (modulus 0) or Z/n (modulus n >= 2), trivially graded."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 0 or self.modulus == 1:
            raise AlgebraError(f"ring modulus must be 0 or >= 2: {self.modulus}")

    @property
    def is_finite(self) -> bool:
        return self.modulus != 0

    @property
    def is_field(self) -> bool:
        return self.modulus != 0 and numtheory.is_prime(self.modulus)

    def ideal(self, raw: int) -> Ideal:
        """The principal ideal generated by raw, in canonical form: |raw|
        over Z, gcd(raw, n) over Z/n (so the zero ideal is stored as n)."""
        if self.modulus == 0:
            return Ideal(self, abs(raw))
        return Ideal(self, gcd(raw, self.modulus))

    @property
    def zero_ideal(self) -> Ideal:
        return Ideal(self, self.modulus)  # gen 0 for Z, gen n for Z/n

    @property
    def unit_ideal(self) -> Ideal:
        return Ideal(self, 1)

    def elements(self) -> range:
        if self.modulus == 0:
            raise InfiniteEnumerationError("Z has infinitely many elements")
        return range(self.modulus)

    def is_unit(self, r: int) -> bool:
        if self.modulus == 0:
            return r in (1, -1)
        return gcd(r, self.modulus) == 1

    def is_nilpotent(self, r: int) -> bool:
        return self.zero_ideal.radical().contains_element(r)

    def ideals(self) -> list[Ideal]:
        """All ideals, unit ideal first, zero ideal last (finite ring only)."""
        if self.modulus == 0:
            raise InfiniteEnumerationError("Z has infinitely many ideals")
        return [Ideal(self, d) for d in numtheory.divisors(self.modulus)]

    def prime_ideals(self) -> list[Ideal]:
        if self.modulus == 0:
            raise InfiniteEnumerationError("Spec of Z is infinite")
        return [Ideal(self, p) for p in numtheory.prime_factors(self.modulus)]

    def text(self) -> str:
        return "Z" if self.modulus == 0 else f"Z{self.modulus}"


@dataclass(frozen=True)
class Ideal:
    """Principal ideal with a canonical nonnegative generator.

    Over Z the generator is >= 0 and 0 means the zero ideal.  Over Z/n the
    generator is a divisor of n, with n itself denoting the zero ideal.
    """

    ring: BaseRing
    gen: int

    def __post_init__(self):
        n = self.ring.modulus
        if n == 0:
            if self.gen < 0:
                raise AlgebraError("canonical generator must be >= 0")
        elif self.gen < 1 or n % self.gen != 0:
            raise AlgebraError(f"generator {self.gen} is not a divisor of {n}")

    @property
    def is_zero(self) -> bool:
        n = self.ring.modulus
        return self.gen == (0 if n == 0 else n)

    @property
    def is_unit(self) -> bool:
        return self.gen == 1

    def contains_element(self, r: int) -> bool:
        if self.ring.modulus:
            r %= self.ring.modulus
        return numtheory.divides(self.gen, r)

    def contains(self, other: Ideal) -> bool:
        if other.ring != self.ring:
            raise AlgebraError("ideal rings differ")
        return numtheory.divides(self.gen, other.gen)

    def radical(self) -> Ideal:
        """Smallest radical ideal containing this one: all r with a power in
        the ideal."""
        return self.ring.ideal(numtheory.radical_int(self.gen))

    def product(self, other: Ideal) -> Ideal:
        return self.ring.ideal(self.gen * other.gen)

    def intersect(self, other: Ideal) -> Ideal:
        if self.gen == 0 or other.gen == 0:
            return self.ring.zero_ideal
        return self.ring.ideal(lcm(self.gen, other.gen))

    def plus(self, other: Ideal) -> Ideal:
        return self.ring.ideal(gcd(self.gen, other.gen))

    @property
    def is_prime(self) -> bool:
        if self.ring.modulus == 0:
            return self.gen == 0 or numtheory.is_prime(self.gen)
        return numtheory.is_prime(self.gen)

    @property
    def is_maximal(self) -> bool:
        # over Z the zero ideal is prime but not maximal; over Z/n every
        # prime is maximal; one test covers both since 0 is not prime
        return numtheory.is_prime(self.gen)

    def text(self) -> str:
        if self.is_zero:
            return "(0)"
        return f"({self.gen})"

    def __repr__(self):
        return f"Ideal({self.ring.text()}, {self.text()})"


@dataclass(frozen=True)
class QuotientInvariants:
    """Smith invariants of one degree component M_g/N_g."""

    free_rank: int
    torsion_factors: tuple[int, ...]  # d_1 | d_2 | ... | d_t, each >= 2

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def exponent(self) -> int:
        """Largest torsion factor (1 if none); ignores the free part."""
        return self.torsion_factors[-1] if self.torsion_factors else 1

    def size(self) -> int:
        if self.free_rank:
            raise InfiniteEnumerationError("quotient has a free part")
        return prod(self.torsion_factors) if self.torsion_factors else 1


class GradedModule:
    """Direct sum of cyclic factors (order, degree); order 0 encodes Z."""

    def __init__(self, ring: BaseRing, group: GradingGroup, factors):
        factors = tuple((int(o), group.reduce(d)) for o, d in factors)
        for o, _ in factors:
            if o < 0 or o == 1:
                raise AlgebraError(f"factor order must be 0 or >= 2: {o}")
            if ring.modulus and (o == 0 or ring.modulus % o != 0):
                raise AlgebraError(
                    f"factor order {o} does not divide ring modulus {ring.modulus}"
                )
        self.ring = ring
        self.group = group
        self.factors = factors
        self.degrees = tuple(sorted({d for _, d in factors}))
        self.slots = {
            g: tuple(i for i, (_, d) in enumerate(factors) if d == g)
            for g in self.degrees
        }
        self._key = (ring, group, factors)
        self.memo: dict = {}  # values derived from this module, see per_module

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GradedModule({self.text()})"

    def text(self) -> str:
        if not self.factors:
            return "0"
        parts = []
        for o, d in self.factors:
            deg = str(d[0]) if len(d) == 1 else "(" + ",".join(map(str, d)) + ")"
            parts.append(("Z" if o == 0 else f"Z{o}") + "@" + deg)
        return " x ".join(parts)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_finite(self) -> bool:
        return all(o != 0 for o, _ in self.factors)

    @property
    def size(self) -> int:
        if not self.is_finite:
            raise InfiniteEnumerationError(f"module {self.text()} is infinite")
        return prod(o for o, _ in self.factors) if self.factors else 1

    @property
    def exponent(self) -> int:
        """lcm of the finite factor orders (1 for the zero module); the free
        part is ignored."""
        orders = [o for o, _ in self.factors if o]
        return lcm(*orders) if orders else 1

    def base_scale(self) -> int:
        """lcm of all factor orders and the ring modulus; the canonical
        generator of (rM : M) always divides it, so its divisors index the
        distinct basic open sets."""
        vals = [o for o, _ in self.factors if o]
        if self.ring.modulus:
            vals.append(self.ring.modulus)
        return lcm(*vals) if vals else 1

    # -- elements ---------------------------------------------------------

    def reduce_vector(self, vec) -> tuple[int, ...]:
        if len(vec) != len(self.factors):
            raise ModuleMismatchError(
                f"vector arity {len(vec)} != {len(self.factors)} factors"
            )
        return tuple(
            v % o if o else int(v) for v, (o, _) in zip(vec, self.factors)
        )

    @property
    def zero_vector(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(len(self.factors)))

    def homogeneous_components(self, vec) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Degree -> component, omitting zero components.  The decomposition
        is unique and sums back to vec."""
        vec = self.reduce_vector(vec)
        out = {}
        for g in self.degrees:
            comp = tuple(vec[i] if i in self.slots[g] else 0 for i in range(len(vec)))
            if any(comp):
                out[g] = comp
        return out

    def elements(self) -> list[tuple[int, ...]]:
        if not self.is_finite:
            raise InfiniteEnumerationError(f"module {self.text()} is infinite")
        return [
            tuple(t) for t in iproduct(*(range(o) for o, _ in self.factors))
        ] if self.factors else [()]

    def block_of(self, vec, g) -> tuple[int, ...]:
        return tuple(vec[i] for i in self.slots[g])

    def embed_block(self, g, block) -> tuple[int, ...]:
        vec = [0] * len(self.factors)
        for i, v in zip(self.slots[g], block):
            vec[i] = v
        return tuple(vec)

    def moduli_rows(self, g) -> tuple[tuple[int, ...], ...]:
        slots = self.slots[g]
        rows = []
        for pos, i in enumerate(slots):
            o = self.factors[i][0]
            if o:
                rows.append(tuple(o if q == pos else 0 for q in range(len(slots))))
        return tuple(rows)

    # -- submodules -------------------------------------------------------

    def submodule(self, gens) -> GradedSubmodule:
        """Smallest graded submodule containing the given elements.  Mixed
        generators are split into their homogeneous components first."""
        per_degree: dict[tuple[int, ...], list] = {g: [] for g in self.degrees}
        for v in gens:
            for g, comp in self.homogeneous_components(v).items():
                per_degree[g].append(self.block_of(comp, g))
        blocks = tuple(
            intlinalg.hermite_normal_form(
                list(per_degree[g]) + list(self.moduli_rows(g)), len(self.slots[g])
            )
            for g in self.degrees
        )
        return GradedSubmodule(self, blocks)

    @property
    def zero_submodule(self) -> GradedSubmodule:
        return self.submodule([])

    @property
    def full_submodule(self) -> GradedSubmodule:
        return self.submodule([self.basis_vector(i) for i in range(len(self.factors))])


class GradedSubmodule:
    """Graded submodule in canonical form: one HNF lattice per degree of the
    ambient module (moduli included), aligned with module.degrees."""

    __slots__ = ("module", "blocks", "_hash")

    def __init__(self, module: GradedModule, blocks):
        self.module = module
        self.blocks = tuple(blocks)
        self._hash = hash((module, self.blocks))

    def __eq__(self, other):
        return (
            isinstance(other, GradedSubmodule)
            and self.module == other.module
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GradedSubmodule({self.text()} of {self.module.text()})"

    def _require_same_module(self, other: GradedSubmodule):
        if other.module != self.module:
            raise ModuleMismatchError("submodules live in different modules")

    def block(self, g):
        return self.blocks[self.module.degrees.index(g)]

    # -- predicates and lattice operations --------------------------------

    def contains_element(self, vec) -> bool:
        vec = self.module.reduce_vector(vec)
        comps = self.module.homogeneous_components(vec)
        return all(
            intlinalg.lattice_contains(self.block(g), self.module.block_of(c, g))
            for g, c in comps.items()
        )

    def contains(self, other: GradedSubmodule) -> bool:
        self._require_same_module(other)
        for mine, theirs in zip(self.blocks, other.blocks):
            for row in theirs:
                if not intlinalg.lattice_contains(mine, row):
                    return False
        return True

    def plus(self, other: GradedSubmodule) -> GradedSubmodule:
        return self._lattice_op("plus", other)

    def intersect(self, other: GradedSubmodule) -> GradedSubmodule:
        return self._lattice_op("intersect", other)

    @per_module
    def _lattice_op(self, op: str, other: GradedSubmodule) -> GradedSubmodule:
        """N + N2 or N meet N2, degree by degree."""
        self._require_same_module(other)
        M = self.module
        blocks = []
        for a, b, g in zip(self.blocks, other.blocks, M.degrees):
            n = len(M.slots[g])
            if op == "plus":
                blocks.append(intlinalg.hermite_normal_form(a + b, n))
            else:
                blocks.append(intlinalg.lattice_intersection(a, b, n))
        return GradedSubmodule(M, blocks)

    @property
    def is_zero(self) -> bool:
        return self == self.module.zero_submodule

    @property
    def is_full(self) -> bool:
        k = len(self.module.factors)
        count = 0
        for g, block in zip(self.module.degrees, self.blocks):
            n = len(self.module.slots[g])
            if block != tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
            ):
                return False
            count += n
        return count == k

    @property
    def is_proper(self) -> bool:
        return not self.is_full

    # -- invariants --------------------------------------------------------

    @per_module
    def quotient_invariants(self, g) -> QuotientInvariants:
        """Smith invariants of M_g / N_g."""
        free, tor = intlinalg.quotient_invariants_of(self.block(g), len(self.module.slots[g]))
        return QuotientInvariants(free, tuple(tor))

    def quotient_is_finite(self) -> bool:
        return all(self.quotient_invariants(g).is_finite for g in self.module.degrees)

    @per_module
    def colon(self) -> Ideal:
        """(N :_R M), the ideal of ring elements multiplying M into N: the
        lcm of the exponents of the M_g/N_g, or zero if one has a free part."""
        M = self.module
        invs = [self.quotient_invariants(g) for g in M.degrees]
        if all(inv.is_finite for inv in invs):
            return M.ring.ideal(lcm(1, *(inv.exponent for inv in invs)))
        return M.ring.zero_ideal

    def size(self) -> int:
        M = self.module
        total = 1
        for g in M.degrees:
            inv = self.quotient_invariants(g)
            block_size = prod(M.factors[i][0] for i in M.slots[g])
            total *= block_size // inv.size()
        return total

    def element_set(self) -> frozenset:
        """All elements, for small finite modules (test and display use)."""
        return frozenset(v for v in self.module.elements() if self.contains_element(v))

    def scaled(self, ideal_or_int) -> GradedSubmodule:
        """I . N: the submodule generated by c*x for x in N."""
        c = ideal_or_int.gen if isinstance(ideal_or_int, Ideal) else int(ideal_or_int)
        M = self.module
        blocks = tuple(
            intlinalg.hermite_normal_form(
                [tuple(c * a for a in row) for row in block] + list(M.moduli_rows(g)),
                len(M.slots[g]),
            )
            for g, block in zip(M.degrees, self.blocks)
        )
        return GradedSubmodule(M, blocks)

    def sort_key(self):
        return (self.size(), self.blocks)

    def generator_vectors(self) -> list[tuple[int, ...]]:
        """Ambient generator vectors: the HNF rows that are nonzero modulo
        the factor moduli (a pure relation row contributes nothing)."""
        M = self.module
        out = []
        for g, block in zip(M.degrees, self.blocks):
            moduli = intlinalg.hermite_normal_form(
                M.moduli_rows(g), len(M.slots[g])
            )
            for row in block:
                red = M.block_of(M.reduce_vector(M.embed_block(g, row)), g)
                if any(red) and not intlinalg.lattice_contains(moduli, row):
                    out.append(M.embed_block(g, red))
        return out

    def text(self) -> str:
        gens = self.generator_vectors()
        if not gens:
            return "0"
        M = self.module
        if len(M.factors) == 1:
            o = M.factors[0][0]
            parts = []
            for (v,) in gens:
                coef = "" if v == 1 else str(v)
                parts.append(coef + ("Z" if o == 0 else f"Z{o}"))
            return ", ".join(parts)
        return ", ".join("(" + ",".join(map(str, v)) + ")" for v in gens)


def ideal_times_module(I: Ideal, M: GradedModule) -> GradedSubmodule:
    """I . M, the submodule generated by c*e_i over all factors."""
    if I.ring != M.ring:
        raise AlgebraError("ideal ring differs from module ring")
    c = I.gen
    return M.submodule(
        [tuple(c if j == i else 0 for j in range(len(M.factors))) for i in range(len(M.factors))]
    )


def annihilator(M: GradedModule) -> Ideal:
    return M.zero_submodule.colon()


# -- enumeration -----------------------------------------------------------


def _enumerate_block_subgroups(orders: tuple[int, ...]):
    """All subgroups of Z_{o_1} x ... x Z_{o_k} as HNF preimage lattices.

    A preimage lattice contains diag(orders), so its HNF is upper triangular
    with pivot h_i dividing o_i and the entries of column j in [0, h_j).
    Rows are chosen from the last to the first; a partial lattice is kept
    iff it contains o_i e_i, i.e. (o_i / h_i) times the tail of row i lies
    in the span of the rows below it.
    """
    n = len(orders)
    lattices = [()]
    for i in reversed(range(n)):
        grown = []
        for below in lattices:
            ranges = [range(row[j]) for j, row in enumerate(below, i + 1)]
            for h in numtheory.divisors(orders[i]):
                q = orders[i] // h
                for tail in iproduct(*ranges):
                    scaled = (0,) * (i + 1) + tuple(q * a for a in tail)
                    if intlinalg.lattice_contains(below, scaled):
                        grown.append(((0,) * i + (h, *tail),) + below)
        lattices = grown
    return sorted(lattices, key=lambda lat: (-_block_index(lat), lat))


def _block_index(lat) -> int:
    """Index of the lattice in Z^n (product of HNF pivots); the subgroup it
    presents has size prod(orders) // index."""
    idx = 1
    for row in lat:
        idx *= row[intlinalg.row_pivot(row)]
    return idx


def _require_enumerable(M: GradedModule, bound: int) -> None:
    """The guard of the enumerations, kept out of their memoised bodies so
    that every bound shares the one memo entry of M."""
    if not M.is_finite:
        raise InfiniteEnumerationError(f"module {M.text()} is infinite")
    if M.size > bound:
        raise EnumerationBoundError(
            f"|M| = {M.size} exceeds enumeration bound {bound}"
        )


def enumerate_submodules(
    M: GradedModule, bound: int = DEFAULT_ENUM_BOUND
) -> tuple[GradedSubmodule, ...]:
    """All graded submodules of a finite module, in canonical order (size
    ascending, then canonical form).  Valid because the ring is trivially
    graded, so graded submodules are exactly degreewise subgroups."""
    _require_enumerable(M, bound)
    return _submodules(M)


@per_module
def _submodules(M: GradedModule) -> tuple[GradedSubmodule, ...]:
    per_degree = [
        _enumerate_block_subgroups(tuple(M.factors[i][0] for i in M.slots[g]))
        for g in M.degrees
    ]
    subs = [GradedSubmodule(M, blocks) for blocks in iproduct(*per_degree)]
    if not M.degrees:
        subs = [GradedSubmodule(M, ())]
    return tuple(sorted(subs, key=GradedSubmodule.sort_key))


class SubmoduleLattice:
    """The enumerated submodules of a finite module as bitmasks over its
    elements (bit k is the k-th element of M.elements()), so that meets,
    joins and containments of enumerated submodules are bit operations:

    * masks[i]: the elements of subs[i]; index: mask -> position
    * position: submodule -> position
    * up[i]: mask of the positions j with subs[j] containing subs[i]

    Point queries on other submodules go through GradedSubmodule's own
    plus, intersect and contains."""

    def __init__(self, M: GradedModule, subs: tuple[GradedSubmodule, ...]):
        orders = [o for o, _ in M.factors]
        strides = [prod(orders[k + 1:]) for k in range(len(orders))]
        size = prod(orders)
        # below[k][t]: the elements whose k-th coordinate is < t
        below = []
        for o, s in zip(orders, strides):
            repeat = sum(1 << (r * o * s) for r in range(size // (o * s)))
            below.append([repeat * ((1 << (t * s)) - 1) for t in range(o + 1)])

        def translate(mask: int, vec) -> int:
            """The elements of mask plus vec: per coordinate, a digit d < o - c
            moves up to d + c, the others wrap round to d + c - o."""
            for k, c in enumerate(vec):
                if c:
                    lo, s = below[k][orders[k] - c], strides[k]
                    mask = (mask & lo) << c * s | (mask & ~lo) >> (orders[k] - c) * s
            return mask

        masks, gen_bits = [], []
        for N in subs:
            gens = N.generator_vectors()
            mask = 1  # the zero element
            for g in gens:  # the cosets of <mask> + g cycle back to <mask>
                base, coset = mask, translate(mask, g)
                while coset != base:
                    mask |= coset
                    coset = translate(coset, g)
            masks.append(mask)
            gen_bits.append([sum(map(int.__mul__, g, strides)) for g in gens])
        n = len(subs)
        holders = [0] * size  # element -> mask of the positions holding it
        for i, mask in enumerate(masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                holders[low.bit_length() - 1] |= bit
                mask ^= low
        everyone = (1 << n) - 1
        self.subs = subs
        self.masks = tuple(masks)
        self.index = {m: i for i, m in enumerate(masks)}
        self.position = {N: i for i, N in enumerate(subs)}
        self.up = tuple(
            reduce(int.__and__, (holders[b] for b in bits), everyone) for bits in gen_bits
        )

    def meet(self, i: int, j: int) -> int:
        return self.index[self.masks[i] & self.masks[j]]

    def join(self, i: int, j: int) -> int:
        """The first common upper bound: the join lies in every other one, so
        it is the smallest, and subs is in ascending order of size."""
        bounds = self.up[i] & self.up[j]
        return (bounds & -bounds).bit_length() - 1

    def contains(self, i: int, j: int) -> bool:
        """Whether subs[i] contains subs[j]."""
        return bool(self.up[j] >> i & 1)


def lattice(M: GradedModule, bound: int = DEFAULT_ENUM_BOUND) -> SubmoduleLattice:
    """The lattice table of enumerate_submodules(M, bound)."""
    _require_enumerable(M, bound)
    return _lattice(M)


@per_module
def _lattice(M: GradedModule) -> SubmoduleLattice:
    return SubmoduleLattice(M, _submodules(M))


# -- quotients -------------------------------------------------------------


class QuotientMap:
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
        self._kernel = kernel
        factors = []
        self._plan = {}
        for g in source.degrees:
            block = kernel.block(g)
            n = len(source.slots[g])
            inv, V, Vinv = intlinalg.smith_normal_form(block, n)
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

    def kernel(self) -> GradedSubmodule:
        return self._kernel

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
        if N.module != self.source:
            raise ModuleMismatchError("submodule lives in a different module")
        gens = [self.apply(self.source.embed_block(g, row))
                for g, block in zip(self.source.degrees, N.blocks)
                for row in block]
        return self.target.submodule(gens)

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


def quotient_module(M: GradedModule, K: GradedSubmodule):
    """Quotient M/K as a graded module plus its canonical projection; the
    projection is a graded epimorphism with kernel K."""
    proj = QuotientMap(M, K)
    return proj.target, proj
