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

from functools import cached_property, reduce, wraps
from itertools import product as iproduct
from math import gcd, lcm, prod
from operator import mod

from . import intlinalg, numtheory

DEFAULT_ENUM_BOUND = 20000
SUBMODULE_BOUND = 20000  # most graded submodules an enumeration builds


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


def per_module(fn):
    """Memoise fn(x, *args) in the memo of x's module, x being a
    GradedModule, a GradedSubmodule or a module space; equal calls share one
    result, which nobody may mutate.  fn takes its arguments by position and
    has no defaults, so that one call has one key; a public function with
    defaults passes them all on to a memoised body.

    Keys never hold the module: a module's entry is keyed (fn, *args) and a submodule
    N's (fn, N.blocks, *args), so equal submodules built apart share one entry and no
    lookup hashes a module or a submodule (their hashes wait for first use).  Values
    (ideals, block tuples, N.quotients() for all degrees at once) are plain data, so
    nothing in the memo leads back to the module and reference counting frees it, memo
    and all, once its last user lets go.  Results describing the whole module (its
    enumeration and lattice table, its spaces with their varieties and star tables,
    keyed by the space, and its natural maps) hold the module; the collector frees them.
    The quotient and permutation targets of M, one module per factor tuple (see
    _presentation), hold nothing of M, and M itself is never a value."""

    @wraps(fn)
    def memoised(x, *args):
        if x.__class__ is GradedSubmodule:
            memo, key = x.module.memo, (fn, x.blocks, *args)
        elif x.__class__ is GradedModule:
            memo, key = x.memo, (fn, *args)
        else:
            memo, key = x.module.memo, (fn, x, *args)
        value = memo.get(key, memo)  # the memo itself marks a miss
        if value is memo:
            value = memo[key] = fn(x, *args)
        return value

    return memoised


class Value:
    """Base of the small value classes, whose fields are their `__slots__`:
    equal by class and fields, hashed as the tuple of the fields, printed as
    Name(field=value, ...), immutable unless a class restores object's
    __setattr__ and __delattr__.  __init__ takes all fields by position or
    keyword; classes built or compared often override these methods alike."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class GradingGroup(Value):
    """Finite abelian grading group, a product of cyclic groups in additive
    tuple notation.  The identity is the all-zeros tuple."""

    __slots__ = ("cyclic_orders",)

    def __init__(self, cyclic_orders: tuple[int, ...]):
        if not cyclic_orders or any(n < 1 for n in cyclic_orders):
            raise AlgebraError(f"cyclic orders must be >= 1: {cyclic_orders}")
        object.__setattr__(self, "cyclic_orders", cyclic_orders)

    def reduce(self, g) -> tuple[int, ...]:
        if len(g) != len(self.cyclic_orders):
            raise AlgebraError(f"degree arity {len(g)} != {len(self.cyclic_orders)}")
        return tuple(a % n for a, n in zip(g, self.cyclic_orders))

    def elements(self):
        return [tuple(t) for t in iproduct(*(range(n) for n in self.cyclic_orders))]


class BaseRing(Value):
    """Z (modulus 0) or Z/n (modulus n >= 2), trivially graded."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if modulus < 0 or modulus == 1:
            raise AlgebraError(f"ring modulus must be 0 or >= 2: {modulus}")
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other):
        if other.__class__ is BaseRing:
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus,))

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


class Ideal(Value):
    """Principal ideal with a canonical nonnegative generator.

    Over Z the generator is >= 0 and 0 means the zero ideal.  Over Z/n the
    generator is a divisor of n, with n itself denoting the zero ideal.
    """

    __slots__ = ("ring", "gen")

    def __init__(self, ring: BaseRing, gen: int):
        n = ring.modulus
        if n == 0:
            if gen < 0:
                raise AlgebraError("canonical generator must be >= 0")
        elif gen < 1 or n % gen != 0:
            raise AlgebraError(f"generator {gen} is not a divisor of {n}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gen", gen)

    def __eq__(self, other):
        if other.__class__ is Ideal:
            return self.gen == other.gen and self.ring == other.ring
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.gen))

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


class QuotientInvariants(Value):
    """Smith invariants of one degree component M_g/N_g: the free rank and
    the torsion factors d_1 | d_2 | ... | d_t, each >= 2."""

    __slots__ = ("free_rank", "torsion_factors")

    def __init__(self, free_rank: int, torsion_factors: tuple[int, ...]):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_factors", torsion_factors)

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
        n, cyclic = ring.modulus, group.cyclic_orders
        reduced, slots, bad = [], {}, None
        for i, (o, d) in enumerate(factors):
            o = int(o)
            if len(d) != len(cyclic):  # GradingGroup.reduce, inline
                raise AlgebraError(f"degree arity {len(d)} != {len(cyclic)}")
            d = tuple(map(mod, d, cyclic))
            if bad is None and (o < 0 or o == 1 or n and (o == 0 or n % o)):
                bad = o  # raised once every degree has passed its arity check
            reduced.append((o, d))
            slots.setdefault(d, []).append(i)
        if bad is not None:
            if bad < 0 or bad == 1:
                raise AlgebraError(f"factor order must be 0 or >= 2: {bad}")
            raise AlgebraError(f"factor order {bad} does not divide ring modulus {n}")
        self.ring, self.group = ring, group
        self.factors = factors = tuple(reduced)
        self.degrees = tuple(sorted(slots))
        # per degree, its factors and the HNF of their relation rows o e_i, o > 0
        self.slots, self._moduli = {}, {}
        for g in self.degrees:
            here = self.slots[g] = tuple(slots[g])
            rows, last = [], len(here) - 1
            for pos, i in enumerate(here):
                if factors[i][0]:
                    rows.append((0,) * pos + (factors[i][0],) + (0,) * (last - pos))
            self._moduli[g] = tuple(rows)
        self._key = (ring, group, factors)
        self._hash = None  # computed on first use
        self.memo: dict = {}  # values derived from this module, see per_module

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._key == other._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

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
        return prod(o for o, _ in self.factors)

    @property
    def exponent(self) -> int:
        """lcm of the finite factor orders (1 for the zero module); the free
        part is ignored."""
        orders = [o for o, _ in self.factors if o]
        return lcm(*orders) if orders else 1

    # -- elements ---------------------------------------------------------

    def _require_arity(self, vec) -> None:
        if len(vec) != len(self.factors):
            raise ModuleMismatchError(
                f"vector arity {len(vec)} != {len(self.factors)} factors"
            )

    def reduce_vector(self, vec) -> tuple[int, ...]:
        self._require_arity(vec)
        return tuple([v % o if o else int(v) for v, (o, _) in zip(vec, self.factors)])

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
        self.size  # refuses an infinite module
        return list(iproduct(*(range(o) for o, _ in self.factors)))

    def block_of(self, vec, g) -> tuple[int, ...]:
        return tuple(vec[i] for i in self.slots[g])

    def embed_block(self, g, block) -> tuple[int, ...]:
        vec = [0] * len(self.factors)
        for i, v in zip(self.slots[g], block):
            vec[i] = v
        return tuple(vec)

    def moduli_rows(self, g) -> tuple[tuple[int, ...], ...]:
        return self._moduli[g]

    # -- submodules -------------------------------------------------------

    def submodule(self, gens) -> GradedSubmodule:
        """Smallest graded submodule containing the given elements.  Mixed
        generators are split into their homogeneous components first."""
        vecs = list(gens)
        for v in vecs:
            self._require_arity(v)
        blocks = []
        for g in self.degrees:
            slots = self.slots[g]
            rows = [[int(v[i]) for i in slots] for v in vecs]  # the moduli reduce them
            rows += self._moduli[g]
            blocks.append(intlinalg.unchecked_hnf(rows, len(slots)))
        return GradedSubmodule(self, blocks)

    @property
    def zero_submodule(self) -> GradedSubmodule:
        return GradedSubmodule(self, _times_module(self, 0))

    @property
    def full_submodule(self) -> GradedSubmodule:
        return GradedSubmodule(self, _times_module(self, 1))


class GradedSubmodule:
    """Graded submodule in canonical form: one HNF lattice per degree of the
    ambient module (moduli included), aligned with module.degrees."""

    __slots__ = ("module", "blocks", "_hash")

    def __init__(self, module: GradedModule, blocks):
        self.module = module
        self.blocks = tuple(blocks)
        self._hash = None  # computed on first use

    def __eq__(self, other):
        return (
            isinstance(other, GradedSubmodule)
            and self.module == other.module
            and self.blocks == other.blocks
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.module, self.blocks))
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
        comps = self.module.homogeneous_components(vec)  # reduces vec
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
        """N + N2, degree by degree."""
        self._require_same_module(other)
        M = self.module
        return GradedSubmodule(M, (
            intlinalg.hermite_normal_form(a + b, len(M.slots[g]))
            for a, b, g in zip(self.blocks, other.blocks, M.degrees)))

    def intersect(self, other: GradedSubmodule) -> GradedSubmodule:
        """N meet N2, degree by degree."""
        self._require_same_module(other)
        M = self.module
        return GradedSubmodule(M, (
            intlinalg.lattice_intersection(a, b, len(M.slots[g]))
            for a, b, g in zip(self.blocks, other.blocks, M.degrees)))

    @property
    def is_zero(self) -> bool:
        return self == self.module.zero_submodule

    @property
    def is_full(self) -> bool:
        """N = M exactly when 1 lies in (N : M): 1 . M lies in N forces N = M,
        and (M : M) is the unit ideal.  The colon is memoised, so the
        predicates that ask for it after checking properness pay once."""
        return self.colon().is_unit

    @property
    def is_proper(self) -> bool:
        return not self.is_full

    # -- invariants --------------------------------------------------------

    @per_module
    def quotients(self) -> tuple[QuotientInvariants, ...]:
        """Smith invariants of every M_g / N_g, aligned with module.degrees."""
        M, out = self.module, []
        for g, block in zip(M.degrees, self.blocks):
            free, tor = intlinalg.quotient_invariants_of(block, len(M.slots[g]))
            out.append(QuotientInvariants(free, tuple(tor)))
        return tuple(out)

    def quotient_invariants(self, g) -> QuotientInvariants:
        """Smith invariants of M_g / N_g."""
        return self.quotients()[self.module.degrees.index(g)]

    def quotient_is_finite(self) -> bool:
        return all(inv.is_finite for inv in self.quotients())

    def colon_radical(self) -> Ideal:
        """rad(N : M), memoised with M by the colon, so that each module
        factors each distinct colon generator once."""
        return _radical(self.module, self.colon())

    @per_module
    def colon(self) -> Ideal:
        """(N :_R M), the ideal of ring elements multiplying M into N: the
        lcm of the exponents of the M_g/N_g, or zero if one has a free part."""
        ring, invs = self.module.ring, self.quotients()
        if all(inv.is_finite for inv in invs):
            return ring.ideal(lcm(1, *(inv.exponent for inv in invs)))
        return ring.zero_ideal

    def size(self) -> int:
        M = self.module
        total = 1
        for g, inv in zip(M.degrees, self.quotients()):
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

    def generator_vectors(self) -> list[tuple[int, ...]]:
        """Ambient generator vectors: the HNF rows reduced by their block's orders,
        less those reducing to zero, which are the rows in the relation lattice."""
        M = self.module
        out = []
        for g, block in zip(M.degrees, self.blocks):
            orders = [M.factors[i][0] for i in M.slots[g]]
            for row in block:
                red = [v % o if o else v for v, o in zip(row, orders)]
                if any(red):
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


@per_module
def _radical(M: GradedModule, I: Ideal) -> Ideal:
    return I.radical()


def ideal_times_module(I: Ideal, M: GradedModule) -> GradedSubmodule:
    """I . M, the submodule generated by c*e_i over all factors."""
    if I.ring != M.ring:
        raise AlgebraError("ideal ring differs from module ring")
    return GradedSubmodule(M, _times_module(M, I.gen))


@per_module
def _times_module(M: GradedModule, c: int) -> tuple:
    """The blocks of c . M, memoised with M."""
    return _diagonal_blocks(M, (c,) * len(M.factors))


def _diagonal_blocks(M: GradedModule, coeffs) -> tuple:
    """The blocks of the submodule generated by the c_k e_k, coeffs being
    the c_k in factor order.  Per degree, the lattice of the c_k e_k and the
    moduli rows o_k e_k is the diagonal one with entries gcd(c_k, o_k), and
    that diagonal with its zero rows dropped is its HNF."""
    blocks = []
    for g in M.degrees:
        slots = M.slots[g]
        entries = [gcd(coeffs[i], M.factors[i][0]) for i in slots]
        blocks.append(tuple(
            tuple(d if q == pos else 0 for q in range(len(slots)))
            for pos, d in enumerate(entries) if d
        ))
    return tuple(blocks)


def annihilator(M: GradedModule) -> Ideal:
    return M.zero_submodule.colon()


@per_module
def colon_ideals(M: GradedModule) -> tuple[Ideal, ...]:
    """The colons (N : M) of the submodules of a finite module: the ideals
    containing Ann(M), since I = (IM : M) for each of them."""
    return tuple(M.ring.ideal(d) for d in numtheory.divisors(annihilator(M).gen))


# -- enumeration -----------------------------------------------------------


def _enumerate_block_subgroups(orders: tuple[int, ...]):
    """All subgroups of Z_{o_1} x ... x Z_{o_k} as HNF preimage lattices.

    A preimage lattice contains diag(orders), so its HNF is upper triangular
    with pivot h_i dividing o_i and the entries of column j in [0, h_j).
    Rows are chosen from the last to the first; a partial lattice is kept
    iff it contains o_i e_i, i.e. (o_i / h_i) times the tail of row i lies
    in the span of the rows below it.  Each partial lattice extends to a
    whole one (pivots 1 above it), so more than SUBMODULE_BOUND partial
    lattices refuse the block.
    """
    n = len(orders)
    lattices = [()]
    for i in reversed(range(n)):
        grown = []
        pivots = numtheory.divisors(orders[i])
        for below in lattices:
            ranges = [range(row[j]) for j, row in enumerate(below, i + 1)]
            for h in pivots:
                q = orders[i] // h
                for tail in iproduct(*ranges):
                    scaled = (0,) * (i + 1) + tuple(q * a for a in tail)
                    if intlinalg.lattice_contains(below, scaled):
                        grown.append(((0,) * i + (h, *tail),) + below)
        _require_submodule_bound(len(grown))
        lattices = grown
    return lattices


def _require_submodule_bound(count: int) -> None:
    if count > SUBMODULE_BOUND:
        raise EnumerationBoundError(f"graded submodules exceed submodule bound {SUBMODULE_BOUND}")


def is_enumerable(M: GradedModule, bound: int) -> bool:
    """Whether M is finite with |M| <= bound: the modules the enumerations accept."""
    return M.is_finite and M.size <= bound


def _require_enumerable(M: GradedModule, bound: int) -> None:
    """The guard of the enumerations, kept out of their memoised bodies so
    that every bound shares M's one memo entry; M.size refuses an infinite M."""
    if not is_enumerable(M, bound):
        raise EnumerationBoundError(f"|M| = {M.size} exceeds enumeration bound {bound}")


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
    _require_submodule_bound(prod(map(len, per_degree)))
    subs = (GradedSubmodule(M, blocks) for blocks in iproduct(*per_degree))
    return tuple(sorted(subs, key=lambda N: (N.size(), N.blocks)))


class SubmoduleLattice:
    """The enumerated submodules of a finite module as bitmasks over its
    elements (bit k is the k-th element of M.elements()), so that meets,
    joins and containments of enumerated submodules are bit operations:

    * masks[i]: the elements of subs[i]; index: mask -> position
    * position: submodule -> position
    * up[i]: mask of the positions j with subs[j] containing subs[i], the
      one containment table, built on first use (star tables read only the
      masks)

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
        self.subs = subs
        self.masks = tuple(masks)
        self.index = {m: i for i, m in enumerate(masks)}
        self.position = {N: i for i, N in enumerate(subs)}
        self._size, self._gen_bits = size, gen_bits

    @cached_property
    def up(self) -> tuple[int, ...]:
        holders = [0] * self._size  # element -> mask of the positions holding it
        for i, mask in enumerate(self.masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                holders[low.bit_length() - 1] |= bit
                mask ^= low
        everyone = (1 << len(self.subs)) - 1
        return tuple(
            reduce(int.__and__, (holders[b] for b in bits), everyone) for bits in self._gen_bits
        )

    def meet(self, i: int, j: int) -> int:
        return self.index[self.masks[i] & self.masks[j]]

    def join(self, i: int, j: int) -> int:
        """The first common upper bound: the join lies in every other one, so
        it is the smallest, and subs is in ascending order of size."""
        bounds = self.up[i] & self.up[j]
        return (bounds & -bounds).bit_length() - 1


def lattice(M: GradedModule, bound: int = DEFAULT_ENUM_BOUND) -> SubmoduleLattice:
    """The lattice table of enumerate_submodules(M, bound)."""
    _require_enumerable(M, bound)
    return _lattice(M)


@per_module
def _lattice(M: GradedModule) -> SubmoduleLattice:
    return SubmoduleLattice(M, _submodules(M))


# -- quotients -------------------------------------------------------------


def _presentation(M: GradedModule, factors: tuple) -> GradedModule:
    """The module presented by factors over M's ring and group: M itself when
    they are M's, otherwise one module per factor tuple, interned in M's memo,
    so that every map onto one presentation reads one memo of its spectra."""
    return M if factors == M.factors else _interned(M, factors)


@per_module
def _interned(M: GradedModule, factors: tuple) -> GradedModule:
    return GradedModule(M.ring, M.group, factors)


class QuotientMap:
    """Canonical degree-preserving projection M -> M/K.

    Per degree g the Smith transform V of K's lattice identifies
    M_g = Z^k / (moduli) with new cyclic coordinates y = xV, in which K is
    diagonal.  Columns with invariant 1 lie in K and vanish; the kept columns,
    those with invariant d > 1 and those past the rank, become the Z_d and Z
    factors of degree g.  The map is used only through pullbacks: the
    preimage of N2 is K + lift(N2), N2's rows placed on the kept columns and
    moved back by V^-1, so the elimination tracks only V^-1.  Kernels with
    one quotient presentation share one target module (see _presentation).
    """

    def __init__(self, source: GradedModule, kernel: GradedSubmodule):
        if kernel.module != source:
            raise ModuleMismatchError("kernel lives in a different module")
        self.source = source
        self._kernel = kernel
        factors, self._plan = [], {}
        for g, block in zip(source.degrees, kernel.blocks):
            n = len(source.slots[g])
            inv, Vinv = intlinalg.smith_normal_form(block, n)
            orders = inv + [0] * (n - len(inv))  # 0: a free column past the rank
            keep = tuple(j for j, d in enumerate(orders) if d != 1)
            factors += [(orders[j], g) for j in keep]
            self._plan[g] = (Vinv, keep)
        self.target = _presentation(source, tuple(factors))

    def preimage_submodule(self, N2: GradedSubmodule) -> GradedSubmodule:
        if N2.module != self.target:
            raise ModuleMismatchError("submodule lives in a different module")
        blocks = []
        for (g, (Vinv, keep)), K_block in zip(self._plan.items(), self._kernel.blocks):
            rows, n = list(K_block), len(Vinv)
            if keep:  # a degree of the target
                for t_row in N2.block(g):
                    y = [0] * n
                    for j, v in zip(keep, t_row):
                        y[j] = v
                    rows.append(intlinalg.matmul_vec(y, Vinv))
            blocks.append(intlinalg.hermite_normal_form(rows, n))
        return GradedSubmodule(self.source, blocks)


def quotient_module(M: GradedModule, K: GradedSubmodule):
    """Quotient M/K as a graded module plus its canonical projection; the
    projection is a graded epimorphism with kernel K."""
    proj = QuotientMap(M, K)
    return proj.target, proj
