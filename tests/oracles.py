"""Brute-force oracles for the test suite.

Everything here works by exhaustive enumeration over finite structures and is
deliberately independent of the lattice/Smith machinery it cross-checks, except
`divisor_order_condition` and `transport_radical`: the enumeration routes that
the library's closed forms for primeness and the radical replaced, kept as
references for them; and `coset_key`, a Hermite-form coset label that only
the order-multiset oracle uses.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd, prod

from gpspec import intlinalg, numtheory
from gpspec.algebra import (
    GradedModule,
    GradedSubmodule,
    Ideal,
    enumerate_submodules,
    quotient_module,
)


def vec_add(M: GradedModule, a, b):
    return M.reduce_vector(tuple(x + y for x, y in zip(a, b)))


def vec_neg(M: GradedModule, a):
    return M.reduce_vector(tuple(-x for x in a))


def vec_scale(M: GradedModule, r, a):
    return M.reduce_vector(tuple(r * x for x in a))


def is_homogeneous(M: GradedModule, vec) -> bool:
    return len(M.homogeneous_components(vec)) <= 1


def degree_of(M: GradedModule, vec):
    """Degree of a nonzero homogeneous element, else None (zero is
    homogeneous of every degree and also returns None)."""
    comps = M.homogeneous_components(vec)
    return next(iter(comps)) if len(comps) == 1 else None


def homogeneous_elements(M: GradedModule) -> list:
    """All homogeneous elements of a finite module, zero included once."""
    out = [M.zero_vector]
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
    seeds = {M.zero_vector}
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
    closed = {M.zero_vector} | {M.reduce_vector(v) for v in gens}
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
    zero = frozenset({M.zero_vector})
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
    sizes only.  Sorted like the library's enumeration: index in Z^k (the
    product of the pivots, each on the diagonal) descending, then the HNF."""
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
    return sorted(seen, key=lambda lat: (-prod(row[i] for i, row in enumerate(lat)), lat))


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
