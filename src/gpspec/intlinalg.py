"""Exact integer matrix routines: Hermite and Smith normal forms.

Matrices are tuples of row tuples over plain Python ints, so everything is
exact at any magnitude.  Row convention throughout: the rows of a matrix
generate a sublattice of Z^n.  The Hermite echelon and the Smith elimination
share one unimodular row step, _cancel, and the Smith elimination makes its
divisibility chain in one pass of (d_i, d_j) -> (gcd, lcm) over the diagonal
pairs i < j, two column operations per repaired pair (Cohen, GTM 138,
section 2.4).  It tracks only the inverse transform V^-1, which a quotient
map lifts its pullbacks with; the quotient invariants behind every colon run
it on the matrix alone.  Element orders are indices of Hermite forms.
A one-column lattice is its gcd: the subgroup of Z generated by a_1, ...,
a_m is gZ, g = gcd(a_1, ..., a_m), so its HNF is (g) (empty for g = 0)
and its quotient is Z/g (Z for g = 0).
A two-column lattice L is read in one pass of extended gcds (Cohen, GTM 138,
section 2.4): its HNF is ((p, q mod c), (0, c)), p generating the first
coordinates of L and c generating L meet (0 x Z), and the Smith invariants
of Z^2/L are d_1 = gcd(p, q, c) and d_2 = pc/d_1, since d_1 is the gcd of
the entries and d_1 d_2 = |det| (Smith, 1861).  hermite_normal_form and
quotient_invariants_of answer one and two columns without the elimination.
The meet of two lattices is read off one Hermite form (Zassenhaus; Cohen,
GTM 138, section 2.4), and membership walks the Hermite rows in pivot order.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, prod

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _cancel(top: list[int], low: list[int], j: int) -> None:
    """Unimodular step on two rows whose entries before column j are zero:
    top[j] becomes a gcd of top[j] and low[j] (top[j] itself when it divides
    low[j]) and low[j] becomes 0."""
    a, b = top[j], low[j]
    if b % a == 0:
        q = b // a
        for k in range(j, len(low)):
            low[k] -= q * top[k]
    else:
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for k in range(j, len(low)):
            u, w = top[k], low[k]
            top[k], low[k] = x * u + y * w, -bg * u + ag * w


class _Echelon:
    """Incremental row echelon over Z with gcd pivoting."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []      # sorted by pivot column
        self.pivots: list[int] = []          # pivot column of each row

    def add(self, vec) -> None:
        v = list(vec)
        n = self.ncols
        j = 0
        while True:
            while j < n and v[j] == 0:
                j += 1
            if j == n:
                return
            pos = bisect_left(self.pivots, j)
            if pos == len(self.pivots) or self.pivots[pos] != j:
                if v[j] < 0:
                    v = [-a for a in v]
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                return
            _cancel(self.rows[pos], v, j)

    def normalize(self) -> None:
        """Make the echelon the canonical HNF: entries above each pivot
        reduced into [0, pivot)."""
        for i in range(len(self.rows)):
            c = self.pivots[i]
            p = self.rows[i][c]
            for h in range(i):
                q = self.rows[h][c] // p
                if q:
                    rh, ri = self.rows[h], self.rows[i]
                    for k in range(c, len(ri)):
                        rh[k] -= q * ri[k]


def hermite_normal_form(rows, ncols: int) -> Matrix:
    """Canonical row HNF of the lattice generated by `rows` inside Z^ncols.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero rows
    are dropped and rows are ordered by pivot column.  Equal lattices yield
    identical output.

    >>> hermite_normal_form([(4, 0), (6, 0)], 2)
    ((2, 0),)
    >>> hermite_normal_form([(2, 7), (0, 4)], 2)
    ((2, 3), (0, 4))
    """
    rows = tuple(rows)
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"row arity {len(r)} != {ncols}")
    return unchecked_hnf(rows, ncols)


def unchecked_hnf(rows, ncols: int) -> Matrix:
    """hermite_normal_form for rows that the caller knows have ncols entries."""
    if ncols == 1:
        g = gcd(*(r[0] for r in rows))
        return ((g,),) if g else ()
    if ncols == 2:
        return _two_column_hnf(rows)
    ech = _Echelon(ncols)
    for r in rows:
        ech.add(r)
    ech.normalize()
    return tuple(tuple(r) for r in ech.rows)


def _two_column_hnf(rows) -> Matrix:
    """HNF of the lattice L generated by the rows (a, b) in Z^2, in one pass.

    The pivot row (p, q) has p = the gcd of the first entries so far, and c
    generates L meet (0 x Z).  Merging (a, b) by g = xp + ya = gcd(p, a)
    is the unimodular step (p, q), (a, b) -> (g, xq + yb), (0, (p/g)b -
    (a/g)q), and the new second row feeds c; a row with a = 0 feeds c its b.
    """
    p = q = c = 0
    for a, b in rows:
        if a:
            g, x, y = xgcd(p, a)
            c = gcd(c, p // g * b - a // g * q)
            p, q = g, x * q + y * b
        else:
            c = gcd(c, b)
    if not p:
        return ((0, c),) if c else ()
    return ((p, q % c), (0, c)) if c else ((p, q),)


def reduce_mod_lattice(basis: Matrix, vec) -> Row:
    """Canonical representative of vec modulo the HNF lattice `basis`.

    The residual is zero exactly when vec lies in the lattice; two vectors
    have equal residuals exactly when they lie in the same coset.
    """
    v = list(vec)
    for row in basis:  # in pivot order, so each pivot entry is final when read
        j = row_pivot(row)
        q = v[j] // row[j]
        if q:
            for k in range(j, len(v)):
                v[k] -= q * row[k]
    return tuple(v)


def row_pivot(row: Row) -> int:
    for j, a in enumerate(row):
        if a:
            return j
    raise ValueError("zero row has no pivot")


def lattice_contains(basis: Matrix, vec) -> bool:
    return not any(reduce_mod_lattice(basis, vec))


def lattice_intersection(basis1: Matrix, basis2: Matrix, ncols: int) -> Matrix:
    """HNF basis of the intersection of two row lattices A, B in Z^ncols.

    The rows (a | a) for a in A and (b | 0) for b in B generate
    {(a + b | a)}; its vectors with left half zero are exactly (0 | c) for c
    in A meet B, and the Hermite rows with pivot past ncols generate them,
    so their right halves are already the canonical HNF of the meet.
    """
    if not basis1 or not basis2:
        return ()
    zeros = (0,) * ncols
    H = hermite_normal_form([a + a for a in basis1] + [b + zeros for b in basis2], 2 * ncols)
    return tuple(r[ncols:] for r in H if not any(r[:ncols]))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows, ncols: int, transforms: bool = True):
    """Smith reduction of the lattice generated by `rows` inside Z^ncols.

    Returns (invariants, Vinv) where invariants is the list d_1 | d_2 | ...
    of positive diagonal entries (1s kept, zeros dropped), and Vinv is an
    ncols x ncols unimodular matrix whose inverse V maps the row lattice of
    A onto the diagonal lattice under x -> x . V; so the rows of
    diag(d) . Vinv generate the row lattice of A.  The quotient
    Z^ncols / rowspace is then (+) Z/d_j (+) Z^(ncols - len(invariants)).
    Each pivot clears its column with the row step _cancel and its row with
    column operations, which Vinv records as the inverse row operations; one
    pass of (d_i, d_j) -> (gcd, lcm) over the diagonal pairs i < j then
    makes the chain.  With transforms=False the same elimination runs on A
    alone and Vinv is None.
    """
    A = [list(r) for r in rows if any(r)]
    m, n = len(A), ncols
    Vinv = _identity(n) if transforms else None

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in A:
            r[dst] += q * r[src]
        if transforms:
            rs, rd = Vinv[src], Vinv[dst]
            for k in range(n):
                rs[k] -= q * rd[k]

    def col_swap(c1: int, c2: int) -> None:
        for r in A:
            r[c1], r[c2] = r[c2], r[c1]
        if transforms:
            Vinv[c1], Vinv[c2] = Vinv[c2], Vinv[c1]

    def col_combine(c1: int, c2: int, t: int) -> None:
        # columns (c1, c2) <- (x*c1 + y*c2, -b/g*c1 + a/g*c2) clearing A[t][c2]
        a, b = A[t][c1], A[t][c2]
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for r in A:
            u, w = r[c1], r[c2]
            r[c1], r[c2] = x * u + y * w, -bg * u + ag * w
        if transforms:
            r1, r2 = Vinv[c1], Vinv[c2]
            Vinv[c1] = [ag * u + bg * w for u, w in zip(r1, r2)]
            Vinv[c2] = [-y * u + x * w for u, w in zip(r1, r2)]

    t = 0
    while t < min(m, n):
        # find a nonzero entry in the trailing block
        found = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != t:
            A[t], A[i] = A[i], A[t]
        if j != t:
            col_swap(t, j)
        while True:
            # clear column t below the pivot with row steps, then row t to
            # the right with column operations, which leave row t clear
            for i in range(t + 1, m):
                if A[i][t]:
                    _cancel(A[t], A[i], t)
            for j in range(t + 1, n):
                if A[t][j]:
                    if A[t][j] % A[t][t] == 0:
                        col_addmul(j, t, -(A[t][j] // A[t][t]))
                    else:
                        col_combine(t, j, t)
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                break
        t += 1

    # row i of A is now +-d_i e_i.  With g = x d_i + y d_j, column i += column j
    # and then column j -= (y d_j / g) column i turn diag(d_i, d_j) into rows
    # equivalent to diag(g, d_i d_j / g): only Vinv needs them
    invariants = [abs(A[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            a, b = invariants[i], invariants[j]
            if b % a:
                g, x, y = xgcd(a, b)
                invariants[i], invariants[j] = g, a // g * b
                if transforms:
                    col_addmul(i, j, 1)
                    col_addmul(j, i, -(y * b // g))
    if not all(d > 0 for d in invariants):
        from .algebra import InvariantError  # algebra imports this module

        raise InvariantError(f"Smith invariants {invariants} are not all positive")
    return invariants, None if Vinv is None else tuple(tuple(r) for r in Vinv)


def quotient_invariants_of(rows, ncols: int) -> tuple[int, list[int]]:
    """(free_rank, torsion factors > 1) of Z^ncols / rowspace(rows)."""
    if ncols == 1:  # Z/g, or Z for g = 0
        g = gcd(*(r[0] for r in rows))
        return (0, [g] if g > 1 else []) if g else (1, [])
    if ncols == 2:
        H = _two_column_hnf(rows)
        if len(H) == 2:  # d_1 = gcd(p, q, c), d_1 d_2 = pc
            (p, q), (_, c) = H
            d1 = gcd(p, q, c)
            return 0, [d for d in (d1, p * c // d1) if d > 1]
        if H:  # Z + Z/g, g the gcd of the one row
            g = gcd(*H[0])
            return 1, [g] if g > 1 else []
        return 2, []
    inv, _ = smith_normal_form(rows, ncols, transforms=False)
    return ncols - len(inv), [d for d in inv if d > 1]


def element_order_in_quotient(rows, ncols: int, vec) -> int:
    """Additive order of the image of vec in Z^ncols / L, L = rowspace(rows),
    0 for infinite order.

    A finite order is the index [L + Zv : L].  Two lattices of one rank share
    their Hermite pivot columns, and each has covolume the product of its
    pivots there, so the index is the ratio of the two pivot products; v
    raises the rank exactly when its order is infinite.
    """
    H = hermite_normal_form(rows, ncols)
    H2 = hermite_normal_form(H + (tuple(vec),), ncols)
    if len(H2) > len(H):
        return 0
    return prod(r[row_pivot(r)] for r in H) // prod(r[row_pivot(r)] for r in H2)


def matmul_vec(vec, M: Matrix):
    """Row vector times matrix."""
    n = len(M[0]) if M else 0
    return tuple(sum(vec[i] * M[i][j] for i in range(len(vec))) for j in range(n))
