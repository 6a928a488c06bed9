"""Exact integer/rational linear algebra: SNF, HNF, kernels, splittings.

Everything here is arbitrary precision (int / Fraction); no floats. There is
one elimination, `_reduce`: a fraction-free (Bareiss) Gauss-Jordan on integer
rows. `solve_general`, `solve_unique`, `coordinates`, `rank`, `null_vector`,
`inverse`, `unimodular_inverse` and `det` are views of it.

A matrix is a tuple of int rows (`Matrix`); functions accept any sequence of
int rows. `over_lcm` is the one scaler of a rational vector to int numerators
over the lcm of its denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class LinAlgError(ValueError):
    pass


Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]


def det(rows) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LinAlgError("determinant of a non-square matrix")
    pivots, d, sign = _reduce([list(r) for r in rows], n)
    return sign * d if len(pivots) == n else 0


@dataclass(frozen=True)
class SNFDecomposition:
    """U @ M @ V == S, U and V unimodular, diag(S) a divisibility chain."""

    u: Matrix
    s: Matrix
    v: Matrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i][i] for i in range(min(len(self.s), len(self.v))))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def kernel(self) -> list[Vec]:
        """Canonical (HNF) Z-basis of {x : M x = 0}; automatically saturated."""
        rank, n = self.rank(), len(self.v)
        return hermite_row_basis(list(zip(*self.v))[rank:]) if rank < n else []


def smith_normal_form(m) -> SNFDecomposition:
    """Smith normal form with deterministic smallest-pivot selection.

    Pivot rule: nonzero entry of minimal |value| in the active submatrix,
    ties by row then column index. Diagonal entries are normalized >= 0.
    """
    a = [list(r) for r in m]
    nr, nc = len(a), len(a[0])
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        if q:
            a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        if q:
            for row in a:
                row[dst] -= q * row[src]
            for row in v:
                row[dst] -= q * row[src]

    for k in range(min(nr, nc)):
        while True:
            pivot = None
            for i in range(k, nr):
                for j in range(k, nc):
                    val = a[i][j]
                    if val != 0 and (pivot is None or (abs(val), i, j) < pivot):
                        pivot = (abs(val), i, j)
            if pivot is None:
                break
            _, pi, pj = pivot
            swap_rows(k, pi)
            swap_cols(k, pj)
            dirty = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    add_row(i, k, a[i][k] // a[k][k])
                    if a[i][k]:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, nc):
                if a[k][j]:
                    add_col(j, k, a[k][j] // a[k][k])
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            # Pivot divides the rest of the submatrix, or we absorb a witness row.
            p = a[k][k]
            offender = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(k, offender, -1)
        if k < min(nr, nc) and a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]

    return SNFDecomposition(*(tuple(map(tuple, x)) for x in (u, a, v)))


def unimodular_inverse(m) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    inv = inverse(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise LinAlgError("matrix is not unimodular")
    return tuple(tuple(x.numerator for x in row) for row in inv)


def hermite_row_basis(vectors) -> list[Vec]:
    """Canonical row-HNF basis of the lattice spanned by the given vectors.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Zero input yields an empty list.
    """
    rows = [list(int(x) for x in v) for v in vectors if any(v)]
    if not rows:
        return []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LinAlgError("ragged vector list")
    basis: list[list[int]] = []
    col = 0
    pend = rows
    while col < width and pend:
        nxt = []
        lead = None
        for r in pend:
            if r[col] == 0:
                nxt.append(r)
                continue
            if lead is None:
                lead = r
                continue
            # gcd-combine lead and r at this column
            g, x, y = _exgcd(lead[col], r[col])
            la, ra = lead[col] // g, r[col] // g
            new_lead = [x * p + y * q for p, q in zip(lead, r)]
            new_r = [-ra * p + la * q for p, q in zip(lead, r)]
            lead, rem = new_lead, new_r
            if any(rem):
                nxt.append(rem)
        if lead is not None:
            if lead[col] < 0:
                lead = [-x for x in lead]
            basis.append(lead)
        pend = nxt
        col += 1
    # Reduce entries above each pivot, left to right: a later pivot row is
    # zero in every earlier pivot column, so no reduction undoes another.
    pivots = [(next(j for j, x in enumerate(b) if x), i) for i, b in enumerate(basis)]
    for pcol, pi in pivots:
        p = basis[pi][pcol]
        for qi in range(pi):
            q = basis[qi][pcol] // p
            if q:
                basis[qi] = [x - q * y for x, y in zip(basis[qi], basis[pi])]
    return [tuple(b) for b in basis]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b), g > 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def kernel_basis(m) -> list[Vec]:
    """Canonical (HNF) Z-basis of {x : M x = 0}; automatically saturated."""
    return smith_normal_form(m).kernel()


def reduce_mod_lattice(vector, hnf_basis) -> Vec:
    """Canonical coset representative of `vector` modulo the HNF-spanned lattice."""
    v = list(int(x) for x in vector)
    for b in hnf_basis:
        pcol = next(j for j, x in enumerate(b) if x)
        q = v[pcol] // b[pcol]
        if q:
            v = [x - q * y for x, y in zip(v, b)]
    return tuple(v)


def splitting_maps(a, snf: SNFDecomposition, ker) -> tuple[Matrix | None, Matrix]:
    """Section data (s, g) for a surjective lattice map a: Z^n -> Z^d, from
    the Smith normal form snf of a and the HNF basis ker of its kernel.

    With t the kernel basis (columns), the four identities hold exactly:
    s@t = id, a@g = id, a@t = 0, s@g = 0. Deterministic: g is the SNF
    right-inverse reduced to the canonical coset representative mod ker(a).
    For a trivial kernel (a invertible) s is None and g = a^{-1}.
    """
    d, n = len(a), len(a[0])
    diag = snf.diagonal()
    if snf.rank() < d or any(x != 1 for x in diag):
        raise LinAlgError(
            "map is not surjective onto Z^%d; invariant factors %s" % (d, list(diag))
        )
    # g0 = V [I;0] U  is a right inverse: a @ g0 = id.
    g0 = _product([row[:d] for row in snf.v], snf.u)
    if not ker:
        _check_splitting(a, None, g0, None)
        return None, g0
    g = tuple(zip(*(reduce_mod_lattice(col, ker) for col in zip(*g0))))
    t = tuple(zip(*ker))
    s = unimodular_inverse([tr + gr for tr, gr in zip(t, g)])[:n - d]
    _check_splitting(a, s, g, t)
    return s, g


def _product(x, y) -> Matrix:
    cols = list(zip(*y))
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in x)


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _check_splitting(a, s, g, t):
    if _product(a, g) != _identity(len(a)):
        raise LinAlgError("splitting check failed: a@g != id")
    if t is not None:
        if any(any(row) for row in _product(a, t)):
            raise LinAlgError("splitting check failed: a@t != 0")
        if _product(s, t) != _identity(len(s)):
            raise LinAlgError("splitting check failed: s@t != id")
        if any(any(row) for row in _product(s, g)):
            raise LinAlgError("splitting check failed: s@g != 0")


def normalized_simplex_volume(vectors) -> int:
    """|det| of d integer vectors in Z^d (the d!-normalized simplex volume)."""
    return abs(det(vectors))


# ---------------------------------------------------------------------------
# The one elimination, and the exact rational solves that are its views.

QVec = tuple[Fraction, ...]


def qvec(v) -> QVec:
    return tuple(Fraction(x) for x in v)


def over_lcm(values) -> tuple[list[int], int]:
    """(nums, den): ints or Fractions as int numerators over den, the lcm of
    their denominators (1 for no values). Scaling a row so leaves its span
    unchanged."""
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _reduce(rows: list[list[int]], width: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan on integer rows, in place.

    Pivots on the first nonzero entry of each of the first `width` columns in
    turn, and every division is exact (each entry is a minor of the input).
    Returns (pivot columns, d, sign): afterwards the first len(pivots) rows
    are d times the reduced echelon form, the others vanish in the first
    `width` columns, d is the last pivot (1 if none) and sign is the parity of
    the row swaps, so a square nonsingular matrix has determinant sign * d.
    """
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and (f or p != d):
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(col)
    return pivots, d, sign


def solve_unique(a_rows, b) -> QVec:
    """Unique rational solution of A x = b; raises if singular/inconsistent."""
    sol = solve_general(a_rows, b)
    if sol is None:
        raise LinAlgError("inconsistent linear system")
    part, null = sol
    if null:
        raise LinAlgError("linear system is underdetermined")
    return part


def solve_general(a_rows, b):
    """Particular solution + nullspace basis of A x = b over Q, or None.

    Read off the reduced echelon form of [A | b]. It is unique, and its pivots
    are the leftmost independent columns, so the result is deterministic.
    """
    rows = [over_lcm(list(r) + [x])[0] for r, x in zip(a_rows, b)]
    ncols = len(rows[0]) - 1 if rows else 0
    pivots, d, _ = _reduce(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    part = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        part[col] = Fraction(row[ncols], d)
    null = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = Fraction(-row[fc], d)
        null.append(tuple(vec))
    return tuple(part), null


def rank(rows) -> int:
    """Rank over Q of the given rows (0 for no rows)."""
    if not rows:
        return 0
    ints = [over_lcm(r)[0] for r in rows]
    return len(_reduce(ints, len(ints[0]))[0])


def null_vector(rows) -> Vec | None:
    """The primitive integer null vector of integer rows of corank one, or None.

    Signed as clear_denominators(solve_general(rows, 0)[1][0]): the reduced
    echelon form gives d at the free column and -row[free] at the pivots.
    """
    rows = [list(r) for r in rows]
    width = len(rows[0])
    pivots, d, _ = _reduce(rows, width)
    if len(pivots) != width - 1:
        return None
    free = next(c for c in range(width) if c not in pivots)
    vec = [0] * width
    vec[free] = d
    for row, col in zip(rows, pivots):
        vec[col] = -row[free]
    g = gcd(*vec) if d > 0 else -gcd(*vec)
    return tuple(x // g for x in vec)


def coordinates(vec, rows):
    """The unique rational coordinates of `vec` in the given rows, or None."""
    mat = [[row[j] for row in rows] for j in range(len(vec))]
    sol = solve_general(mat, vec)
    if sol is None or sol[1]:
        return None
    return sol[0]


def inverse(rows) -> tuple[QVec, ...]:
    """Exact inverse of a square rational matrix; raises if it is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LinAlgError("inverse of a non-square matrix")
    aug = [over_lcm(list(r) + [int(i == j) for j in range(n)])[0]
           for i, r in enumerate(rows)]
    pivots, d, _ = _reduce(aug, n)
    if len(pivots) < n:
        raise LinAlgError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in aug)


def dot(u, v) -> Fraction:
    return Fraction(sum(a * b for a, b in zip(u, v)))


def clear_denominators(v) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1), keeping
    direction; the zero vector stays zero."""
    nums = over_lcm(v)[0]
    g = gcd(*nums) or 1
    return tuple(x // g for x in nums)
