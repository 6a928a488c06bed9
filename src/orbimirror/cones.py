"""Rational polyhedral cones with exact membership, face tests and extremal rays.

A `RationalCone` has one description: inequality and equality functionals
(an H-cone). A cone spanned by a basis B is tested through B's integer
inverse instead (`in_basis_cone`). The arithmetic is integer: each functional
and each point is scaled by the positive lcm of its denominators, and extremal
rays come from an integer double description with primitive rays. Membership
and face tests are sign tests on those integers. The only LP left is the
reported chart separator: the functional separating two charts, which the
global moduli report prints (`common_face_witness`). It is an exact phase-I
simplex with Bland's rule pivoting on an integer tableau, so no tolerances
appear.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .linalg import (
    Frozen,
    ResourceLimitError,
    clear_denominators,
    independent_rows,
    integer_inverse,
    over_lcm,
    qvec,
)


class ConeError(ValueError):
    pass


EXTREMAL_RAY_CAP = 10000  # rays the double description of one cone may hold at once


def _simplex_phase1(a_rows, b):
    """Find y >= 0 with A y = b, exactly, or None.

    Phase-I simplex, Bland's rule (entering: least index with negative reduced
    cost; leaving: least ratio then least index), guaranteeing termination.
    The tableau is integer (Edmonds' integer pivoting): d times the rational
    tableau, where d > 0 is the determinant of the current basis once each row
    is scaled by the lcm of its denominators. Sign tests and cross-multiplied
    ratio comparisons do not see that factor, so the pivots and the vertex are
    those of the rational simplex.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    scales, rows = [], []
    for row, rhs in zip(a_rows, b):
        r, scale = over_lcm(list(row) + [rhs])
        scales.append(scale)
        rows.append([-x for x in r] if r[n] < 0 else r)
    d = prod(scales)
    # Tableau d * [A | I | b] over variables y_0..y_{n-1}, artificials n..n+m-1.
    tab = [[d // s * x for x in r[:n]] + [d if i == j else 0 for j in range(m)] + [d // s * r[n]]
           for i, (s, r) in enumerate(zip(scales, rows))]
    basis = [n + i for i in range(m)]
    width = n + m
    # Objective: minimize sum of artificials -> reduced costs, times d
    # (c_j - z_j: zero on y-columns minus column sums, +1 on artificials).
    cost = [-sum(t[j] for t in tab) for j in range(width + 1)]
    for j in range(n, width):
        cost[j] += d
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio_i < ratio_leave, both denominators positive
                lhs = tab[i][width] * tab[leave][enter]
                rhs = tab[leave][width] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ConeError("unbounded phase-I objective (cannot happen)")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and (f or p != d):
                tab[i] = [(p * x - f * y) // d for x, y in zip(tab[i], prow)]
        f = cost[enter]
        cost = [(p * x - f * y) // d for x, y in zip(cost, prow)]
        d = p
        basis[leave] = enter
    if cost[width] != 0:
        return None
    y = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = Fraction(tab[i][width], d)
    return tuple(y)


def lp_feasible(nvars: int, eqs=(), ineqs=()):
    """Rational x with f.x = c for (f, c) in eqs and f.x >= c for (f, c) in ineqs.

    Returns the solution vector or None. Free variables are split x = u - v.
    """
    rows = []
    rhs = []
    n_ineq = len(ineqs)
    width = 2 * nvars + n_ineq
    for f, c in eqs:
        f = qvec(f)
        rows.append(list(f) + [-x for x in f] + [Fraction(0)] * n_ineq)
        rhs.append(Fraction(c))
    for k, (f, c) in enumerate(ineqs):
        f = qvec(f)
        slack = [Fraction(0)] * n_ineq
        slack[k] = Fraction(-1)
        rows.append(list(f) + [-x for x in f] + slack)
        rhs.append(Fraction(c))
    if not rows:
        return tuple(Fraction(0) for _ in range(nvars))
    y = _simplex_phase1(rows, rhs)
    if y is None:
        return None
    return tuple(y[i] - y[nvars + i] for i in range(nvars))


class RationalCone(Frozen):
    """{ x in Q^dim : f.x >= 0 for f in inequalities, g.x = 0 for g in equalities }."""

    dim: int
    inequalities: tuple = ()
    equalities: tuple = ()

    @staticmethod
    def from_inequalities(dim, ineqs, eqs=()) -> "RationalCone":
        ineqs = tuple(qvec(f) for f in ineqs)
        eqs = tuple(qvec(f) for f in eqs)
        if any(len(f) != dim for f in ineqs + eqs):
            raise ConeError("functional dimension mismatch")
        return RationalCone(dim, inequalities=ineqs, equalities=eqs)

    def contains(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.dim:
            raise ConeError("point dimension mismatch")
        # Scaling the point or a functional by a positive number changes
        # neither the sign of their pairing nor whether it vanishes.
        if not all(type(c) is int for c in x):
            x = over_lcm(x)[0]
        ineqs, eqs = self._integer_functionals
        return (all(sum(a * b for a, b in zip(f, x)) >= 0 for f in ineqs)
                and all(sum(a * b for a, b in zip(f, x)) == 0 for f in eqs))

    def pullback(self, rows) -> "RationalCone":
        """{ c : sum_a c_a rows_a in self }, the cone in coordinates on `rows`."""
        ineqs, eqs = ([[sum(map(mul, f, row)) for row in rows] for f in fs]
                      for fs in self._integer_functionals)
        return RationalCone.from_inequalities(len(rows), ineqs, eqs)

    @cached_property
    def _integer_functionals(self) -> tuple[list[list[int]], list[list[int]]]:
        """(inequalities, equalities), each scaled by the lcm of its denominators."""
        return ([over_lcm(f)[0] for f in self.inequalities],
                [over_lcm(f)[0] for f in self.equalities])

    def extremal_rays(self) -> list[tuple[int, ...]]:
        """Primitive integer generators of the extremal rays of a pointed H-cone,
        sorted, as a fresh list; enumerated once per cone.

        The double description method (Fukuda & Prodon, 1996) on ints. The
        leftmost dim independent rows of (equalities, inequalities) take every
        independent equality and k = dim - rank(equalities) inequalities; in
        ker(equalities) those inequalities cut out a simplicial cone, whose
        rays are the matching columns of the rows' inverse. The other
        inequalities then cut it in index order. A cut keeps the rays on its
        side and adds the primitive positive combination of each +/- pair
        that is adjacent: the inequalities tight on both number at least
        k - 2, and no other ray is tight on all of them.
        Raises ConeError unless the cone is pointed (inequalities and
        equalities of rank dim), and ResourceLimitError when more than
        EXTREMAL_RAY_CAP rays are held at once.
        """
        return list(self._extremal_rays)

    @cached_property
    def _extremal_rays(self) -> tuple[tuple[int, ...], ...]:
        ineqs, eqs = self._integer_functionals
        rows = eqs + ineqs
        start = independent_rows(rows)  # every independent equality comes first
        if len(start) < self.dim:
            raise ConeError("cone is not pointed")
        k = self.dim - sum(i < len(eqs) for i in start)  # the dimension of ker(eqs)
        if not k:
            return ()  # the equalities cut the cone down to the origin
        # Each ray is (vector, bitmask of the inequalities cut so far that are
        # tight on it). The start cone is cut by the rows `start`; its ray j,
        # column j of their inverse, is tight on all of them but row j.
        adj, d = integer_inverse([rows[i] for i in start])
        cut = sum(1 << i for i in start[self.dim - k:])
        rays = [(clear_denominators(col if d > 0 else [-x for x in col]), cut & ~(1 << i))
                for i, col in zip(start, zip(*adj)) if i >= len(eqs)]
        for i in sorted(set(range(len(eqs), len(rows))) - set(start)):
            f, bit = rows[i], 1 << i
            kept, pos, neg = [], [], []
            for ray, tight in rays:
                s = sum(map(mul, f, ray))
                if s >= 0:
                    kept.append((ray, tight | bit if s == 0 else tight))
                if s:
                    (pos if s > 0 else neg).append((s, ray, tight))
            masks = [tight for _, tight in rays]
            for sp, p, tp in pos:
                for sn, n, tn in neg:
                    common = tp & tn
                    if (common.bit_count() < k - 2
                            or sum(t & common == common for t in masks) > 2):
                        continue
                    kept.append((clear_denominators([sp * y - sn * x for x, y in zip(p, n)]),
                                 common | bit))
                    if len(kept) > EXTREMAL_RAY_CAP:
                        raise ResourceLimitError(
                            f"extremal_rays: more than {EXTREMAL_RAY_CAP} rays")
            rays = kept
        return tuple(sorted(ray for ray, _ in rays))


def in_basis_cone(x, inverse) -> bool:
    """x in Cone(B) for a basis B, given inverse = integer_inverse(B) = (D, d):
    x's coordinates in B are x D / d, so they are >= 0 exactly when every
    x.D_j has the sign of d (or vanishes)."""
    adj, d = inverse
    x = over_lcm(x)[0]  # a positive scaling keeps every sign
    return all(d * sum(map(mul, x, col)) >= 0 for col in zip(*adj))


def is_face(face: RationalCone, cone: RationalCone) -> bool:
    """True iff face = cone ∩ {l = 0} for a functional l >= 0 on cone, for two
    pointed H-cones; raises ConeError when face is not contained in cone.

    The inequalities of cone tight on every ray of face cut out the least face
    of cone containing face; face is that face exactly when every ray of cone
    tight on all of them lies in face.
    """
    face_rays = face.extremal_rays()
    if not all(cone.contains(ray) for ray in face_rays):
        raise ConeError("face candidate is not contained in the cone")
    tight = [f for f in cone._integer_functionals[0]
             if all(sum(map(mul, f, ray)) == 0 for ray in face_rays)]
    return all(face.contains(ray) for ray in cone.extremal_rays()
               if all(sum(map(mul, f, ray)) == 0 for f in tight))


def common_face_witness(p_rows, q_rows):
    """Separating functional certifying that Cone(p) ∩ Cone(q) is a common
    face, for two bases p and q of Q^dim.

    Returns (l, shared) where l >= 0 on Cone(p), <= 0 on Cone(q) and strictly
    so on the generators of each outside the other, and shared lists the p_a
    in Cone(q); None when no such functional exists. Which generator lies in
    the other cone is a sign test; the one LP finds l.
    """
    p_inv, q_inv = integer_inverse(p_rows), integer_inverse(q_rows)
    p_rows, q_rows = [qvec(g) for g in p_rows], [qvec(g) for g in q_rows]
    p_in = [g for g in p_rows if in_basis_cone(g, q_inv)]
    p_out = [g for g in p_rows if not in_basis_cone(g, q_inv)]
    q_in = [g for g in q_rows if in_basis_cone(g, p_inv)]
    q_out = [g for g in q_rows if not in_basis_cone(g, p_inv)]
    ineqs = [(g, 0) for g in p_in]
    ineqs += [(g, 1) for g in p_out]
    ineqs += [(tuple(-x for x in g), 0) for g in q_in]
    ineqs += [(tuple(-x for x in g), 1) for g in q_out]
    witness = lp_feasible(len(p_rows), ineqs=ineqs)
    if witness is None:
        return None
    return witness, p_in
