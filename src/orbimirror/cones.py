"""Rational polyhedral cones with exact membership, face tests and extremal rays.

Cones carry a V-description (generators), an H-description (inequality and
equality functionals), or both. The arithmetic is integer: each functional and
each point is scaled by the positive lcm of its denominators, extremal rays
come from an integer double description with primitive rays, and all
feasibility questions reduce to an exact phase-I simplex with Bland's rule
pivoting on an integer tableau, so no tolerances appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .linalg import (
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


def nonneg_combination(generators, x):
    """lambda >= 0 with sum(lambda_i * g_i) = x, or None."""
    if not generators:
        return () if all(Fraction(c) == 0 for c in x) else None
    dim = len(x)
    cols = [qvec(g) for g in generators]
    a_rows = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    return _simplex_phase1(a_rows, qvec(x))


@dataclass(frozen=True)
class RationalCone:
    """dim-dimensional ambient space; generators and/or (inequalities, equalities).

    H-data means { x : f.x >= 0 for f in inequalities, g.x = 0 for g in equalities }.
    """

    dim: int
    generators: tuple | None = None
    inequalities: tuple | None = None
    equalities: tuple | None = None

    @staticmethod
    def from_generators(dim, gens) -> "RationalCone":
        gens = tuple(qvec(g) for g in gens)
        if any(len(g) != dim for g in gens):
            raise ConeError("generator dimension mismatch")
        return RationalCone(dim, generators=gens)

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
        if self.inequalities is not None or self.equalities is not None:
            # Scaling the point or a functional by a positive number changes
            # neither the sign of their pairing nor whether it vanishes.
            if not all(type(c) is int for c in x):
                x = over_lcm(x)[0]
            ineqs, eqs = self._integer_functionals
            return (all(sum(a * b for a, b in zip(f, x)) >= 0 for f in ineqs)
                    and all(sum(a * b for a, b in zip(f, x)) == 0 for f in eqs))
        return nonneg_combination(self.generators or (), x) is not None

    @cached_property
    def _integer_functionals(self) -> tuple[list[list[int]], list[list[int]]]:
        """(inequalities, equalities), each scaled by the lcm of its denominators."""
        return ([over_lcm(f)[0] for f in self.inequalities or ()],
                [over_lcm(f)[0] for f in self.equalities or ()])

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
        if self.inequalities is None and self.equalities is None:
            raise ConeError("extremal_rays needs an H-description")
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


def is_face(face: RationalCone, cone: RationalCone) -> bool:
    """True iff face = cone ∩ {l = 0} for a functional l >= 0 on cone.

    Both cones must have generator descriptions (convert first if needed).
    Raises ConeError when face is not contained in cone.
    """
    fg = face.generators
    cg = cone.generators
    if fg is None or cg is None:
        raise ConeError("is_face needs V-descriptions")
    for g in fg:
        if not cone.contains(g):
            raise ConeError("face candidate is not contained in the cone")
    inside = [g for g in cg if face.contains(g)]
    outside = [g for g in cg if not face.contains(g)]
    eqs = [(g, 0) for g in fg]
    ineqs = [(g, 0) for g in inside] + [(g, 1) for g in outside]
    witness = lp_feasible(cone.dim, eqs=eqs, ineqs=ineqs)
    if witness is None:
        return False
    # With the witness, cone ∩ {l=0} = cone(inside); equality with face needs
    # every inside generator to already lie in the face (checked above).
    return True


def common_face_witness(cone_p: RationalCone, cone_q: RationalCone):
    """Separating functional certifying that cone_p ∩ cone_q is a common face.

    Returns (l, shared_generators) where l >= 0 on cone_p, <= 0 on cone_q and
    strictly so outside the intersection; None when no such functional exists.
    Requires simplicial V-descriptions.
    """
    pg = cone_p.generators
    qg = cone_q.generators
    if pg is None or qg is None:
        raise ConeError("common_face_witness needs V-descriptions")
    p_in = [g for g in pg if cone_q.contains(g)]
    p_out = [g for g in pg if not cone_q.contains(g)]
    q_out = [g for g in qg if not cone_p.contains(g)]
    ineqs = [(g, 0) for g in p_in]
    ineqs += [(g, 1) for g in p_out]
    ineqs += [(tuple(-Fraction(x) for x in g), 0) for g in qg if cone_p.contains(g)]
    ineqs += [(tuple(-Fraction(x) for x in g), 1) for g in q_out]
    witness = lp_feasible(cone_p.dim, ineqs=ineqs)
    if witness is None:
        return None
    return witness, p_in
