"""Extended Picard group, Kaehler and Mori cones, the p-basis, M and N matrices.

Coordinates: elements of L* are stored as pairing vectors against the chosen
HNF basis of L (so [D_i] has coordinates (l^(1)_i, ..., l^(k)_i)). Elements of
NE^e and K are stored by their p-basis pairings once the basis is chosen, and
by L-basis coordinates before that.

`min_decomposition` is the one N-decomposition search. Its bound is exact: a
branch ends when a remainder coordinate in the minimal cone's ray basis goes
negative. The Box coset table here, and the sector classes and primitive
relations in `operators`, all rest on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product

from .cohomology import is_nef
from .cones import RationalCone, lp_feasible
from .fan import ExtendedStackyFan, FanError, StackyFan
from .linalg import (
    IntMatrix,
    clear_denominators,
    dot,
    hermite_row_basis,
    kernel_basis,
    qvec,
    reduce_mod_lattice,
    solve_general,
    solve_unique,
)


class PicardError(ValueError):
    pass


# -- fan-level relation vectors ------------------------------------------------


def wall_relations(fan: StackyFan) -> list[tuple[int, ...]]:
    """Primitive integer relation of the d+1 rays across each wall.

    Signs are normalized positive on the two off-wall rays; the pairing of a
    PL function with such a vector is >= 0 exactly when the function is convex
    across the wall. Entries are indexed by rays (length m).
    """
    fan.ensure_valid()
    d, m = fan.rank, fan.n_rays
    if d == 1:
        return [tuple(1 for _ in range(m))]
    walls: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in fan.max_cones:
        for facet in combinations(c, d - 1):
            walls.setdefault(tuple(facet), []).append(c)
    rels = []
    for facet, owners in sorted(walls.items()):
        if len(owners) != 2:
            raise FanError(f"wall {list(facet)} is not shared by two cones")
        support = sorted(set(owners[0]) | set(owners[1]))
        mat = [[Fraction(fan.rays[i][k]) for i in support] for k in range(d)]
        sol = solve_general(mat, [0] * d)
        part, null = sol
        if len(null) != 1:
            raise FanError(f"wall {list(facet)} has a degenerate relation space")
        rel = clear_denominators(null[0])
        off = [i for i in support if i not in facet]
        sign_entries = [rel[support.index(i)] for i in off]
        if any(x < 0 for x in sign_entries):
            if all(x <= 0 for x in sign_entries):
                rel = tuple(-x for x in rel)
            else:
                raise FanError(f"wall {list(facet)}: off-wall coefficients of mixed sign")
        full = [0] * m
        for idx, val in zip(support, rel):
            full[idx] = val
        rels.append(tuple(full))
    return sorted(set(rels))


def distinguished_relations(ext: ExtendedStackyFan) -> list[tuple[Fraction, ...]]:
    """a_{m+k} - sum r_i a_i = 0 as rational vectors in Q^n, one per extension."""
    out = []
    for k, b in enumerate(ext.extra):
        vec = [Fraction(0)] * ext.n
        vec[ext.m + k] = Fraction(1)
        for i, r in zip(b.min_cone, b.fractional):
            vec[i] -= r
        out.append(tuple(vec))
    return out


# -- lattices -------------------------------------------------------------------


def pl_lattice(ext: ExtendedStackyFan) -> list[tuple[int, ...]]:
    """HNF basis of Theta(PL(Sigma)) in (Z^n)*: the kernel of pairing with the
    distinguished relations."""
    rels = distinguished_relations(ext)
    if not rels:
        return [tuple(int(i == j) for j in range(ext.n)) for i in range(ext.n)]
    cleared = [clear_denominators(r) for r in rels]
    return kernel_basis(IntMatrix(cleared))


def _pairing_with_l_basis(ext: ExtendedStackyFan, x) -> tuple[Fraction, ...]:
    """Image of x in L* (coordinates = pairings with the L basis)."""
    return tuple(dot(x, l) for l in ext.l_basis)


@dataclass(frozen=True)
class ExtendedPicardData:
    ext: ExtendedStackyFan
    pl_basis: tuple = field(repr=False)          # Theta(PL) basis in (Z^n)*
    pic_theta_basis: tuple = field(repr=False)   # theta(Pic(X)) basis in L*
    pic_basis: tuple = field(repr=False)         # Pic^e(X) HNF basis in L*
    r: int = 0
    d_classes: tuple = ()                        # [D_i] in L* coordinates
    rho: tuple = ()
    wall_classes: tuple = ()                     # wall relations in L-basis coords
    distinguished_classes: tuple = ()            # distinguished relations in L coords
    kahler: RationalCone | None = None
    p_basis: tuple | None = None                 # rows: p_a in L* coordinates
    q_basis: tuple | None = None                 # rows: q_a in L-basis coordinates (rational)
    m_matrix: tuple | None = None                # n x (r+e), Fractions
    n_matrix: tuple | None = None                # n columns: n_{.i} in Z^{r+e}
    superpotential: tuple | None = None

    @property
    def e(self) -> int:
        return self.ext.e

    @property
    def rank(self) -> int:
        return self.r + self.ext.e

    def pairing_p(self, l_coords) -> tuple[Fraction, ...]:
        """p_a-pairings of an element of L (x) Q given in L-basis coordinates."""
        return tuple(dot(p, l_coords) for p in self.p_basis)

    def d_pairings(self, t) -> tuple[Fraction, ...]:
        """<D_i, d> for d given by its p-basis pairings t (via the M matrix)."""
        return tuple(sum((row[a] * Fraction(t[a]) for a in range(self.rank)), Fraction(0))
                     for row in self.m_matrix)


def _l_coords(ext: ExtendedStackyFan, vec_qn) -> tuple[Fraction, ...]:
    """Coordinates in the L basis of an element of L (x) Q given in Q^n."""
    basis = ext.l_basis
    mat = [[Fraction(b[i]) for b in basis] for i in range(ext.n)]
    return solve_unique(mat, vec_qn)


def extended_pl_and_pic(ext: ExtendedStackyFan) -> ExtendedPicardData:
    """Lattice layer: Theta(PL), PL(Sigma^e), theta(Pic) and Pic^e bases, and
    the Kaehler cone K."""
    pl = pl_lattice(ext)
    theta_img = [_pairing_with_l_basis(ext, x) for x in pl]
    theta_int = [tuple(int(v) for v in row) for row in theta_img]
    if any(any(x.denominator != 1 for x in row) for row in theta_img):
        raise PicardError("Theta(PL) image has a non-integral pairing with L")
    pic_theta = hermite_row_basis(theta_int) or []
    d_classes = tuple(
        tuple(Fraction(l[i]) for l in ext.l_basis) for i in range(ext.n)
    )
    ext_rows = [tuple(int(x) for x in d_classes[ext.m + k]) for k in range(ext.e)]
    pic_full = hermite_row_basis(list(pic_theta) + ext_rows)
    r = len(pic_full) - ext.e
    if r != ext.m - ext.d:
        raise PicardError(
            f"Pic^e rank {len(pic_full)} inconsistent with m - d + e = {ext.m - ext.d + ext.e}"
        )
    rho = tuple(sum((c[j] for c in d_classes), Fraction(0)) for j in range(ext.l_rank))
    walls = tuple(_l_coords(ext, w) for w in _padded_walls(ext))
    dist = tuple(_l_coords(ext, rel) for rel in distinguished_relations(ext))
    data = ExtendedPicardData(
        ext=ext,
        pl_basis=tuple(pl),
        pic_theta_basis=tuple(pic_theta),
        pic_basis=tuple(pic_full),
        r=r,
        d_classes=d_classes,
        rho=rho,
        wall_classes=walls,
        distinguished_classes=dist,
    )
    return replace(data, kahler=kahler_cone(data))


def _padded_walls(ext: ExtendedStackyFan):
    out = []
    for w in wall_relations(ext.fan):
        out.append(tuple(w) + tuple(0 for _ in range(ext.e)))
    return out


def kahler_cone(data: ExtendedPicardData) -> RationalCone:
    """K = image of Theta(CPL) in L* (x) Q, as an H-description.

    Inequalities: pairing with every wall relation >= 0. Equalities: pairing
    with every distinguished relation = 0 (cuts the theta(Pic)-subspace).
    """
    dim = data.ext.l_rank
    ineqs = [qvec(w) for w in data.wall_classes]
    eqs = [qvec(x) for x in data.distinguished_classes]
    cone = RationalCone.from_inequalities(dim, ineqs, eqs)
    interior = lp_feasible(dim, eqs=[(e, 0) for e in eqs],
                           ineqs=[(i, 1) for i in ineqs])
    if interior is None:
        raise PicardError("Kaehler cone has empty interior; fan is not projective")
    return cone


def extended_kahler_contains(data: ExtendedPicardData, x) -> bool:
    """Exact LP membership of x in K^e = K + sum_k Q>=0 [D_{m+k}]."""
    dim = data.ext.l_rank
    e = data.ext.e
    nvars = dim + e
    eqs = []
    for j in range(dim):
        coeff = [Fraction(0)] * nvars
        coeff[j] = Fraction(1)
        for k in range(e):
            coeff[dim + k] = Fraction(data.d_classes[data.ext.m + k][j])
        eqs.append((coeff, Fraction(x[j])))
    ineqs = []
    for w in data.kahler.inequalities or ():
        ineqs.append((list(w) + [Fraction(0)] * e, 0))
    for t in range(e):
        coeff = [Fraction(0)] * nvars
        coeff[dim + t] = Fraction(1)
        ineqs.append((coeff, 0))
    for eq in data.kahler.equalities or ():
        ineqs.append((list(eq) + [Fraction(0)] * e, 0))
        ineqs.append(([-v for v in eq] + [Fraction(0)] * e, 0))
    return lp_feasible(nvars, eqs=eqs, ineqs=ineqs) is not None


def rho_membership(data: ExtendedPicardData) -> tuple[bool, bool]:
    """(LP verdict, degree-criterion verdict) for rho in K^e; they must agree."""
    by_lp = extended_kahler_contains(data, data.rho)
    by_degree = is_nef(data.ext) and all(
        data.ext.degree(data.ext.m + k) <= 1 for k in range(data.ext.e)
    )
    return by_lp, by_degree


# -- p-basis, M, N ----------------------------------------------------------------


def _in_lattice(vec, hnf_basis) -> bool:
    return not any(reduce_mod_lattice(vec, hnf_basis))


def _is_basis_of(rows, hnf_basis) -> bool:
    if len(rows) != len(hnf_basis):
        return False
    if not all(_in_lattice(r, hnf_basis) for r in rows):
        return False
    return hermite_row_basis(rows) == list(hnf_basis)


def choose_basis_p(data: ExtendedPicardData, override=None) -> ExtendedPicardData:
    """Deterministic p-basis satisfying the three conditions, plus M, N and W.

    Search: primitive lattice points on the extremal rays of K, then small
    nonnegative combinations, validated by exact membership/unimodularity and
    rho in Cone(p). An explicit override (r rows in L* coordinates) is
    validated the same way.
    """
    ext = data.ext
    cone = data.kahler
    e, r = ext.e, data.r
    forced = [tuple(int(x) for x in data.d_classes[ext.m + k]) for k in range(e)]

    def validate(cands) -> bool:
        rows = [tuple(int(v) for v in c) for c in cands]
        if not all(cone.contains(row) for row in rows):
            return False
        if not _is_basis_of(rows + forced, data.pic_basis):
            return False
        coords = _coords_in_rows(data.rho, rows + forced)
        return coords is not None and all(c >= 0 for c in coords)

    chosen = None
    if override is not None:
        rows = [tuple(int(x) for x in row) for row in override]
        if len(rows) != r or not validate(rows):
            raise PicardError("supplied p-basis fails the three basis conditions")
        chosen = rows
    elif r == 0:
        chosen = []
    else:
        rays = cone.extremal_rays()
        prim = [_primitive_in_lattice(ray, data.pic_theta_basis) for ray in rays]
        if len(prim) == r and validate(prim):
            chosen = prim
        else:
            chosen = _search_combinations(prim, r, validate)
        if chosen is None:
            raise PicardError(
                "no p-basis found by the bounded search; supply p_basis explicitly "
                f"(extremal rays of K: {[list(p) for p in prim]})"
            )
    p_rows = [qvec(row) for row in chosen] + [qvec(f) for f in forced]
    # q = dual basis: columns of P^{-1} where P rows are the p_a.
    rank = r + e
    pmat = [list(row) for row in p_rows]
    q_cols = []
    for a in range(rank):
        rhs = [Fraction(int(b == a)) for b in range(rank)]
        q_cols.append(solve_unique(pmat, rhs))
    q_basis = tuple(tuple(col) for col in q_cols)  # q_a in L-basis coordinates
    m_matrix = tuple(
        tuple(sum((Fraction(ext.l_basis[j][i]) * q_basis[a][j] for j in range(rank)),
                  Fraction(0)) for a in range(rank))
        for i in range(ext.n)
    )
    for k in range(e):
        expected = tuple(Fraction(int(a == r + k)) for a in range(rank))
        if m_matrix[ext.m + k] != expected:
            raise PicardError("M matrix violates m_{m+i,a} = delta_{r+i,a}")
    n_matrix, superpotential = _superpotential(data, p_rows)
    return replace(
        data,
        p_basis=tuple(tuple(row) for row in p_rows),
        q_basis=q_basis,
        m_matrix=m_matrix,
        n_matrix=n_matrix,
        superpotential=superpotential,
    )


def _coords_in_rows(vec, rows):
    """Coordinates of vec in the given rows, or None unless they are unique."""
    mat = [[Fraction(row[j]) for row in rows] for j in range(len(vec))]
    sol = solve_general(mat, vec)
    if sol is None:
        return None
    coords, null = sol
    return None if null else coords


def _primitive_in_lattice(ray, hnf_basis):
    """Smallest positive multiple of `ray` lying in the lattice spanned by hnf_basis."""
    target = qvec(ray)
    mat = [[Fraction(row[j]) for row in hnf_basis] for j in range(len(target))]
    sol = solve_general(mat, target)
    if sol is None:
        raise PicardError("extremal ray is not in the span of theta(Pic)")
    coords, null = sol
    if null:
        raise PicardError("theta(Pic) basis is degenerate")
    denom = 1
    from math import gcd as _g

    for c in coords:
        denom = denom * c.denominator // _g(denom, c.denominator)
    ints = [int(c * denom) for c in coords]
    g = 0
    for x in ints:
        g = _g(g, abs(x))
    ints = [x // g for x in ints]
    out = [sum(ints[k] * hnf_basis[k][j] for k in range(len(hnf_basis)))
           for j in range(len(target))]
    return tuple(out)


def _search_combinations(prim, r, validate):
    if not prim:
        return None
    bound = 3
    space = []
    for coeffs in product(range(bound), repeat=len(prim)):
        if not any(coeffs):
            continue
        vec = tuple(sum(c * p[j] for c, p in zip(coeffs, prim)) for j in range(len(prim[0])))
        if vec not in space:
            space.append(vec)
    for cand in combinations(space, r):
        if validate(list(cand)):
            return list(cand)
    return None


def _superpotential(data: ExtendedPicardData, p_rows):
    """N matrix (n_{ai} = p_a(s(e_i))) and the Landau-Ginzburg term list."""
    ext = data.ext
    from .linalg import splitting_maps

    s, _g = splitting_maps(ext.a_matrix)
    n_cols = []
    terms = []
    for i in range(ext.n):
        s_ei = [s[j, i] for j in range(ext.l_rank)] if s is not None else []
        col = tuple(int(dot(p, s_ei)) for p in p_rows)
        n_cols.append(col)
        terms.append((-1, col, ext.generators[i]))
    return tuple(n_cols), tuple(terms)


# -- Mori side ---------------------------------------------------------------------


@dataclass(frozen=True)
class MoriData:
    picard: ExtendedPicardData
    anticones_e: tuple

    def d_pairings(self, t) -> tuple[Fraction, ...]:
        return self.picard.d_pairings(t)

    def integer_pattern(self, t, nonneg: bool) -> tuple[int, ...]:
        vals = self.d_pairings(t)
        if nonneg:
            return tuple(i for i, v in enumerate(vals)
                         if v.denominator == 1 and v >= 0)
        return tuple(i for i, v in enumerate(vals) if v.denominator == 1)

    def in_k(self, t) -> bool:
        return self.integer_pattern(t, nonneg=False) in self.anticones_e

    def in_k_eff(self, t) -> bool:
        return self.integer_pattern(t, nonneg=True) in self.anticones_e

    def in_ne(self, t) -> bool:
        return all(Fraction(x).denominator == 1 for x in t)

    def v_of(self, t) -> tuple[int, ...]:
        """Ceiling map K -> Box: v(d) = sum ceil(<D_i, d>) a_i."""
        ext = self.picard.ext
        vals = self.d_pairings(t)
        out = [0] * ext.d
        for i, v in enumerate(vals):
            c = -((-v.numerator) // v.denominator)  # ceil
            for k in range(ext.d):
                out[k] += c * ext.generators[i][k]
        return tuple(out)


def mori_lattices(data: ExtendedPicardData) -> MoriData:
    from .fan import anticones

    if data.p_basis is None:
        raise PicardError("choose_basis_p must run before mori_lattices")
    _, ac_e = anticones(data.ext)
    # Anticone sets use absolute generator indices 0..n-1 already.
    return MoriData(picard=data, anticones_e=tuple(sorted(set(ac_e))))


def min_decomposition(ext: ExtendedStackyFan, vector):
    """Lexicographically smallest N-decomposition of `vector` over the
    generators of its minimal cone sigma, as a length-n coefficient vector,
    or None when there is none.

    The search runs in sigma's ray coordinates, where every generator of sigma
    has nonnegative coordinates: a branch ends as soon as a remainder
    coordinate goes negative, so that bound is exact. Coefficients are tried
    in increasing order, generator by generator, so the first complete
    decomposition found is the lexicographically smallest.
    """
    sigma, target = ext.fan.fractional_coordinates(vector)
    support = ext.generators_in_cone(sigma)
    columns = [ext.fan.cone_coordinates(sigma, ext.generators[i]) for i in support]

    def search(idx, remainder):
        if idx == len(columns):
            return () if not any(remainder) else None
        coeff = 0
        while all(x >= 0 for x in remainder):
            rest = search(idx + 1, remainder)
            if rest is not None:
                return (coeff,) + rest
            remainder = tuple(x - y for x, y in zip(remainder, columns[idx]))
            coeff += 1
        return None

    coeffs = search(0, target)
    if coeffs is None:
        return None
    full = [0] * ext.n
    for i, c in zip(support, coeffs):
        full[i] = c
    return tuple(full)


def box_coset_map(mori: MoriData) -> list[dict]:
    """The bijection table K/L <-> Box(Sigma), with round-trip verification."""
    data = mori.picard
    ext = data.ext
    table = []
    seen_vectors = set()
    for b in ext.box:
        n_vec = min_decomposition(ext, b.vector)
        if n_vec is None:
            raise PicardError(f"box element {list(b.vector)} has no N-decomposition")
        rel = [Fraction(x) for x in n_vec]
        for i, rfrac in zip(b.min_cone, b.fractional):
            rel[i] -= rfrac
        d_coords = _l_coords(ext, rel)
        t = data.pairing_p(d_coords)
        if not mori.in_k(t):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in K")
        if not mori.in_ne(t):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in NE^e")
        v_back = mori.v_of(t)
        if v_back != b.vector:
            raise PicardError(
                f"ceiling map round-trip failed: v(d_v) = {list(v_back)} != {list(b.vector)}"
            )
        if v_back in seen_vectors:
            raise PicardError("ceiling map is not injective on representatives")
        seen_vectors.add(v_back)
        table.append({
            "box_element": b.vector,
            "age": b.age,
            "d_l_coords": d_coords,
            "d_p_pairings": t,
            "d_pairings": mori.d_pairings(t),
        })
    return table
