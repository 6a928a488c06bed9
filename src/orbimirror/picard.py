"""Extended Picard group, Kaehler and Mori cones, the p-basis, M and N matrices.

Coordinates: elements of L* are stored as pairing vectors against the chosen
HNF basis of L (so [D_i] has coordinates (l^(1)_i, ..., l^(k)_i)). Elements of
NE^e and K are stored by their p-basis pairings once the basis is chosen, and
by L-basis coordinates before that. Both are read off the fan's splitting s,
with no solve: v in L (x) Q has L-coordinates s v and p-pairings N v.

`min_decomposition` is the one N-decomposition search. Its bound is exact: a
branch ends when a remainder coordinate in the minimal cone's ray basis goes
negative. The Box coset table here, and the sector classes and primitive
relations in `operators`, all rest on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul

from .cohomology import is_nef
from .cones import RationalCone, lp_feasible
from .fan import ExtendedStackyFan, anticones
from .linalg import (
    clear_denominators,
    coordinates,
    dot,
    hermite_row_basis,
    inverse,
    kernel_basis,
    over_lcm,
    qvec,
)


class PicardError(ValueError):
    pass


# -- fan-level relation vectors ------------------------------------------------


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
    return kernel_basis(cleared)


@dataclass(frozen=True)
class ExtendedPicardData:
    ext: ExtendedStackyFan
    pl_basis: tuple = field(repr=False)          # Theta(PL) basis in (Z^n)*
    pic_theta_basis: tuple = field(repr=False)   # theta(Pic(X)) basis in L*
    pic_basis: tuple = field(repr=False)         # Pic^e(X) HNF basis in L*
    r: int = 0
    d_classes: tuple = ()                        # [D_i] in L* coordinates, ints
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

    def pairing_p(self, v) -> tuple:
        """p_a-pairings of an element v of L (x) Q given in Q^n: N v, since
        n_{ai} = p_a(s(e_i)) and s v is v's L-basis coordinate vector."""
        return tuple(sum(col[a] * x for col, x in zip(self.n_matrix, v))
                     for a in range(self.rank))

    @cached_property
    def m_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den): the M matrix as int numerators over den, the lcm of
        its entries' denominators."""
        nums, den = over_lcm(x for row in self.m_matrix for x in row)
        w = self.rank
        return tuple(tuple(nums[i:i + w]) for i in range(0, len(nums), w)), den


def _l_coords(ext: ExtendedStackyFan, vec_qn) -> tuple:
    """Coordinates in the L basis of an element of L (x) Q given in Q^n: s v
    for the fan's splitting s."""
    s = ext.splitting
    return tuple(sum(map(mul, s[j], vec_qn)) for j in range(ext.l_rank))


def extended_pl_and_pic(ext: ExtendedStackyFan) -> ExtendedPicardData:
    """Lattice layer: Theta(PL), PL(Sigma^e), theta(Pic) and Pic^e bases, and
    the Kaehler cone K."""
    pl = pl_lattice(ext)
    # the image of Theta(PL) in L*: an integral x pairs integrally with L
    theta_img = [tuple(sum(map(mul, x, l)) for l in ext.l_basis) for x in pl]
    pic_theta = hermite_row_basis(theta_img)
    # [D_i] pairs with l^(j) to l^(j)_i: the columns of the L basis
    d_classes = tuple(zip(*ext.l_basis))
    pic_full = hermite_row_basis(pic_theta + list(d_classes[ext.m:]))
    r = len(pic_full) - ext.e
    if r != ext.m - ext.d:
        raise PicardError(
            f"Pic^e rank {len(pic_full)} inconsistent with m - d + e = {ext.m - ext.d + ext.e}"
        )
    rho = tuple(sum((c[j] for c in d_classes), Fraction(0)) for j in range(ext.l_rank))
    walls = tuple(_l_coords(ext, w + (0,) * ext.e) for w in ext.fan.wall_relations)
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
    """Exact LP membership of x in K^e = K + sum_k Q>=0 [D_{m+k}]: is there a
    t >= 0 with x - sum_k t_k [D_{m+k}] in K? The LP is over t only."""
    e = data.ext.e
    cols = [data.d_classes[data.ext.m + k] for k in range(e)]

    def constraint(f):
        # f.(x - sum_k t_k D_k) as (coefficients of t, constant) for lp_feasible
        return [-dot(f, c) for c in cols], -dot(f, x)

    ineqs = [constraint(w) for w in data.kahler.inequalities or ()]
    ineqs += [([int(j == k) for j in range(e)], 0) for k in range(e)]
    eqs = [constraint(g) for g in data.kahler.equalities or ()]
    return lp_feasible(e, eqs=eqs, ineqs=ineqs) is not None


def rho_membership(data: ExtendedPicardData) -> tuple[bool, bool]:
    """(LP verdict, degree-criterion verdict) for rho in K^e; they must agree."""
    by_lp = extended_kahler_contains(data, data.rho)
    by_degree = is_nef(data.ext) and all(
        data.ext.degree(data.ext.m + k) <= 1 for k in range(data.ext.e)
    )
    return by_lp, by_degree


# -- p-basis, M, N ----------------------------------------------------------------


def is_basis_of(rows, hnf_basis) -> bool:
    """True iff `rows` is a Z-basis of the lattice with canonical HNF basis
    `hnf_basis`: two bases of one lattice have the same canonical HNF."""
    return len(rows) == len(hnf_basis) and hermite_row_basis(rows) == list(hnf_basis)


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
    forced = list(data.d_classes[ext.m:])

    def validate(cands) -> bool:
        rows = [tuple(int(v) for v in c) for c in cands]
        if not all(cone.contains(row) for row in rows):
            return False
        if not is_basis_of(rows + forced, data.pic_basis):
            return False
        coords = coordinates(data.rho, rows + forced)
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
    q_basis = tuple(zip(*inverse(p_rows)))  # q_a in L-basis coordinates
    # m_{ia} = <D_i, q_a>
    m_matrix = tuple(tuple(dot(col, q) for q in q_basis) for col in data.d_classes)
    for k in range(e):
        expected = tuple(Fraction(int(a == r + k)) for a in range(r + e))
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


def _primitive_in_lattice(ray, hnf_basis):
    """Smallest positive multiple of `ray` lying in the lattice spanned by hnf_basis."""
    coords = coordinates(ray, hnf_basis)
    if coords is None:
        raise PicardError("extremal ray has no unique coordinates in theta(Pic)")
    ints = clear_denominators(coords)
    return tuple(sum(c * row[j] for c, row in zip(ints, hnf_basis))
                 for j in range(len(ray)))


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
    s = ext.splitting
    n_cols = []
    terms = []
    for i in range(ext.n):
        s_ei = [s[j][i] for j in range(ext.l_rank)]
        col = tuple(int(dot(p, s_ei)) for p in p_rows)
        n_cols.append(col)
        terms.append((-1, col, ext.generators[i]))
    return tuple(n_cols), tuple(terms)


# -- Mori side ---------------------------------------------------------------------


@dataclass(frozen=True)
class MoriData:
    picard: ExtendedPicardData
    anticones_e: tuple

    def pairing_nums(self, t) -> tuple:
        """<D_i, d> as numerators over M's denominator (`picard.m_ints`)."""
        return tuple(sum(map(mul, row, t)) for row in self.picard.m_ints[0])

    # The Fraction pairings, the membership tests and the ceiling map read the
    # numerators of d's pairings from `pairings` when the caller has them, and
    # from t otherwise.

    def d_pairings(self, t, pairings=None) -> tuple[Fraction, ...]:
        den = self.picard.m_ints[1]
        return tuple(Fraction(x, den) for x in pairings or self.pairing_nums(t))

    def integer_pattern(self, t, nonneg: bool, pairings=None) -> tuple[int, ...]:
        nums = self.pairing_nums(t) if pairings is None else pairings
        den = self.picard.m_ints[1]
        return tuple(i for i, v in enumerate(nums)
                     if v % den == 0 and (v >= 0 or not nonneg))

    def in_k(self, t, pairings=None) -> bool:
        return self.integer_pattern(t, False, pairings) in self.anticones_e

    def in_ne(self, t) -> bool:
        return all(Fraction(x).denominator == 1 for x in t)

    def v_of(self, t, pairings=None) -> tuple[int, ...]:
        """Ceiling map K -> Box: v(d) = sum ceil(<D_i, d>) a_i."""
        ext = self.picard.ext
        nums = self.pairing_nums(t) if pairings is None else pairings
        den = self.picard.m_ints[1]
        out = [0] * ext.d
        for i, v in enumerate(nums):
            c = -((-v) // den)  # ceil
            for k in range(ext.d):
                out[k] += c * ext.generators[i][k]
        return tuple(out)


def mori_lattices(data: ExtendedPicardData) -> MoriData:
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
        t = data.pairing_p(rel)
        nums = mori.pairing_nums(t)
        if not mori.in_k(t, nums):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in K")
        if not mori.in_ne(t):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in NE^e")
        v_back = mori.v_of(t, nums)
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
            "d_p_pairings": t,
            "d_pairings": mori.d_pairings(t, nums),
        })
    return table
