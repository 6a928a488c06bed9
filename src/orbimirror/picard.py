"""Extended Picard group, Kaehler and Mori cones, the p-basis, M and N matrices.

Coordinates: elements of L* are stored as pairing vectors against the chosen
HNF basis of L (so [D_i] has coordinates (l^(1)_i, ..., l^(k)_i)). Elements of
NE^e and K are stored by their p-basis pairings once the basis is chosen, and
by L-basis coordinates before that. Both are read off the fan's splitting s,
with no solve: v in L (x) Q has L-coordinates s v and p-pairings N v.

No LP is solved here: K's interior and rho in K^e are sign tests on K's
extremal rays and functionals. The only LP left in the package is the chart
separator that the global moduli report prints (`cones.common_face_witness`).

`min_decomposition` is the one N-decomposition search. Its bound is exact: a
branch ends when a remainder coordinate in the minimal cone's ray basis goes
negative. The Box coset table here, and the sector classes and primitive
relations in `operators`, all rest on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul

from .cohomology import is_nef
from .cones import RationalCone, in_basis_cone
from .fan import ExtendedStackyFan, anticones
from .fandoc import check_basis_shape
from .linalg import (
    Frozen,
    ResourceLimitError,
    clear_denominators,
    coordinates,
    det,
    dot,
    hermite_row_basis,
    integer_inverse,
    kernel_basis,
    over_lcm,
    qvec,
)


class PicardError(ValueError):
    pass


P_BASIS_SEARCH_CAP = 50_000  # combinations built plus subsets tried by the p-basis fallback


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


class ExtendedPicardData(Frozen):
    ext: ExtendedStackyFan
    pl_basis: tuple                              # Theta(PL) basis in (Z^n)*
    pic_theta_basis: tuple                       # theta(Pic(X)) basis in L*
    pic_basis: tuple                             # Pic^e(X) HNF basis in L*
    r: int = 0
    d_classes: tuple = ()                        # [D_i] in L* coordinates, ints
    rho: tuple = ()
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
    for the fan's splitting s, summed over the nonzero entries of v."""
    s, support = ext.splitting, [(i, x) for i, x in enumerate(vec_qn) if x]
    return tuple(sum(s[j][i] * x for i, x in support) for j in range(ext.l_rank))


def extended_pl_and_pic(ext: ExtendedStackyFan) -> ExtendedPicardData:
    """Lattice layer: Theta(PL), PL(Sigma^e), theta(Pic) and Pic^e bases, and
    the Kaehler cone K: pairing >= 0 with every wall relation, = 0 with every
    distinguished relation. Those relations span L (x) Q, so K is pointed, and
    has interior iff no wall functional vanishes on all of its extremal rays."""
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
    walls = [_l_coords(ext, w + (0,) * ext.e) for w in ext.fan.wall_relations]  # ints
    dist = [_l_coords(ext, rel) for rel in distinguished_relations(ext)]
    kahler = RationalCone.from_inequalities(ext.l_rank, walls, dist)
    rays = kahler.extremal_rays()
    if any(not any(sum(map(mul, w, ray)) for ray in rays) for w in walls):
        raise PicardError("Kaehler cone has empty interior; fan is not projective")
    return ExtendedPicardData(
        ext=ext,
        pl_basis=tuple(pl),
        pic_theta_basis=tuple(pic_theta),
        pic_basis=tuple(pic_full),
        r=r,
        d_classes=d_classes,
        rho=rho,
        kahler=kahler,
    )


def forced_split(data: ExtendedPicardData, x) -> tuple[list, list]:
    """(t, y) with x = y + sum_k t_k [D_{m+k}] and y in span K. The k-th
    equality g_k of K pairs with [D_{m+l}] to delta_kl, so t_k = g_k.x."""
    t = [dot(g, x) for g in data.kahler.equalities]
    y = [a - sum(c * d[j] for c, d in zip(t, data.d_classes[data.ext.m:]))
         for j, a in enumerate(x)]
    return t, y


def extended_kahler_contains(data: ExtendedPicardData, x) -> bool:
    """x in K^e = K + sum_k Q>=0 [D_{m+k}], in closed form: for (t, y) =
    forced_split(data, x), x lies in K^e iff every t_k >= 0 and y lies in K."""
    t, y = forced_split(data, x)
    return all(c >= 0 for c in t) and data.kahler.contains(y)


def rho_membership(data: ExtendedPicardData) -> tuple[bool, bool]:
    """(sign-test verdict, degree-criterion verdict) for rho in K^e; they must agree."""
    by_cone = extended_kahler_contains(data, data.rho)
    by_degree = is_nef(data.ext) and all(
        data.ext.degree(data.ext.m + k) <= 1 for k in range(data.ext.e)
    )
    return by_cone, by_degree


# -- p-basis, M, N ----------------------------------------------------------------


def p_basis_test(data: ExtendedPicardData):
    """The test of p_1..p_r in K by their coordinates on `pic_theta_basis`.
    K's equalities vanish on theta(Pic) = Pic^e ∩ span K and pair with [D_{m+l}]
    to delta_kl, so Pic^e = theta(Pic) (+) <forced>: p ∪ forced is a Z-basis of
    Pic^e iff the coordinates have det +-1, and rho lies in Cone(p ∪ forced) iff
    every t_k >= 0 and rho' lies in Cone(p), for (t, rho') = forced_split(data, rho)."""
    t, rho_prime = forced_split(data, data.rho)
    rho_theta = coordinates(rho_prime, data.pic_theta_basis) if all(c >= 0 for c in t) else None
    return lambda coords: (rho_theta is not None and det(coords) in (1, -1)
                           and in_basis_cone(rho_theta, integer_inverse(coords)))


def choose_basis_p(data: ExtendedPicardData, override=None) -> ExtendedPicardData:
    """Deterministic p-basis satisfying the three conditions, plus M, N and W.

    Search: primitive lattice points on the extremal rays of K, then small
    nonnegative combinations, in theta(Pic) coordinates, tested by
    `p_basis_test`; they lie in K by construction. An explicit override (r
    rows in L* coordinates) must lie in K ∩ theta(Pic) and pass the test.
    """
    ext = data.ext
    cone, theta = data.kahler, data.pic_theta_basis
    e, r = ext.e, data.r
    validate = p_basis_test(data)
    if override is not None:
        check_basis_shape(override, r, r + e, "p_basis")
        chosen = [tuple(int(x) for x in row) for row in override]
        coords = [coordinates(row, theta) for row in chosen if cone.contains(row)]
        if not (len(coords) == r and all(x.denominator == 1 for c in coords for x in c)
                and validate([tuple(int(x) for x in c) for c in coords])):
            raise PicardError("supplied p-basis fails the three basis conditions")
    else:
        prim = [_primitive_in_lattice(ray, theta) for ray in cone.extremal_rays()]
        found = (prim if len(prim) == r and validate(prim)
                 else _search_combinations(prim, r, validate))
        if found is None:
            raise PicardError(
                "no p-basis found by the bounded search; supply p_basis explicitly "
                f"(extremal rays of K: {[list(_from_theta(p, theta)) for p in prim]})"
            )
        chosen = [_from_theta(c, theta) for c in found]
    p_rows = chosen + list(data.d_classes[ext.m:])
    # q = dual basis: the columns of P^{-1} = adj / den, P's rows the p_a
    adj, den = integer_inverse(p_rows)
    q_nums = tuple(zip(*adj))
    # m_{ia} = <D_i, q_a>, as numerators over den
    m_nums = [[sum(map(mul, row, q)) for q in q_nums] for row in data.d_classes]
    for k in range(e):
        if m_nums[ext.m + k] != [den * (a == r + k) for a in range(r + e)]:
            raise PicardError("M matrix violates m_{m+i,a} = delta_{r+i,a}")
    n_matrix, superpotential = _superpotential(data, p_rows)
    return data.replace(
        p_basis=tuple(qvec(row) for row in p_rows),
        q_basis=tuple(tuple(Fraction(x, den) for x in q) for q in q_nums),
        m_matrix=tuple(tuple(Fraction(x, den) for x in row) for row in m_nums),
        n_matrix=n_matrix,
        superpotential=superpotential,
    )


def _primitive_in_lattice(ray, hnf_basis):
    """Coordinates on hnf_basis of the smallest positive multiple of `ray`
    lying in the lattice it spans."""
    coords = coordinates(ray, hnf_basis)
    if coords is None:
        raise PicardError("extremal ray has no unique coordinates in theta(Pic)")
    return clear_denominators(coords)


def _from_theta(coords, hnf_basis) -> tuple:
    """The point with the given coordinates on hnf_basis."""
    return tuple(sum(map(mul, coords, col)) for col in zip(*hnf_basis))


def _search_combinations(prim, r, validate):
    """The first r-subset, in order, of the distinct nonzero combinations of
    `prim` with coefficients 0..2 that passes `validate`, or None. Each
    combination built and each subset tried counts against P_BASIS_SEARCH_CAP."""
    over = ResourceLimitError(f"p-basis search: more than {P_BASIS_SEARCH_CAP} candidates")
    built = 3 ** len(prim) - 1
    if built > P_BASIS_SEARCH_CAP:
        raise over
    space = dict.fromkeys(  # dedup, first occurrence first
        tuple(sum(c * p[j] for c, p in zip(coeffs, prim)) for j in range(len(prim[0])))
        for coeffs in product(range(3), repeat=len(prim)) if any(coeffs))
    for tried, cand in enumerate(combinations(space, r), built + 1):
        if tried > P_BASIS_SEARCH_CAP:
            raise over
        if validate(list(cand)):
            return list(cand)
    return None


def _superpotential(data: ExtendedPicardData, p_rows):
    """N matrix (n_{ai} = p_a(s(e_i))) and the Landau-Ginzburg term list."""
    n_cols = tuple(tuple(sum(map(mul, p, s_ei)) for p in p_rows)
                   for s_ei in zip(*data.ext.splitting))
    return n_cols, tuple((-1, col, a) for col, a in zip(n_cols, data.ext.generators))


# -- Mori side ---------------------------------------------------------------------


class MoriData(Frozen):
    picard: ExtendedPicardData
    anticones_e: tuple

    def pairing_nums(self, t) -> tuple:
        """<D_i, d> as numerators over M's denominator (`picard.m_ints`)."""
        return tuple(sum(map(mul, row, t)) for row in self.picard.m_ints[0])

    # The Fraction pairings, the membership tests and the ceiling map read d
    # through the numerators `nums` of its pairings (`pairing_nums`).

    def d_pairings(self, nums) -> tuple[Fraction, ...]:
        den = self.picard.m_ints[1]
        return tuple(Fraction(x, den) for x in nums)

    def integer_pattern(self, nums, nonneg: bool, scale=1) -> tuple[int, ...]:
        """The indices of the integral pairings (and >= 0 when `nonneg`), for
        numerators `nums` over `scale` times M's denominator."""
        den = self.picard.m_ints[1] * scale
        return tuple(i for i, v in enumerate(nums)
                     if v % den == 0 and (v >= 0 or not nonneg))

    def in_k(self, nums, scale=1) -> bool:
        return self.integer_pattern(nums, False, scale) in self.anticones_e

    def in_ne(self, t) -> bool:
        return all(Fraction(x).denominator == 1 for x in t)

    def v_of(self, nums) -> tuple[int, ...]:
        """Ceiling map K -> Box: v(d) = sum ceil(<D_i, d>) a_i.

        For d in L (x) Q, sum <D_i, d> a_i = 0, so v(d) = sum (ceil c_i - c_i) a_i
        for c_i = <D_i, d>: it depends only on each c_i mod 1, that is on the
        residues of `nums` mod M's denominator."""
        ext = self.picard.ext
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
    fan = ext.fan
    sigma = fan.fractional_coordinates(vector)[0]
    support = ext.generators_in_cone(sigma)
    # numerators over the den of one maximal cone around sigma, shared by all
    target = fan.cone_numerators(sigma, vector)[0]
    columns = [fan.cone_numerators(sigma, ext.generators[i])[0] for i in support]

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
        # den times d_v = n_vec - (b's fractional coordinates), and its pairings
        fracs, den = over_lcm(b.fractional)
        rel = [x * den for x in n_vec]
        for i, f in zip(b.min_cone, fracs):
            rel[i] -= f
        t_nums = data.pairing_p(rel)
        nums = mori.pairing_nums(t_nums)
        if not mori.in_k(nums, den):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in K")
        t = tuple(Fraction(x, den) for x in t_nums)
        if not mori.in_ne(t):
            raise PicardError(f"d_v for box element {list(b.vector)} is not in NE^e")
        nums = tuple(x // den for x in nums)  # exact: t is integral
        v_back = mori.v_of(nums)
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
            "d_pairings": mori.d_pairings(nums),
        })
    return table
