"""Normal-ordered operator algebra in (z, chi) and its z = chi = 0 degeneration.

Operators are finite sums  c * chi^beta * z^k * theta^s * del^t * E^u  with
theta_a = z chi_a d/dchi_a (a = 1..r), del_b = z d/dchi_{r+b} (b = 1..e) and
E = z^2 d/dz. Products are computed through the commutation rules

    [theta_a, chi_a] = z chi_a      [del_b, chi_{r+b}] = z
    [E, z^k] = k z^{k+1}            [E, theta_a] = z theta_a
    [E, del_b] = z del_b

which pin the normal order "functions left, derivations right".

The FL-GKZ operators of the lambda chart live in the same algebra with r = 0
and e = n: lambda_i is chi(0, n, i), z d/dlambda_i is dell(0, n, i) and
z lambda_i d/dlambda_i is theta(0, n, i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import (
    GradedQuotientRing,
    Poly,
    add_term,
    cone_lattice_groebner,
    poly_mul,
    quotient_ring,
)
from .fan import generalized_primitive_collections
from .linalg import solve_general
from .picard import ExtendedPicardData, PicardError, distinguished_relations, min_decomposition


class OperatorError(ValueError):
    pass


Key = tuple  # (beta: tuple[int r+e], k: int, s: tuple[int r], t: tuple[int e], u: int)


@dataclass(frozen=True)
class LogDiffOp:
    r: int
    e: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {k: Fraction(c) for k, c in self.terms.items() if c})

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(r, e) -> "LogDiffOp":
        return LogDiffOp(r, e, {})

    @staticmethod
    def one(r, e) -> "LogDiffOp":
        return LogDiffOp(r, e, {_key0(r, e): Fraction(1)})

    @staticmethod
    def chi(r, e, a, power=1) -> "LogDiffOp":
        beta = tuple(power if i == a else 0 for i in range(r + e))
        return LogDiffOp(r, e, {(beta, 0, (0,) * r, (0,) * e, 0): Fraction(1)})

    @staticmethod
    def z(r, e, power=1) -> "LogDiffOp":
        return LogDiffOp(r, e, {((0,) * (r + e), power, (0,) * r, (0,) * e, 0): Fraction(1)})

    @staticmethod
    def theta(r, e, a) -> "LogDiffOp":
        """z chi_a d/dchi_a for a < r; chi_a * del for a >= r (same operator)."""
        if a < r:
            s = tuple(int(i == a) for i in range(r))
            return LogDiffOp(r, e, {((0,) * (r + e), 0, s, (0,) * e, 0): Fraction(1)})
        beta = tuple(int(i == a) for i in range(r + e))
        t = tuple(int(i == a - r) for i in range(e))
        return LogDiffOp(r, e, {(beta, 0, (0,) * r, t, 0): Fraction(1)})

    @staticmethod
    def dell(r, e, b) -> "LogDiffOp":
        """z d/dchi_{r+b} for b in 0..e-1."""
        t = tuple(int(i == b) for i in range(e))
        return LogDiffOp(r, e, {((0,) * (r + e), 0, (0,) * r, t, 0): Fraction(1)})

    @staticmethod
    def euler_z(r, e) -> "LogDiffOp":
        """E = z^2 d/dz."""
        return LogDiffOp(r, e, {((0,) * (r + e), 0, (0,) * r, (0,) * e, 1): Fraction(1)})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LogDiffOp":
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return LogDiffOp(self.r, self.e, out)

    def __sub__(self, other) -> "LogDiffOp":
        return self + other.scale(-1)

    def scale(self, c) -> "LogDiffOp":
        c = Fraction(c)
        return LogDiffOp(self.r, self.e, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other) -> "LogDiffOp":
        if (self.r, self.e) != (other.r, other.e):
            raise OperatorError("operator shape mismatch")
        out: dict = {}
        for (beta, k, s, t, u), c in self.terms.items():
            moved = dict(other.terms)
            for _ in range(u):
                moved = _mul_e(self.r, self.e, moved)
            for b in range(self.e):
                for _ in range(t[b]):
                    moved = _mul_del(self.r, self.e, moved, b)
            for a in range(self.r):
                for _ in range(s[a]):
                    moved = _mul_theta(self.r, self.e, moved, a)
            for key2, c2 in moved.items():
                beta2, k2, s2, t2, u2 = key2
                nk = (tuple(x + y for x, y in zip(beta, beta2)), k + k2, s2, t2, u2)
                add_term(out, nk, c * c2)
        return LogDiffOp(self.r, self.e, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogDiffOp) and self.r == other.r
                and self.e == other.e and self.terms == other.terms)

    def __hash__(self):
        return hash((self.r, self.e, tuple(sorted(self.terms.items()))))

    # -- views ----------------------------------------------------------------

    def order(self) -> int:
        return max((sum(s) + sum(t) + u for (_, _, s, t, u) in self.terms), default=0)

    def term_list(self):
        """Deterministic serialization: sorted (coeff, beta, k, s, t, u)."""
        out = []
        for (beta, k, s, t, u) in sorted(self.terms):
            out.append({
                "coefficient": self.terms[(beta, k, s, t, u)],
                "chi_exponents": list(beta),
                "z_power": k,
                "theta_exponents": list(s),
                "del_exponents": list(t),
                "z2dz_power": u,
            })
        return out


def _key0(r, e) -> Key:
    return ((0,) * (r + e), 0, (0,) * r, (0,) * e, 0)


def _mul_theta(r, e, terms, a):
    """theta_a * (normal-ordered terms) in normal order."""
    out: dict = {}

    for (beta, k, s, t, u), c in terms.items():
        s2 = tuple(x + int(i == a) for i, x in enumerate(s))
        add_term(out, (beta, k, s2, t, u), c)
        if beta[a]:
            add_term(out, (beta, k + 1, s, t, u), c * beta[a])
    return out


def _mul_del(r, e, terms, b):
    """del_b * (normal-ordered terms) in normal order."""
    out: dict = {}

    for (beta, k, s, t, u), c in terms.items():
        t2 = tuple(x + int(i == b) for i, x in enumerate(t))
        add_term(out, (beta, k, s, t2, u), c)
        if beta[r + b]:
            beta2 = tuple(x - int(i == r + b) for i, x in enumerate(beta))
            add_term(out, (beta2, k + 1, s, t, u), c * beta[r + b])
    return out


def _mul_e(r, e, terms):
    """E * (normal-ordered terms) in normal order."""
    out: dict = {}

    for (beta, k, s, t, u), c in terms.items():
        add_term(out, (beta, k, s, t, u + 1), c)
        shift = k + sum(s) + sum(t)
        if shift:
            add_term(out, (beta, k + 1, s, t, u), c * shift)
    return out


# -- lambda-chart FL-GKZ operators (r = 0, e = n) ------------------------------


def box_hat(n, l) -> LogDiffOp:
    """FL-GKZ box operator: prod_{l_i<0} (z dl_i)^{-l_i} - prod_{l_i>0} (z dl_i)^{l_i}."""
    neg = LogDiffOp.one(0, n)
    pos = LogDiffOp.one(0, n)
    for i, li in enumerate(l):
        if li < 0:
            for _ in range(-li):
                neg = neg * LogDiffOp.dell(0, n, i)
        elif li > 0:
            for _ in range(li):
                pos = pos * LogDiffOp.dell(0, n, i)
    return neg - pos


def euler_hat(n) -> LogDiffOp:
    """E-hat = z^2 dz + sum_i z lambda_i dlambda_i."""
    out = LogDiffOp.euler_z(0, n)
    for i in range(n):
        out = out + LogDiffOp.theta(0, n, i)
    return out


def euler_hat_k(n, a_row) -> LogDiffOp:
    """E-hat_k = sum_i a_{ki} z lambda_i dlambda_i."""
    out = LogDiffOp.zero(0, n)
    for i, coeff in enumerate(a_row):
        if coeff:
            out = out + LogDiffOp.theta(0, n, i).scale(coeff)
    return out


# -- pulled-back operators in the chi chart -------------------------------------


def script_d(data: ExtendedPicardData, i) -> LogDiffOp:
    """The operator D_i of the chart: sum_a m_{ia} z chi_a dchi_a for rays,
    z dchi_{i-m+r} for extension indices."""
    if i < data.ext.m:
        return script_d_tilde(data, i)
    return LogDiffOp.dell(data.r, data.e, i - data.ext.m)


def script_d_tilde(data: ExtendedPicardData, i) -> LogDiffOp:
    """sum_a m_{ia} z chi_a dchi_a for every i (the box-tilde building block)."""
    r, e = data.r, data.e
    out = LogDiffOp.zero(r, e)
    for a in range(r + e):
        coeff = data.m_matrix[i][a]
        if coeff:
            out = out + LogDiffOp.theta(r, e, a).scale(coeff)
    return out


def p_pairings(data: ExtendedPicardData, l) -> tuple[int, ...]:
    """p_a(l) for an integer relation vector l in Z^n."""
    from .picard import _l_coords

    coords = _l_coords(data.ext, [Fraction(x) for x in l])
    vals = data.pairing_p(coords)
    out = []
    for v in vals:
        if v.denominator != 1:
            raise OperatorError("p-pairing of a lattice relation is not integral")
        out.append(int(v))
    return tuple(out)


def _falling_product(base: LogDiffOp, count: int) -> LogDiffOp:
    """prod_{nu=0}^{count-1} (base - nu z)."""
    r, e = base.r, base.e
    out = LogDiffOp.one(r, e)
    for nu in range(count):
        out = out * (base - LogDiffOp.z(r, e).scale(nu))
    return out


def box_tilde(data: ExtendedPicardData, l) -> LogDiffOp:
    """The pulled-back GKZ box operator in the (chi, z) chart."""
    r, e = data.r, data.e
    p_of_l = p_pairings(data, l)
    ext = data.ext

    def half(sign):
        out = LogDiffOp.one(r, e)
        for a in range(r + e):
            power = sign * p_of_l[a]
            if power > 0:
                out = out * LogDiffOp.chi(r, e, a, power)
        for i in range(ext.n):
            li = sign * (-l[i])
            if li > 0:
                out = out * _falling_product(script_d_tilde(data, i), li)
        return out

    return half(+1) - half(-1)


def box_x(data: ExtendedPicardData, l, verify: bool = True) -> LogDiffOp:
    """Box^X_l: chi-prefactors only over a <= r, extension derivations factored out.

    Within each term the extension factors D_i^{|l_i|} (i > m) multiply on the
    left of the ray factors; this ordering makes the factorization
    box_tilde(l) = prod_k chi_{r+k}^{|l_{m+k}|} * box_x(l) an exact operator
    identity for every l in L, which is re-verified at construction.
    """
    r, e = data.r, data.e
    p_of_l = p_pairings(data, l)
    ext = data.ext

    def half(sign):
        out = LogDiffOp.one(r, e)
        for a in range(r):
            power = sign * p_of_l[a]
            if power > 0:
                out = out * LogDiffOp.chi(r, e, a, power)
        for i in range(ext.m, ext.n):
            li = sign * (-l[i])
            if li > 0:
                for _ in range(li):
                    out = out * script_d(data, i)
        for i in range(ext.m):
            li = sign * (-l[i])
            if li > 0:
                out = out * _falling_product(script_d(data, i), li)
        return out

    op = half(+1) - half(-1)
    if verify and e:
        lhs = box_tilde(data, l)
        if lhs != chi_prefactor_for_factorization(data, l) * op:
            raise OperatorError(f"factorization identity failed for relation {list(l)}")
    return op


def euler_check(data: ExtendedPicardData) -> LogDiffOp:
    """E-check = z^2 dz + sum_a sum_i m_{ia} z chi_a dchi_a."""
    r, e = data.r, data.e
    out = LogDiffOp.euler_z(r, e)
    for a in range(r + e):
        coeff = sum((data.m_matrix[i][a] for i in range(data.ext.n)), Fraction(0))
        if coeff:
            out = out + LogDiffOp.theta(r, e, a).scale(coeff)
    return out


def chi_prefactor_for_factorization(data: ExtendedPicardData, l) -> LogDiffOp:
    """prod_{k} chi_{r+k}^{|l_{m+k}|}."""
    r, e = data.r, data.e
    out = LogDiffOp.one(r, e)
    for k in range(e):
        power = abs(l[data.ext.m + k])
        if power:
            out = out * LogDiffOp.chi(r, e, r + k, power)
    return out


def factorization_residual(data: ExtendedPicardData, l) -> LogDiffOp:
    """box_tilde(l) - prod chi^{|l|} * box_x(l); zero exactly when the lemma holds."""
    return (box_tilde(data, l)
            - chi_prefactor_for_factorization(data, l) * box_x(data, l, verify=False))


# -- degeneration, residue algebra, symbols --------------------------------------


def degenerate_limit(op: LogDiffOp) -> LogDiffOp:
    """The operator's class at z = chi = 0 (z^2 dz vanishes there).

    Keeps exactly the terms with no chi or z coefficient and no z^2 dz factor;
    inside ray operators this drops the a > r pieces, producing the bold-D's.
    """
    kept = {key: c for key, c in op.terms.items()
            if not any(key[0]) and key[1] == 0 and key[4] == 0}
    return LogDiffOp(op.r, op.e, kept)


def limit_poly(op: LogDiffOp) -> Poly:
    """degenerate_limit(op) as a commutative polynomial in r+e generators."""
    lim = degenerate_limit(op)
    out: Poly = {}
    for (beta, k, s, t, u), c in lim.terms.items():
        add_term(out, tuple(s) + tuple(t), c)
    return out


def full_symbol(op: LogDiffOp) -> dict:
    """Top-order part of the operator as a commutative polynomial.

    Keys are full (beta, k, s, t, u) tuples; the grading counts every
    derivation generator (theta, del and z^2 dz) once.
    """
    if not op.terms:
        return {}
    top = op.order()
    return {key: c for key, c in op.terms.items()
            if sum(key[2]) + sum(key[3]) + key[4] == top}


def symbol_mul(r, e, sa: dict, sb: dict) -> dict:
    out: dict = {}
    for (b1, k1, s1, t1, u1), c1 in sa.items():
        for (b2, k2, s2, t2, u2), c2 in sb.items():
            key = (tuple(x + y for x, y in zip(b1, b2)), k1 + k2,
                   tuple(x + y for x, y in zip(s1, s2)),
                   tuple(x + y for x, y in zip(t1, t2)), u1 + u2)
            add_term(out, key, c1 * c2)
    return out


def symbol_at_origin(op: LogDiffOp) -> Poly:
    """sigma(op) evaluated at z = chi = 0, in the r+e symbol variables."""
    out: Poly = {}
    for (beta, k, s, t, u), c in full_symbol(op).items():
        if any(beta) or k or u:
            continue
        add_term(out, tuple(s) + tuple(t), c)
    return out


def primitive_relation(data: ExtendedPicardData, collection) -> tuple[int, ...]:
    """l_I for a generalized primitive collection: indicator(I) minus the
    lexicographically smallest N-decomposition of sum_{i in I} a_i on sigma_I."""
    ext = data.ext
    total = tuple(sum(ext.generators[i][k] for i in collection) for k in range(ext.d))
    dec = min_decomposition(ext, total)
    if dec is None:
        raise OperatorError(f"no N-decomposition of {list(total)} on its minimal cone")
    return tuple(int(i in collection) - dec[i] for i in range(ext.n))


def operator_families(data: ExtendedPicardData) -> dict:
    """The three relation families the degeneration arguments use."""
    ext = data.ext
    basis = [tuple(v) for v in ext.l_basis]
    cone_rels = []
    seen = set()
    for cone in ext.fan.max_cones:
        _, vectors = cone_lattice_groebner(ext, cone)
        for v in vectors:
            if v not in seen:
                seen.add(v)
                cone_rels.append(v)
    prims = [primitive_relation(data, c) for c in generalized_primitive_collections(ext)]
    return {"l_basis": basis, "cone": cone_rels, "primitive": prims}


def _family_union(families: dict):
    """The families' relation vectors, deduplicated in first-occurrence order."""
    return list(dict.fromkeys(v for rels in families.values() for v in rels))


def _limit_variable_names_degrees(data: ExtendedPicardData):
    names = tuple(f"t{a + 1}" for a in range(data.r)) + tuple(
        f"u{k + 1}" for k in range(data.e)
    )
    degrees = tuple(Fraction(1) for _ in range(data.r)) + tuple(
        data.ext.degree(data.ext.m + k) for k in range(data.e)
    )
    return names, degrees


def residue_algebra(data: ExtendedPicardData, box_ops) -> GradedQuotientRing:
    """Commutative algebra cut out by the z = chi = 0 limits of the box operators.

    `box_ops` are the box_x operators of the relation families, in
    `_family_union` order. Presented on the r+e limit generators (theta_a for
    a <= r, del_k); the classes bold-D_i are polynomials in these.
    """
    polys = [p for p in map(limit_poly, box_ops) if p]
    names, degrees = _limit_variable_names_degrees(data)
    return quotient_ring(names, degrees, {"box_limits": polys})


def bold_d_poly(data: ExtendedPicardData, i) -> Poly:
    """bold-D_i as a polynomial in the r+e limit generators."""
    r, e = data.r, data.e
    if i < data.ext.m:
        out: Poly = {}
        for a in range(r):
            coeff = data.m_matrix[i][a]
            if coeff:
                out[tuple(int(j == a) for j in range(r + e))] = Fraction(coeff)
        return out
    k = i - data.ext.m
    return {tuple(int(j == r + k) for j in range(r + e)): Fraction(1)}


def residue_map_well_defined(data: ExtendedPicardData, hring: GradedQuotientRing,
                             rring: GradedQuotientRing) -> bool:
    """Check D_i -> bold-D_i sends every H*-ideal generator to zero."""
    subs = [bold_d_poly(data, i) for i in range(data.ext.n)]
    for fam in hring.generators.values():
        for g in fam:
            image: Poly = {}
            for mono, c in g.items():
                term: Poly = {tuple(0 for _ in range(rring.nvars)): Fraction(c)}
                for i, power in enumerate(mono):
                    for _ in range(power):
                        term = poly_mul(term, subs[i])
                for m2, c2 in term.items():
                    add_term(image, m2, c2)
            if any(rring.nf(image).values()):
                return False
    return True


def symbol_fiber_dimension(data: ExtendedPicardData, box_ops):
    """Dimension of Q[xi]/(symbols of the box operators at z = chi = 0).

    `box_ops` are as for `residue_algebra`. Returns an int, or the string
    "infinite". Includes the Euler symbol relations (which vanish identically
    in these generators).
    """
    polys = [p for p in map(symbol_at_origin, box_ops) if p]
    gens = {"box_symbols": polys}
    euler_polys = []
    for k in range(data.ext.d):
        poly: Poly = {}
        for i in range(data.ext.m):
            coeff = data.ext.fan.rays[i][k]
            if coeff:
                for mono, c in bold_d_poly(data, i).items():
                    add_term(poly, mono, coeff * c)
        if poly:
            euler_polys.append(poly)
    gens["euler"] = euler_polys
    names, degrees = _limit_variable_names_degrees(data)
    ring = quotient_ring(names, degrees, gens)
    return ring.dim if ring.finite else "infinite"


# -- cohomology bridge and unfolding conditions ----------------------------------


def pbar_class(data: ExtendedPicardData, ring: GradedQuotientRing, a: int):
    """Untwisted H^2 class of p_a (a < r) via a PL lift truncated to the rays."""
    ext = data.ext
    rows = [list(rel) for rel in distinguished_relations(ext)]
    rhs = [Fraction(0)] * len(rows)
    for j, l in enumerate(ext.l_basis):
        rows.append([Fraction(x) for x in l])
        rhs.append(Fraction(data.p_basis[a][j]))
    sol = solve_general(rows, rhs)
    if sol is None:
        raise PicardError(f"p_{a + 1} has no PL lift")
    x, _null = sol
    poly: Poly = {}
    for i in range(ext.m):
        if x[i]:
            poly[tuple(int(j == i) for j in range(ext.n))] = Fraction(x[i])
    return ring.class_of(poly) if poly else ring.zero_class()


def dbar_class(data: ExtendedPicardData, ring: GradedQuotientRing, i: int):
    """Untwisted divisor class of D_i for a ray index (zero for extensions)."""
    if i < data.ext.m:
        return ring.class_of_var(i)
    return ring.zero_class()


def rho_bar_class(data: ExtendedPicardData, ring: GradedQuotientRing):
    """rho-bar = sum of the ray divisor classes (the anticanonical class)."""
    poly = {tuple(int(j == i) for j in range(data.ext.n)): Fraction(1)
            for i in range(data.ext.m)}
    return ring.class_of(poly)


def sector_class(data: ExtendedPicardData, ring: GradedQuotientRing, v):
    """1_{v}: the box element's class as the monomial of its smallest
    N-decomposition in the D_i (the unit class for v = 0)."""
    if all(b.vector != v for b in data.ext.box):
        raise OperatorError(f"{list(v)} is not a box element")
    mono = min_decomposition(data.ext, v)
    if mono is None:
        raise OperatorError(f"box element {list(v)} has no N-decomposition")
    return ring.class_of({mono: Fraction(1)})


def generator_classes(data: ExtendedPicardData, ring: GradedQuotientRing):
    """The r+e classes acting as the log-derivation directions at the origin."""
    out = [pbar_class(data, ring, a) for a in range(data.r)]
    for k in range(data.e):
        out.append(ring.class_of_var(data.ext.m + k))
    return out


def check_unfolding_conditions(data: ExtendedPicardData, ring: GradedQuotientRing) -> dict:
    """(IC) injectivity, (GC) generation, (EC) eigenvector, for the section 1."""
    from .cohomology import _rank

    gens = generator_classes(data, ring)
    ic = _rank([list(g) for g in gens]) == len(gens)
    span = [ring.one()]
    rank = 1
    frontier = [ring.one()]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = ring.mul(g, v)
                if _rank([list(x) for x in span + [w]]) > rank:
                    span.append(w)
                    rank += 1
                    new.append(w)
        frontier = new
    gc = rank == ring.dim
    ec = ring.class_degree(ring.one()) == 0
    return {"IC": ic, "GC": gc, "EC": ec}
