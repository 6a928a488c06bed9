"""Normal-ordered operator algebra in (z, chi) and its z = chi = 0 degeneration.

Operators are finite sums  c * chi^beta * z^k * theta^s * del^t * E^u  with
theta_a = z chi_a d/dchi_a (a = 1..r), del_b = z d/dchi_{r+b} (b = 1..e) and
E = z^2 d/dz. Products are computed through the commutation rules

    [theta_a, chi_a] = z chi_a      [del_b, chi_{r+b}] = z
    [E, z^k] = k z^{k+1}            [E, theta_a] = z theta_a
    [E, del_b] = z del_b

which pin the normal order "functions left, derivations right". An operator
keeps int numerators over one denominator, so products and sums of operators
are int arithmetic; `terms` and `term_list` give the coefficients as
Fractions, which reports print as "num/den" strings.

The FL-GKZ operators of the lambda chart live in the same algebra with r = 0
and e = n: lambda_i is chi(0, n, i), z d/dlambda_i is dell(0, n, i) and
z lambda_i d/dlambda_i is theta(0, n, i).

`box_x` checks the factorization box_tilde(l) = prod_k chi_{r+k}^{|l_{m+k}|} *
box_x(l) once for each operator it builds, through `factorization_residual`,
and raises OperatorError naming the relation when it fails. For e = 0 the two
sides are the same product, so the check is skipped there. Each half of both
sides holds the same product of ray falling products (`ray_products`), built
once per relation and shared by the operator and its check. Each chi/del
prefactor is one normal-ordered term (`_monomial`); box_tilde's extension
factors, falling products of theta_{r+k} = D~_{m+k}, multiply on the left of
the ray product, with which they commute. The exponents p_a(l) are N l, read
off the fan's splitting with no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .cohomology import (
    GradedQuotientRing,
    Poly,
    add_term,
    binomial_relation_vectors,
    poly_mul,
    quotient_ring,
)
from .linalg import over_lcm, rank
from .picard import ExtendedPicardData, min_decomposition


class OperatorError(ValueError):
    pass


Key = tuple  # (beta: tuple[int r+e], k: int, s: tuple[int r], t: tuple[int e], u: int)


@dataclass(frozen=True)
class LogDiffOp:
    """A normal-ordered operator: int numerators `nums` of its terms over one
    positive denominator `den`, with gcd 1 and no zero numerator, so equal
    operators are equal. Coefficients may be given as ints or Fractions;
    `terms` is the Fraction view."""

    r: int
    e: int
    nums: dict = field(default_factory=dict)
    den: int = 1

    def __post_init__(self):
        nums, den = self.nums, self.den
        if any(type(c) is not int for c in nums.values()):
            values, scale = over_lcm(nums.values())
            nums = dict(zip(nums, values))
            den *= scale
        nums = {k: c for k, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def terms(self) -> dict:
        return {k: Fraction(c, self.den) for k, c in self.nums.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(r, e) -> "LogDiffOp":
        return LogDiffOp(r, e, {})

    @staticmethod
    def one(r, e) -> "LogDiffOp":
        return LogDiffOp(r, e, {_key0(r, e): 1})

    @staticmethod
    def chi(r, e, a, power=1) -> "LogDiffOp":
        beta = tuple(power if i == a else 0 for i in range(r + e))
        return LogDiffOp(r, e, {(beta, 0, (0,) * r, (0,) * e, 0): 1})

    @staticmethod
    def z(r, e, power=1) -> "LogDiffOp":
        return LogDiffOp(r, e, {((0,) * (r + e), power, (0,) * r, (0,) * e, 0): 1})

    @staticmethod
    def theta(r, e, a) -> "LogDiffOp":
        """z chi_a d/dchi_a for a < r; chi_a * del for a >= r (same operator)."""
        if a < r:
            s = tuple(int(i == a) for i in range(r))
            return LogDiffOp(r, e, {((0,) * (r + e), 0, s, (0,) * e, 0): 1})
        beta = tuple(int(i == a) for i in range(r + e))
        t = tuple(int(i == a - r) for i in range(e))
        return LogDiffOp(r, e, {(beta, 0, (0,) * r, t, 0): 1})

    @staticmethod
    def dell(r, e, b) -> "LogDiffOp":
        """z d/dchi_{r+b} for b in 0..e-1."""
        t = tuple(int(i == b) for i in range(e))
        return LogDiffOp(r, e, {((0,) * (r + e), 0, (0,) * r, t, 0): 1})

    @staticmethod
    def euler_z(r, e) -> "LogDiffOp":
        """E = z^2 d/dz."""
        return LogDiffOp(r, e, {((0,) * (r + e), 0, (0,) * r, (0,) * e, 1): 1})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LogDiffOp":
        den = lcm(self.den, other.den)
        out = {k: c * (den // self.den) for k, c in self.nums.items()}
        scale = den // other.den
        for k, c in other.nums.items():
            add_term(out, k, c * scale)
        return LogDiffOp(self.r, self.e, out, den)

    def __sub__(self, other) -> "LogDiffOp":
        return self + other.scale(-1)

    def scale(self, c) -> "LogDiffOp":
        """c * self for an int or Fraction c."""
        return LogDiffOp(self.r, self.e, {k: v * c.numerator for k, v in self.nums.items()},
                         self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.nums

    def __mul__(self, other) -> "LogDiffOp":
        if (self.r, self.e) != (other.r, other.e):
            raise OperatorError("operator shape mismatch")
        r, e = self.r, self.e

        def move(terms, kind, i):
            if kind == "theta":
                return _mul_theta(r, e, terms, i)
            if kind == "del":
                return _mul_del(r, e, terms, i)
            return _mul_e(r, e, terms)

        # theta^s del^t E^u * other for each (s, t, u) of self, shared by its terms
        moved = {((0,) * r, (0,) * e, 0): other.nums}
        out: dict = {}
        for (beta, k, s, t, u), c in self.nums.items():
            for (beta2, k2, s2, t2, u2), c2 in chained_action(moved, (s, t, u), move).items():
                nk = (tuple(map(add, beta, beta2)), k + k2, s2, t2, u2)
                add_term(out, nk, c * c2)
        return LogDiffOp(r, e, out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogDiffOp) and self.r == other.r and self.e == other.e
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.r, self.e, self.den, tuple(sorted(self.nums.items()))))

    # -- views ----------------------------------------------------------------

    def order(self) -> int:
        return max((sum(s) + sum(t) + u for (_, _, s, t, u) in self.nums), default=0)

    def term_list(self):
        """Deterministic serialization: sorted (coeff, beta, k, s, t, u)."""
        out = []
        for (beta, k, s, t, u) in sorted(self.nums):
            out.append({
                "coefficient": Fraction(self.nums[(beta, k, s, t, u)], self.den),
                "chi_exponents": list(beta),
                "z_power": k,
                "theta_exponents": list(s),
                "del_exponents": list(t),
                "z2dz_power": u,
            })
        return out


def _key0(r, e) -> Key:
    return ((0,) * (r + e), 0, (0,) * r, (0,) * e, 0)


def chained_action(memo: dict, key, step):
    """memo[key] for key = (s, t, u): theta^s del^t E^u applied to memo's
    start value (kept under the zero key) one factor at a time, E^u first,
    then del_b^{t_b} for b = 0, 1, .., then theta_a^{s_a} for a = 0, 1, ...

    A missing entry is built from its prefix, the key less its last factor,
    by one call step(value, kind, index) with kind "e", "del" or "theta"; so
    keys that share a prefix share its work.
    """
    value = memo.get(key)
    if value is None:
        s, t, u = key
        if any(s):
            a = max(i for i, x in enumerate(s) if x)
            prefix, kind, index = (_lowered(s, a), t, u), "theta", a
        elif any(t):
            b = max(i for i, x in enumerate(t) if x)
            prefix, kind, index = (s, _lowered(t, b), u), "del", b
        else:
            prefix, kind, index = (s, t, u - 1), "e", None
        value = memo[key] = step(chained_action(memo, prefix, step), kind, index)
    return value


def _lowered(exponents, i):
    return exponents[:i] + (exponents[i] - 1,) + exponents[i + 1:]


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


# -- pulled-back operators in the chi chart -------------------------------------


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
    """p_a(l) for an integer relation vector l in L: N l, an integer vector."""
    if any(sum(g[k] * x for g, x in zip(data.ext.generators, l)) for k in range(data.ext.d)):
        raise OperatorError(f"{list(l)} is not a relation of the generators")
    return data.pairing_p(l)


def _monomial(r, e, beta, t) -> LogDiffOp:
    """chi^beta del^t, a single term already in normal order."""
    return LogDiffOp(r, e, {(tuple(beta), 0, (0,) * r, tuple(t), 0): 1})


def _falling_product(base: LogDiffOp, count: int) -> LogDiffOp:
    """prod_{nu=0}^{count-1} (base - nu z)."""
    r, e = base.r, base.e
    out = LogDiffOp.one(r, e)
    for nu in range(count):
        out = out * (base - LogDiffOp.z(r, e).scale(nu))
    return out


def ray_products(data: ExtendedPicardData, l) -> tuple[LogDiffOp, LogDiffOp]:
    """(R+, R-), the ray part of the two halves of box_x(l) and of box_tilde(l):
    R+ is the product over the rays i < m with l_i < 0, and R- over those with
    l_i > 0, of prod_{nu=0}^{|l_i|-1} (D_i - nu z)."""
    r, e = data.r, data.e

    def product(sign):
        out = LogDiffOp.one(r, e)
        for i in range(data.ext.m):
            li = sign * (-l[i])
            if li > 0:
                out = out * _falling_product(script_d_tilde(data, i), li)
        return out

    return product(+1), product(-1)


def box_tilde(data: ExtendedPicardData, l, rays) -> LogDiffOp:
    """The pulled-back GKZ box operator in the (chi, z) chart; `rays` is
    `ray_products(data, l)`.

    Each half is chi^{p(l)} times the extension falling products times the
    ray product. D~_{m+k} = theta_{r+k}, as m_{m+k,a} = delta_{r+k,a}, and the
    extension factors commute with the ray product, so they multiply on its
    left."""
    r, e, m = data.r, data.e, data.ext.m
    p_of_l = p_pairings(data, l)

    def half(sign, ray):
        out = _monomial(r, e, [max(sign * p, 0) for p in p_of_l], (0,) * e)
        for k in range(e):
            lk = sign * -l[m + k]
            if lk > 0:
                out = out * _falling_product(LogDiffOp.theta(r, e, r + k), lk)
        return out * ray

    return half(+1, rays[0]) - half(-1, rays[1])


def box_x(data: ExtendedPicardData, l) -> LogDiffOp:
    """Box^X_l: chi-prefactors only over a <= r, extension derivations factored out.

    Each half is the monomial chi^{p(l)} del^{|l_ext|} on the left of its ray
    product; this ordering makes the factorization
    box_tilde(l) = prod_k chi_{r+k}^{|l_{m+k}|} * box_x(l) an exact operator
    identity for every l in L. It is checked here, once per operator, when
    e > 0 (for e = 0 both sides are the same product); both sides read the
    one `ray_products(data, l)`.
    """
    r, e, m = data.r, data.e, data.ext.m
    p_of_l = p_pairings(data, l)
    rays = ray_products(data, l)

    def half(sign, ray):
        beta = [max(sign * p, 0) for p in p_of_l[:r]] + [0] * e
        return _monomial(r, e, beta, [max(sign * -x, 0) for x in l[m:]]) * ray

    op = half(+1, rays[0]) - half(-1, rays[1])
    if e and not factorization_residual(data, l, op, rays).is_zero():
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


def factorization_residual(data: ExtendedPicardData, l, op: LogDiffOp, rays) -> LogDiffOp:
    """box_tilde(l) - prod_k chi_{r+k}^{|l_{m+k}|} * op for op = box_x(l), with
    `rays` as for `box_tilde`; zero exactly when the lemma holds."""
    r, e = data.r, data.e
    prefactor = _monomial(r, e, [0] * r + [abs(x) for x in l[data.ext.m:]], (0,) * e)
    return box_tilde(data, l, rays) - prefactor * op


# -- degeneration, residue algebra, symbols --------------------------------------


def degenerate_limit(op: LogDiffOp) -> LogDiffOp:
    """The operator's class at z = chi = 0 (z^2 dz vanishes there).

    Keeps exactly the terms with no chi or z coefficient and no z^2 dz factor;
    inside ray operators this drops the a > r pieces, producing the bold-D's.
    """
    kept = {key: c for key, c in op.nums.items()
            if not any(key[0]) and key[1] == 0 and key[4] == 0}
    return LogDiffOp(op.r, op.e, kept, op.den)


def limit_poly(op: LogDiffOp) -> Poly:
    """degenerate_limit(op) as a commutative polynomial in r+e generators."""
    lim = degenerate_limit(op)
    out: Poly = {}
    for (beta, k, s, t, u), c in lim.terms.items():
        add_term(out, tuple(s) + tuple(t), c)
    return out


def symbol_at_origin(op: LogDiffOp) -> Poly:
    """sigma(op) evaluated at z = chi = 0, in the r+e symbol variables: the
    part of `limit_poly(op)` of degree op.order()."""
    top = op.order()
    return {mono: c for mono, c in limit_poly(op).items() if sum(mono) == top}


def primitive_relation(data: ExtendedPicardData, collection) -> tuple[int, ...]:
    """l_I for a generalized primitive collection: indicator(I) minus the
    lexicographically smallest N-decomposition of sum_{i in I} a_i on sigma_I."""
    ext = data.ext
    total = tuple(sum(ext.generators[i][k] for i in collection) for k in range(ext.d))
    dec = min_decomposition(ext, total)
    if dec is None:
        raise OperatorError(f"no N-decomposition of {list(total)} on its minimal cone")
    return tuple(int(i in collection) - dec[i] for i in range(ext.n))


def operator_families(data: ExtendedPicardData, ring: GradedQuotientRing) -> dict:
    """The three relation families the degeneration arguments use, read off
    `ring = presentation(data.ext)`: the cone relations are the exponent
    vectors of its cone binomials, and the primitive relations belong to the
    supports of its primitive-collection monomials."""
    collections = [tuple(i for i, x in enumerate(mono) if x)
                   for g in ring.generators["primitive"] for mono in g]
    return {"l_basis": list(data.ext.l_basis),
            "cone": binomial_relation_vectors(ring.generators["cone"]),
            "primitive": [primitive_relation(data, c) for c in collections]}


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
    "infinite". The Euler forms sum_{i<m} a_i^k bold-D_i are not among the
    generators, as they vanish identically: for a < r their t_a-coefficient is
    sum_{i<m} a_i^k m_{ia} = <sum_i a_i^k D_i, q_a> = 0, since m_{m+k,a} = 0
    and sum_i a_i^k D_i vanishes on L.
    """
    polys = [p for p in map(symbol_at_origin, box_ops) if p]
    names, degrees = _limit_variable_names_degrees(data)
    ring = quotient_ring(names, degrees, {"box_symbols": polys})
    return ring.dim if ring.finite else "infinite"


# -- cohomology bridge and unfolding conditions ----------------------------------


def pbar_class(data: ExtendedPicardData, ring: GradedQuotientRing, a: int):
    """Untwisted H^2 class of p_a (a < r): the ray part sum_{i<m} n_{ai} D_i
    of its PL lift p_a o s. p_a is orthogonal to the distinguished relations,
    so this lift differs from any other by a linear function, whose ray part
    is an Euler form."""
    n = data.ext.n
    poly = {tuple(int(j == i) for j in range(n)): Fraction(col[a])
            for i, col in enumerate(data.n_matrix[:data.ext.m]) if col[a]}
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
    gens = generator_classes(data, ring)
    ic = rank([g[0] for g in gens]) == len(gens)
    span = [ring.one()]  # kept linearly independent, so its rank is len(span)
    frontier = [ring.one()]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = ring.mul(g, v)
                if rank([u[0] for u in span] + [w[0]]) > len(span):
                    span.append(w)
                    new.append(w)
        frontier = new
    gc = len(span) == ring.dim
    ec = ring.class_degree(ring.one()) == 0
    return {"IC": ic, "GC": gc, "EC": ec}
