"""Graded quotient-ring presentations of orbifold cohomology.

A small exact multivariate polynomial engine (weighted grevlex Buchberger over
Fraction) drives everything: lattice-ideal saturation per maximal cone, the
global presentation, standard monomials, multiplication matrices and the
top-degree pairing. The rational grading is cleared to positive integer
weights for the monomial order, so standard monomials stay homogeneous.

Buchberger keeps its S-pairs in a heap keyed once, when each pair is made, by
the order key of the pair's lcm, and reduces in place. Each quotient ring
builds its Groebner lead triples and standard-monomial index once, and on its
first product a table of the reduced products of all pairs of standard
monomials, so a product of classes is a bilinear sum over that table.

A class is a canonical pair (nums, den): its int coordinates over the standard
monomials and one positive int denominator, with gcd 1, so equal classes are
equal tuples and products and sums of classes need no Fraction. The product
table holds ints over one ring denominator. Fractions remain in the
polynomial engine, which `class_of` reads, and in `class_vector`, the view
reports print as "num/den" strings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .fan import ExtendedStackyFan, generalized_primitive_collections
from .linalg import IntMatrix, kernel_basis, normalized_simplex_volume

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]
Class = tuple[tuple[int, ...], int]  # (numerators, denominator), canonical


class RingError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


STD_MONOMIAL_CAP = 200000


# -- monomial order ----------------------------------------------------------


class WeightedGrevlex:
    """Weighted degree first, grevlex tie-break, optional elimination block.

    With elim_block = k the first k exponents dominate (sum-lex), which makes
    the order eliminate those variables.
    """

    def __init__(self, weights, elim_block: int = 0):
        self.weights = tuple(int(w) for w in weights)
        self.elim = int(elim_block)
        if any(w <= 0 for w in self.weights):
            raise RingError("monomial order weights must be positive")

    def key(self, m: Mono):
        head = sum(m[: self.elim])
        tail = m[self.elim:]
        w = self.weights[self.elim:]
        deg = sum(e * wi for e, wi in zip(tail, w))
        return (head, deg, tuple(-e for e in reversed(tail)))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def add_term(out: dict, key, c) -> None:
    """out[key] += c in a sparse map, dropping the key when the sum is zero;
    int coefficients stay ints, Fraction ones Fractions."""
    nc = out.get(key, 0) + c
    if nc:
        out[key] = nc
    else:
        out.pop(key, None)


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            add_term(out, _mono_mul(m1, m2), c1 * c2)
    return out


def poly_const(nvars: int, c=1) -> Poly:
    return {tuple(0 for _ in range(nvars)): Fraction(c)}


def _lead(p: Poly, order: WeightedGrevlex) -> tuple[Mono, Fraction]:
    m = max(p, key=order.key)
    return m, p[m]


def normal_form(p: Poly, triples, order: WeightedGrevlex) -> Poly:
    """Full reduction of p modulo [(lead_mono, lead_coeff, poly), ...]."""
    rem: Poly = {}
    work = dict(p)
    while work:
        m, c = _lead(work, order)
        for lm, lc, g in triples:
            if _mono_divides(lm, m):
                factor = _mono_div(m, lm)
                ratio = c / lc
                for gm, gc in g.items():
                    add_term(work, _mono_mul(factor, gm), -gc * ratio)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def groebner_basis(gens, order: WeightedGrevlex) -> list[Poly]:
    """Reduced monic Groebner basis (Buchberger; coprime-lead criterion).

    Pairs wait in a heap keyed once, when the pair is made, by the order key
    of their lcm; the least lcm goes first (the normal strategy).
    """
    work = []
    for g in gens:
        g = {m: Fraction(c) for m, c in g.items() if c}
        if g:
            lm, lc = _lead(g, order)
            work.append((lm, lc, g))
    work.sort(key=lambda t: order.key(t[0]))
    pairs = []

    def push_pairs(j):
        lmj = work[j][0]
        for i in range(j):
            lmi = work[i][0]
            if any(a and b for a, b in zip(lmi, lmj)):
                heapq.heappush(pairs, (order.key(_mono_lcm(lmi, lmj)), i, j))

    for j in range(len(work)):
        push_pairs(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lmi, lci, gi = work[i]
        lmj, lcj, gj = work[j]
        lcm = _mono_lcm(lmi, lmj)
        s = {_mono_mul(_mono_div(lcm, lmi), m): c / lci for m, c in gi.items()}
        for m, c in gj.items():
            add_term(s, _mono_mul(_mono_div(lcm, lmj), m), -c / lcj)
        s = normal_form(s, work, order)
        if s:
            lm, lc = _lead(s, order)
            work.append((lm, lc, s))
            push_pairs(len(work) - 1)
    # Minimalize: drop elements whose lead is divisible by another lead.
    keep = []
    for idx, (lm, lc, g) in enumerate(work):
        if any(k != idx and _mono_divides(work[k][0], lm)
               and (work[k][0] != lm or k < idx) for k in range(len(work))):
            continue
        keep.append((lm, lc, g))
    # Inter-reduce tails and normalize monic.
    reduced = []
    for idx, (lm, lc, g) in enumerate(keep):
        others = [t for k, t in enumerate(keep) if k != idx]
        nf = normal_form(g, others, order)
        if nf:
            m, c = _lead(nf, order)
            reduced.append({mm: cc / c for mm, cc in nf.items()})
    reduced.sort(key=lambda g: order.key(_lead(g, order)[0]))
    return reduced


def lattice_ideal_groebner(relations, weights) -> list[Poly]:
    """Reduced GB of the saturated lattice ideal of the relation vectors.

    Saturation with respect to the product of all variables uses one auxiliary
    inverse variable (t * x_1..x_k - 1) under an elimination order; the
    t-free part is the lattice ideal (Rabinowitsch trick). On t-free monomials
    the elimination order's key is WeightedGrevlex(weights)'s, so that part
    already is the reduced basis, in order.
    """
    k = len(weights)
    rels = [tuple(int(x) for x in r) for r in relations if any(r)]
    if not rels:
        return []
    elim_order = WeightedGrevlex((1,) + tuple(weights), elim_block=1)
    gens = []
    for r in rels:
        plus = (0,) + tuple(max(x, 0) for x in r)
        minus = (0,) + tuple(max(-x, 0) for x in r)
        gens.append({plus: Fraction(1), minus: Fraction(-1)})
    gens.append({(1,) + tuple(1 for _ in range(k)): Fraction(1),
                 (0,) * (k + 1): Fraction(-1)})
    gb = groebner_basis(gens, elim_order)
    return [{m[1:]: c for m, c in g.items()} for g in gb if all(m[0] == 0 for m in g)]


def binomial_relation_vectors(polys) -> list[tuple[int, ...]]:
    """Lattice vector u of each pure-difference binomial x^{u+} - x^{u-}."""
    out = []
    for g in polys:
        if len(g) != 2:
            raise RingError("lattice ideal generator is not a binomial")
        (m1, c1), (m2, c2) = sorted(g.items())
        if c1 * c2 >= 0:
            raise RingError("lattice ideal generator is not a pure difference")
        if c1 < 0:
            m1, m2 = m2, m1
        out.append(tuple(a - b for a, b in zip(m1, m2)))
    return out


# -- classes: int numerators over one denominator ------------------------------


def reduced_class(nums, den: int) -> Class:
    """The canonical pair of the class nums / den, for ints and den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def class_pair(vec) -> Class:
    """The canonical pair of a vector of ints or Fractions."""
    den = lcm(*(x.denominator for x in vec))
    return reduced_class([x.numerator * (den // x.denominator) for x in vec], den)


def class_vector(cls: Class) -> tuple[Fraction, ...]:
    """The class as a vector of Fractions, as reports print it."""
    nums, den = cls
    return tuple(Fraction(x, den) for x in nums)


# -- the graded quotient ring -------------------------------------------------


@dataclass(frozen=True)
class GradedQuotientRing:
    var_names: tuple[str, ...]
    degrees: tuple[Fraction, ...]
    order: WeightedGrevlex = field(repr=False)
    generators: dict = field(repr=False)
    groebner: tuple = field(repr=False)
    std_monomials: tuple[Mono, ...]
    finite: bool

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def dim(self) -> int:
        if not self.finite:
            raise RingError("quotient ring is infinite-dimensional")
        return len(self.std_monomials)

    def mono_degree(self, m: Mono) -> Fraction:
        return sum((e * d for e, d in zip(m, self.degrees)), Fraction(0))

    def graded_dims(self) -> dict[Fraction, int]:
        out: dict[Fraction, int] = {}
        for m in self.std_monomials:
            q = self.mono_degree(m)
            out[q] = out.get(q, 0) + 1
        return dict(sorted(out.items()))

    @cached_property
    def _triples(self):
        return [(*_lead(g, self.order), g) for g in self.groebner]

    @cached_property
    def _index(self) -> dict[Mono, int]:
        return {m: i for i, m in enumerate(self.std_monomials)}

    @cached_property
    def _products(self):
        """(table, den): row i, column j of the table is class_of(m_i * m_j)
        of standard monomials as its nonzero (index, numerator) pairs, every
        numerator over the one ring denominator den; built on the ring's first
        product."""
        std = self.std_monomials
        classes = {}
        for i, a in enumerate(std):
            for j in range(i, len(std)):
                classes[i, j] = self.class_of({_mono_mul(a, std[j]): 1})
        den = lcm(*(d for _, d in classes.values()))
        table = [[()] * len(std) for _ in std]
        for (i, j), (nums, d) in classes.items():
            table[i][j] = table[j][i] = tuple(
                (k, c * (den // d)) for k, c in enumerate(nums) if c)
        return table, den

    def nf(self, p: Poly) -> Poly:
        return normal_form(p, self._triples, self.order)

    # classes are canonical (numerators, denominator) pairs over the standard
    # monomials (see `reduced_class`)

    def class_of(self, p: Poly) -> Class:
        if not self.finite:
            raise RingError("quotient ring is infinite-dimensional")
        vec = [Fraction(0)] * len(self.std_monomials)
        for m, c in self.nf(p).items():
            vec[self._index[m]] = c
        return class_pair(vec)

    def class_of_var(self, i: int) -> Class:
        return self.class_of({tuple(int(j == i) for j in range(self.nvars)): Fraction(1)})

    def one(self) -> Class:
        return self.class_of(poly_const(self.nvars))

    def zero_class(self) -> Class:
        return (0,) * len(self.std_monomials), 1

    def mul(self, u: Class, v: Class) -> Class:
        (a, da), (b, db) = u, v
        table, den = self._products
        out = [0] * len(a)
        for row, x in zip(table, a):
            if x:
                for entries, y in zip(row, b):
                    if y:
                        xy = x * y
                        for k, c in entries:
                            out[k] += xy * c
        return reduced_class(out, da * db * den)

    def class_degree(self, cls: Class) -> Fraction | None:
        degs = {self.mono_degree(m) for m, c in zip(self.std_monomials, cls[0]) if c}
        if not degs:
            return Fraction(0)
        return degs.pop() if len(degs) == 1 else None

    def multiplication_matrix(self, cls: Class) -> tuple[tuple[Fraction, ...], ...]:
        """Cup product by `cls` in the standard-monomial basis (columns = images)."""
        cols = [class_vector(self.mul(cls, self.class_of({m: Fraction(1)})))
                for m in self.std_monomials]
        return tuple(zip(*cols))

    def top_degree(self) -> Fraction:
        return max(self.mono_degree(m) for m in self.std_monomials)

    def top_pairing(self, u: Class, v: Class) -> Fraction:
        """Coefficient of the top standard monomial in u*v (top monomial pairs to 1)."""
        top = self.top_degree()
        tops = [m for m in self.std_monomials if self.mono_degree(m) == top]
        if len(tops) != 1:
            raise RingError(f"top degree is {len(tops)}-dimensional; pairing undefined")
        nums, den = self.mul(u, v)
        return Fraction(nums[self._index[tops[0]]], den)


def _std_monomials(gb, order: WeightedGrevlex, nvars: int):
    """Staircase below the GB leads, or None when infinite-dimensional."""
    leads = [max(g, key=order.key) for g in gb]
    for i in range(nvars):
        if not any(all(lm[j] == 0 for j in range(nvars) if j != i) for lm in leads):
            return None
    zero = tuple(0 for _ in range(nvars))
    seen = {zero}
    queue = [zero]
    out = []
    while queue:
        m = queue.pop()
        if any(_mono_divides(lm, m) for lm in leads):
            continue
        out.append(m)
        if len(out) > STD_MONOMIAL_CAP:
            raise ResourceLimitError(
                f"standard-monomial staircase exceeds {STD_MONOMIAL_CAP} elements"
            )
        for i in range(nvars):
            nxt = tuple(e + int(j == i) for j, e in enumerate(m))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(sorted(out, key=order.key))


def quotient_ring(var_names, degrees, generator_families: dict) -> GradedQuotientRing:
    """Build a graded quotient ring from named generator families."""
    degrees = tuple(Fraction(d) for d in degrees)
    if any(d <= 0 for d in degrees):
        raise RingError("variable degrees must be positive")
    denom = lcm(*(d.denominator for d in degrees))
    weights = tuple(int(d * denom) for d in degrees)
    order = WeightedGrevlex(weights)
    gens = [g for fam in generator_families.values() for g in fam]
    gb = groebner_basis(gens, order)
    std = _std_monomials(gb, order, len(weights))
    return GradedQuotientRing(
        var_names=tuple(var_names),
        degrees=degrees,
        order=order,
        generators=generator_families,
        groebner=tuple(gb),
        std_monomials=std if std is not None else (),
        finite=std is not None,
    )


# -- the orbifold cohomology presentation -------------------------------------


def cone_lattice_groebner(ext: ExtendedStackyFan, cone) -> list[Poly]:
    """Saturated lattice-ideal GB for one maximal cone, its binomials lifted to
    the full variable set."""
    support = ext.generators_in_cone(cone)
    gens_vectors = ext.generators
    mat = [[gens_vectors[i][k] for i in support] for k in range(ext.d)]
    local_rels = kernel_basis(IntMatrix(mat)) if support else []
    denom = lcm(*(ext.degree(i).denominator for i in range(ext.n)))
    weights = [int(ext.degree(i) * denom) for i in support]
    local_gb = lattice_ideal_groebner(local_rels, weights) if local_rels else []

    def lift(m):
        full = [0] * ext.n
        for idx, e in zip(support, m):
            full[idx] = e
        return tuple(full)

    return [{lift(m): c for m, c in g.items()} for g in local_gb]


def presentation(ext: ExtendedStackyFan) -> GradedQuotientRing:
    """H*_orb as Q[D_1..D_n] / (cone ideal + Euler forms + GP monomials)."""
    n = ext.n
    cone_polys = []
    seen = set()
    for cone in ext.fan.max_cones:
        for p in cone_lattice_groebner(ext, cone):
            key = tuple(sorted(p.items()))
            if key not in seen:
                seen.add(key)
                cone_polys.append(p)
    euler = []
    for k in range(ext.d):
        poly = {}
        for i in range(ext.m):
            coeff = ext.fan.rays[i][k]
            if coeff:
                poly[tuple(int(j == i) for j in range(n))] = Fraction(coeff)
        if poly:
            euler.append(poly)
    gp_monos = []
    for collection in generalized_primitive_collections(ext):
        mono = tuple(int(i in collection) for i in range(n))
        gp_monos.append({mono: Fraction(1)})
    names = tuple(f"D{i + 1}" for i in range(n))
    degrees = tuple(ext.degree(i) for i in range(n))
    ring = quotient_ring(
        names,
        degrees,
        {"cone": cone_polys, "euler": euler, "primitive": gp_monos},
    )
    if not ring.finite:
        raise RingError(
            "presentation is not finite-dimensional; input fan is likely not complete"
        )
    return ring


def is_nef(ext: ExtendedStackyFan) -> bool:
    """Anticanonical nef test: every wall-relation coefficient sum is >= 0."""
    return all(sum(rel) >= 0 for rel in ext.fan.wall_relations)


def normalized_volume(ext: ExtendedStackyFan) -> int:
    """vol(Q) as the sum of |det| over maximal cones; requires a nef fan."""
    if not is_nef(ext):
        raise RingError("normalized_volume requires a nef fan (rho-bar not in Kbar)")
    total = 0
    for cone in ext.fan.max_cones:
        total += normalized_simplex_volume([ext.fan.rays[i] for i in cone])
    return total


def c1_class(ring: GradedQuotientRing, upto: int | None = None) -> Class:
    """Class of D_1 + ... + D_upto (default: all variables)."""
    n = ring.nvars if upto is None else upto
    poly = {}
    for i in range(n):
        poly[tuple(int(j == i) for j in range(ring.nvars))] = Fraction(1)
    return ring.class_of(poly)

