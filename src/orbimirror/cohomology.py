"""Graded quotient-ring presentations of orbifold cohomology.

One exact Groebner engine (weighted grevlex Buchberger) drives everything:
each maximal cone's lattice ideal, saturated one variable at a time
(Bayer-Stillman; GROEBNER_PAIR_CAP bounds each step), the global
presentation, the residue and symbol rings, standard monomials,
multiplication matrices and the top-degree pairing. The rational grading is
cleared to positive integer weights for the monomial order, so standard
monomials stay homogeneous.

The engine keeps each basis element monic, as a lead, the lead's support mask
(its short exponent vector: bit i set iff x_i divides it) and the tail terms.
A lead can divide a monomial only if its mask lies inside the monomial's, so
every divisibility test (reducer search, coprime leads, lcm chains,
minimalization, the staircase) compares masks before exponents. A reduction
pops the terms of the polynomial from a heap keyed once per monomial, and a
coefficient stays an int while it is integral, so a reduction step of an
integral basis multiplies and never divides. S-pairs wait in a heap keyed by
their lcm and are pruned by the Gebauer-Moeller criteria. The reduced basis
it returns is unique: monic, with Fraction coefficients.

Each quotient ring builds its reducers and standard-monomial index once, and
on its first product a table of the reduced products of all pairs of standard
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
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import add, le, mul, neg, sub

from .fan import ExtendedStackyFan, generalized_primitive_collections
from .linalg import Frozen, ResourceLimitError, kernel_basis, normalized_simplex_volume, over_lcm

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]
Class = tuple[tuple[int, ...], int]  # (numerators, denominator), canonical


class RingError(ValueError):
    pass


STD_MONOMIAL_CAP = 200000
GROEBNER_PAIR_CAP = 1000000  # S-pairs one groebner_basis call may reduce


# -- monomial order ----------------------------------------------------------


class WeightedGrevlex:
    """Weighted degree first, then grevlex: the last variable is the least."""

    def __init__(self, weights):
        self.weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise RingError("monomial order weights must be positive")
        self._bits = tuple(1 << i for i in range(len(self.weights)))

    def key(self, m: Mono):
        return (sum(map(mul, m, self.weights)), tuple(map(neg, reversed(m))))

    def descending_key(self, m: Mono):
        """A key whose least value is the greatest monomial: `key` reversed."""
        return (-sum(map(mul, m, self.weights)), m[::-1])

    def support_mask(self, m: Mono) -> int:
        """The bitmask of m's support: bit i set iff m[i] > 0."""
        return sum(compress(self._bits, m))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple([x if x > y else y for x, y in zip(a, b)])


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


def _reducer(p: Poly, order: WeightedGrevlex):
    """p made monic, as the engine reduces with it: (lead, lead mask, tail
    terms), the lead term left out because a reduction step cancels it
    exactly. A coefficient stays an int while it is integral, so a reduction
    step is one multiplication per term."""
    lm = max(p, key=order.key)
    quotients = ((m, Fraction(c) / p[lm]) for m, c in p.items() if m != lm)
    tail = tuple((m, q.numerator if q.denominator == 1 else q) for m, q in quotients)
    return lm, order.support_mask(lm), tail


def _divides(a: Mono, amask: int, b: Mono, bmask: int) -> bool:
    """a | b, testing the support masks before the exponents."""
    return not amask & ~bmask and all(map(le, a, b))


def normal_form(p: Poly, reducers, order: WeightedGrevlex) -> Poly:
    """Full reduction of p modulo monic reducers [(lead, lead mask, tail), ...]
    as `_reducer` makes them; the first reducer whose lead divides wins.

    The terms wait in a heap keyed once per monomial, greatest first, so the
    remainder's terms come in descending order. A lead is tried as a divisor
    only when its mask lies inside the monomial's.
    """
    rem: Poly = {}
    work = dict(p)
    heap_key = order.descending_key
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:  # cancelled, or a second entry of a monomial already done
            continue
        outside = ~order.support_mask(m)
        for lm, lmask, tail in reducers:
            if not lmask & outside and all(map(le, lm, m)):
                factor = tuple(map(sub, m, lm))
                for gm, gc in tail:
                    t = tuple(map(add, factor, gm))
                    if t not in work:
                        heapq.heappush(heap, (heap_key(t), t))
                    add_term(work, t, -c * gc)
                break
        else:
            rem[m] = c
    return rem


def groebner_basis(gens, order: WeightedGrevlex) -> list[Poly]:
    """Reduced monic Groebner basis, its elements sorted by lead and their
    terms in descending order, every coefficient a Fraction.

    Buchberger with the Gebauer-Moeller update (J. Symbolic Comput. 6,
    1988). A new element h drops the waiting pairs its lead makes redundant
    (criterion B); pairs with the active elements whose lcm with h no other
    new pair's lcm divides (criterion M), a pair whose S-polynomial is zero
    (coprime leads, or two monomials) blocking others but never waiting; and
    retires the active elements whose lead its lead divides. Pairs wait in a
    heap keyed by their lcm; the least goes first (the normal strategy).
    Every lead and lcm carries its support mask, which screens each
    divisibility test. Reducing more than GROEBNER_PAIR_CAP S-pairs raises
    ResourceLimitError.
    """
    elements = []  # every element made: (lead, lead mask, tail), monic
    active = []    # indices of the elements the reductions use
    waiting = {}   # (i, j) -> (lcm, lcm mask) of each pair not yet reduced
    pairs = []     # heap of (order.key(lcm), i, j)

    def update(p):
        h = len(elements)
        lm, mask, tail = new = _reducer(p, order)
        elements.append(new)
        # B: a waiting pair whose lcm lm divides, and differs from the lcms of
        # both its elements with lm, is redundant.
        for (i, j), (l, lmask) in list(waiting.items()):
            if (not mask & ~lmask and all(map(le, lm, l))
                    and l != _mono_lcm(elements[i][0], lm)
                    and l != _mono_lcm(elements[j][0], lm)):
                del waiting[i, j]
        # A pair's S-polynomial is zero unless its leads share a variable and
        # one of the two has a tail.
        useful = {g for g in active if elements[g][1] & mask and (tail or elements[g][2])}
        if useful:
            support = [(k, e) for k, e in enumerate(lm) if e]
            new_pairs = []
            for g in active:
                lg, gmask, _ = elements[g]
                l = list(lg)  # lcm(lg, lm): lg raised on the support of lm
                for k, e in support:
                    if e > l[k]:
                        l[k] = e
                l = tuple(l)
                new_pairs.append((sum(l), g in useful, g, l, gmask | mask))
            # M: a new pair whose lcm an earlier pair's lcm divides is
            # redundant. A proper divisor has a lower total degree, and among
            # equal lcms the zero S-polynomials come first, so only earlier
            # pairs block, and those after the last useful one block nothing.
            new_pairs.sort()
            while not new_pairs[-1][1]:
                new_pairs.pop()
            minimal = []
            for _, needed, g, l, lmask in new_pairs:
                if not any(not m2 & ~lmask and all(map(le, l2, l)) for l2, m2 in minimal):
                    minimal.append((l, lmask))
                    if needed:
                        waiting[g, h] = (l, lmask)
                        heapq.heappush(pairs, (order.key(l), g, h))
        active[:] = [g for g in active
                     if mask & ~elements[g][1] or not all(map(le, lm, elements[g][0]))]
        active.append(h)

    polys = filter(None, ({m: c for m, c in g.items() if c} for g in gens))
    for p in sorted(polys, key=lambda p: order.key(max(p, key=order.key))):
        update(p)
    inputs = len(elements)
    reduced_pairs = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if waiting.pop((i, j), None) is None:
            continue
        if reduced_pairs == GROEBNER_PAIR_CAP:
            raise ResourceLimitError(
                f"Groebner basis: more than {GROEBNER_PAIR_CAP} S-pairs")
        reduced_pairs += 1
        (li, _, ti), (lj, _, tj) = elements[i], elements[j]
        l = _mono_lcm(li, lj)
        fi, fj = _mono_div(l, li), _mono_div(l, lj)
        s = {_mono_mul(fi, m): c for m, c in ti}
        for m, c in tj:
            add_term(s, _mono_mul(fj, m), -c)
        s = normal_form(s, [elements[k] for k in active], order)
        if s:
            update(s)
    # Minimalize, then inter-reduce the tails; no other lead divides a kept
    # lead, so each lead stays as it is. A remainder's lead is divisible by no
    # active lead, and a later lead that divides it retires it, so only an
    # input can stay active behind a divisor (never an equal one).
    basis = [elements[g] for g in active]
    keep = [(lm, mask, tail) for g, (lm, mask, tail) in zip(active, basis)
            if g >= inputs
            or not any(l2 != lm and _divides(l2, m2, lm, mask) for l2, m2, _ in basis)]
    reduced = []
    for idx, (lm, _, tail) in enumerate(keep):
        rest = normal_form(dict(tail), keep[:idx] + keep[idx + 1:], order) if tail else {}
        g = {lm: Fraction(1)}
        g.update((m, Fraction(c)) for m, c in rest.items())
        reduced.append((order.key(lm), g))
    reduced.sort(key=lambda kg: kg[0])
    return [g for _, g in reduced]


def lattice_ideal_groebner(relations, weights) -> list[Poly]:
    """Reduced GB of the saturated lattice ideal of relations homogeneous for
    the weights.

    The binomials x^{r+} - x^{r-} are saturated by x_1..x_{k-1} in turn: a
    grevlex GB with x_j last, each element divided by its largest power of
    x_j, is a GB of I : x_j^oo (Bayer-Stillman; Sturmfels, Groebner Bases and
    Convex Polytopes, ch. 12). x_k needs no step: a prime holding x_k and a
    binomial that x_k divides holds a variable of its other term. A last run
    in WeightedGrevlex(weights) reduces; GROEBNER_PAIR_CAP bounds each run.
    """
    rels = [tuple(map(int, r)) for r in relations if any(r)]
    if any(sum(map(mul, r, weights)) for r in rels):
        raise RingError("lattice ideal relation is not homogeneous for the weights")
    gb = [{tuple(max(x, 0) for x in r): Fraction(1), tuple(max(-x, 0) for x in r): Fraction(-1)}
          for r in rels]
    w = tuple(weights)
    for j in range(len(w) - 1 if gb else 0):  # x_j moves last, and back
        moved = groebner_basis(({m[:j] + m[j + 1:] + m[j:j + 1]: c for m, c in g.items()}
                                for g in gb), WeightedGrevlex(w[:j] + w[j + 1:] + w[j:j + 1]))
        gb = []
        for g in moved:
            e = min(m[-1] for m in g)  # x_j^e is the largest power dividing g
            gb.append({m[:j] + (m[-1] - e,) + m[j:-1]: c for m, c in g.items()})
    return groebner_basis(gb, WeightedGrevlex(w)) if gb else []


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
    return reduced_class(*over_lcm(vec))


def class_vector(cls: Class) -> tuple[Fraction, ...]:
    """The class as a vector of Fractions, as reports print it."""
    nums, den = cls
    return tuple(Fraction(x, den) for x in nums)


# -- the graded quotient ring -------------------------------------------------


class GradedQuotientRing(Frozen):
    var_names: tuple[str, ...]
    degrees: tuple[Fraction, ...]
    order: WeightedGrevlex
    generators: dict
    groebner: tuple
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

    @cached_property
    def int_degrees(self) -> tuple[tuple[int, ...], int]:
        """(nums, den): the degree of each standard monomial as an int over den,
        the lcm of their denominators (the series engine's z-exponents too)."""
        weights, scale = over_lcm(self.degrees)
        nums = [sum(map(mul, m, weights)) for m in self.std_monomials]
        den = scale // gcd(scale, *nums)
        return tuple(x * den // scale for x in nums), den

    def graded_dims(self) -> dict[Fraction, int]:
        """The number of standard monomials in each degree, counted by their
        `int_degrees` numerators."""
        nums, den = self.int_degrees
        out: dict[int, int] = {}
        for g in nums:
            out[g] = out.get(g, 0) + 1
        return {Fraction(g, den): n for g, n in sorted(out.items())}

    @cached_property
    def _reducers(self):
        return [_reducer(g, self.order) for g in self.groebner]

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
        return normal_form(p, self._reducers, self.order)

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

    def product(self, u, v) -> tuple[list[int], int]:
        """u * v for (numerators, denominator) pairs, not necessarily reduced,
        as a pair over the product of their denominators and the table's,
        itself not reduced."""
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
        return out, da * db * den

    def mul(self, u: Class, v: Class) -> Class:
        return reduced_class(*self.product(u, v))

    def class_degree(self, cls: Class) -> Fraction | None:
        degs = {self.mono_degree(m) for m, c in zip(self.std_monomials, cls[0]) if c}
        if not degs:
            return Fraction(0)
        return degs.pop() if len(degs) == 1 else None

    def multiplication_columns(self, cls: Class):
        """Cup product by `cls` as (columns, den): column j holds the nonzero
        (index, numerator) pairs of cls * m_j for the j-th standard monomial
        m_j, every numerator over the one denominator den."""
        nums, cden = cls
        table, den = self._products
        support = [(row, x) for row, x in zip(table, nums) if x]
        columns = []
        for j in range(len(nums)):
            out = [0] * len(nums)
            for row, x in support:
                for k, c in row[j]:
                    out[k] += x * c
            columns.append([(k, c) for k, c in enumerate(out) if c])
        den *= cden
        g = gcd(den, *(c for column in columns for _, c in column))
        return tuple(tuple((k, c // g) for k, c in column) for column in columns), den // g

    def multiplication_matrix(self, cls: Class) -> tuple[tuple[Fraction, ...], ...]:
        """Cup product by `cls` in the standard-monomial basis (columns = images):
        the Fraction view of `multiplication_columns`."""
        columns, den = self.multiplication_columns(cls)
        rows = [[Fraction(0)] * len(columns) for _ in columns]
        for j, column in enumerate(columns):
            for k, c in column:
                rows[k][j] = Fraction(c, den)
        return tuple(map(tuple, rows))

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
    leads = [(lm, order.support_mask(lm)) for lm in leads]
    masks = {mask for _, mask in leads}
    if 0 not in masks and not {1 << i for i in range(nvars)} <= masks:
        return None  # some variable has no pure power among the leads
    zero = tuple(0 for _ in range(nvars))
    seen = {zero}
    queue = [(zero, 0)]
    out = []
    while queue:
        m, mask = queue.pop()
        if any(_divides(lm, lmask, m, mask) for lm, lmask in leads):
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
                queue.append((nxt, mask | 1 << i))
    return tuple(sorted(out, key=order.key))


def quotient_ring(var_names, degrees, generator_families: dict) -> GradedQuotientRing:
    """Build a graded quotient ring from named generator families."""
    degrees = tuple(Fraction(d) for d in degrees)
    if any(d <= 0 for d in degrees):
        raise RingError("variable degrees must be positive")
    order = WeightedGrevlex(over_lcm(degrees)[0])
    gens = [g for fam in generator_families.values() for g in fam]
    gb = groebner_basis(gens, order)
    std = _std_monomials(gb, order, len(degrees))
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
    mat = [[ext.generators[i][k] for i in support] for k in range(ext.d)]
    weights = over_lcm(ext.degree(i) for i in range(ext.n))[0]
    local_gb = lattice_ideal_groebner(kernel_basis(mat), [weights[i] for i in support])

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

