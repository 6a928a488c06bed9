"""Truncated I-functions, mirror maps, and operator annihilation checks.

A LogSeries is a finite sum of terms

    c * chi^beta * (log chi_1)^{k_1} .. (log chi_r)^{k_r} * z^q * (log z)^j

with c a cohomology class (a canonical pair of int numerators over the ring's
standard monomials and one denominator, see `cohomology.reduced_class`), beta
in Z^{r+e}_{>=0}, q rational. Logarithms of the extension
coordinates chi_{r+1}.. never occur. The truncation order N means every
coefficient with total chi-degree <= N is complete.

Each piece of exact work is done once, and no table outlives its owner:
an `i_function` call builds the powers of each ray class D-bar_i, one factor
class per (ray, pairing) and one sector class 1_v per sector it meets, so
each degree's hypergeometric factor is one class, 1_v times one factor class
per ray, split by degree into its z-powers. Its ring products are not
reduced (`ring.product`): the running denominator is reduced once per graded
part. The enumeration computes a degree's sector v(d) once per residue
vector of its pairings mod 1, on which it depends alone. A product with a
fixed class (the log prefactor's pbar_a, I-tilde's rho-bar) is one int
operator, `ring.multiplication_columns`, applied along a chain per term that
stops at its first zero product, unreduced until each output class is
reduced once. A series keeps the derivatives theta^s del^t E^u of itself
that `apply_operator` has asked for, each as a block: int numerator lists
over one denominator, in layers by chi-degree, built only up to the deepest
layer read so far. The terms' own block is over the lcm of their
denominators; a theta or del step scales a term by an int, and an E step
multiplies the block's denominator by Q (below). No class is reduced along
the chain: an operator's residual is summed over the lcm of the blocks it
reads and reduced once per key.
Only work a result reads is done: `apply_operator` forms the terms up to the
chi-degree its caller reads. Classes, the z-exponents q (numerators over the
ring's `int_degrees` denominator Q) and the degree pairings (over M's `m_ints`
denominator) are ints; `term_list`, `MirrorMap`, the annihilation residual and
the `SeriesError` texts give them as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import add

from .cohomology import GradedQuotientRing, class_vector, reduced_class
from .linalg import Frozen
from .operators import (
    LogDiffOp,
    chained_action,
    dbar_class,
    pbar_class,
    rho_bar_class,
    sector_class,
)
from .picard import ExtendedPicardData, MoriData


class SeriesError(ValueError):
    pass


TermKey = tuple  # (beta: tuple[int], logk: tuple[int], q * Q: int, j: int)


def _acc(out, key, vec):
    """out[key] += vec for a class vec. Each sum is kept as a [numerators,
    denominator] list over the lcm of its summands' denominators, neither
    reduced nor dropped when zero, until `_classes(out)`."""
    nums, den = vec
    cur = out.get(key)
    if cur is None:
        out[key] = [nums, den]
    elif cur[1] == den:
        cur[0] = [x + y for x, y in zip(cur[0], nums)]
    else:
        g = gcd(cur[1], den)
        fa, fb = den // g, cur[1] // g
        cur[0] = [x * fa + y * fb for x, y in zip(cur[0], nums)]
        cur[1] *= fa


def _classes(out, d=1) -> dict:
    """The sums that `_acc` kept in out, divided by the int d > 0, as
    canonical classes; the zero ones are dropped."""
    return {key: reduced_class(nums, den * d) for key, (nums, den) in out.items() if any(nums)}


class LogSeries(Frozen):
    """terms maps (beta, logk, q, j) to a class pair (see the module
    docstring); a zero class is dropped."""

    r: int
    e: int
    dim: int
    terms: dict = {}  # never shared: __post_init__ builds each instance's own dict
    order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {key: vec for key, vec in self.terms.items() if any(vec[0])})

    @cached_property
    def _derivatives(self) -> dict:
        """(s, t, u) -> the `_Block` of theta^s del^t E^u applied to the terms
        (see `derivative`); the zero key holds the terms' own block, whole,
        each class over the lcm of their denominators."""
        common = lcm(*(den for _, den in self.terms.values()))
        layers = [{} for _ in range(max((sum(k[0]) for k in self.terms), default=-1) + 1)]
        for key, (nums, den) in self.terms.items():
            layers[sum(key[0])][key] = nums if den == common else [x * (common // den)
                                                                   for x in nums]
        return {((0,) * self.r, (0,) * self.e, 0): _Block(layers, common)}

    def derivative(self, s, t, u, zden, depth) -> tuple:
        """theta^s del^t E^u applied to the terms (z-exponents over zden), in
        chi-degree <= depth, as a block (layers, den): layers[g] maps each
        key of chi-degree g to the int numerators of its nonzero class over
        the one denominator den. Kept for the life of this series, built
        from the longest kept prefix by one step per factor
        (`operators.chained_action`), and only in the layers read so far: a
        later, deeper read extends it (`_Block.upto`)."""
        def act(block, kind, i):
            if kind == "theta":
                return _Block([], block.den, block, lambda layer: _theta_step(layer, i, zden))
            if kind == "del":
                return _Block([], block.den, block,
                              lambda layer: _del_step(layer, self.r + i, zden), 1)
            return _Block([], block.den * zden, block, lambda layer: _e_step(layer, zden))

        block = chained_action(self._derivatives, (s, t, u), act)
        return block.upto(depth)[:depth + 1], block.den

    def truncate(self, order: int) -> "LogSeries":
        kept = {k: v for k, v in self.terms.items() if sum(k[0]) <= order}
        return LogSeries(self.r, self.e, self.dim, kept, order)

    def term_list(self, ring: GradedQuotientRing):
        zden = ring.int_degrees[1]
        out = []
        for key in sorted(self.terms, key=lambda k: (sum(k[0]), k)):
            beta, logk, q, j = key
            out.append({
                "chi_exponents": list(beta),
                "log_chi_exponents": list(logk),
                "z_exponent": Fraction(q, zden),
                "log_z_exponent": j,
                "class": list(class_vector(self.terms[key])),
            })
        return out


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_one(ring: GradedQuotientRing, r, e, order=None) -> LogSeries:
    key = ((0,) * (r + e), (0,) * r, 0, 0)
    return LogSeries(r, e, ring.dim, {key: ring.one()}, order)


def series_mul(a: LogSeries, b: LogSeries, ring: GradedQuotientRing) -> LogSeries:
    # b's terms grouped by z-exponent: q1 + q2 is made once per term of a
    # and exponent of b, not once per pair of terms
    by_q: dict = {}
    for (b2, k2, q2, j2), v2 in b.terms.items():
        by_q.setdefault(q2, []).append((b2, k2, j2, v2))
    out: dict = {}
    for (b1, k1, q1, j1), v1 in a.terms.items():
        for q2, group in by_q.items():
            q = q1 + q2
            for b2, k2, j2, v2 in group:
                key = (tuple(map(add, b1, b2)), tuple(map(add, k1, k2)), q, j1 + j2)
                _acc(out, key, ring.product(v1, v2))
    return LogSeries(a.r, a.e, a.dim, _classes(out), _min_order(a.order, b.order))


# -- operator action -----------------------------------------------------------


def apply_operator(op: LogDiffOp, series: LogSeries, ring: GradedQuotientRing,
                   cap: int) -> LogSeries:
    """Term-by-term action of a normal-ordered operator on a log series, in
    chi-degree <= cap only; the derivative blocks of the series are shared
    with every other operator applied to the same series object.

    An operator term chi^obeta .. adds |obeta| to the chi-degree of each
    derivative term, so only the layers of degree <= cap - |obeta| are read.
    Each block read is scaled onto L, the lcm of their denominators, and the
    sums are reduced once per key, over L times the operator's denominator.
    """
    if (op.r, op.e) != (series.r, series.e):
        raise SeriesError("operator and series shapes differ")
    zden = ring.int_degrees[1]
    reads = []
    for (obeta, ok, s_exp, t_exp, u_exp), coeff in op.nums.items():
        room = cap - sum(obeta)
        if room >= 0:
            layers, den = series.derivative(s_exp, t_exp, u_exp, zden, room)
            reads.append((obeta if any(obeta) else None, ok * zden, coeff, layers, den))
    common = lcm(*(den for *_, den in reads))
    total: dict = {}
    for obeta, shift, coeff, layers, den in reads:
        f = coeff * (common // den)
        for layer in layers:
            for (beta, logk, q, j), nums in layer.items():
                _add(total, (tuple(map(add, beta, obeta)) if obeta else beta, logk, q + shift, j),
                     nums, f)
    den = common * op.den
    return LogSeries(series.r, series.e, series.dim,
                     {key: reduced_class(nums, den) for key, nums in total.items() if any(nums)},
                     series.order)


class _Block:
    """A derivative of a series's terms as int numerator lists over the one
    denominator den, in layers by chi-degree (see `LogSeries.derivative`).
    Of its `size` layers only those read so far are built. Each other block
    is derived from its prefix block: its layer g is step(layer g + shift of
    the prefix), with shift 1 for a del step, which lowers the chi-degree,
    and 0 for a theta or E step."""

    __slots__ = ("layers", "den", "size", "prefix", "step", "shift")

    def __init__(self, layers, den, prefix=None, step=None, shift=0):
        self.layers, self.den, self.prefix, self.step, self.shift = (
            layers, den, prefix, step, shift)
        self.size = len(layers) if prefix is None else max(prefix.size - shift, 0)

    def upto(self, depth) -> list:
        """The layers, built up to chi-degree depth (or the last one)."""
        built, want = len(self.layers), min(depth + 1, self.size)
        if built < want:
            shift = self.shift
            source = self.prefix.upto(want - 1 + shift)
            self.layers += map(self.step, source[built + shift:want + shift])
        return self.layers


def _theta_step(layer, a, zden):
    """z chi_a d/dchi_a on one layer of a block, for z-exponents over zden."""
    new: dict = {}
    for (beta, logk, q, j), nums in layer.items():
        if beta[a]:
            _add(new, (beta, logk, q + zden, j), nums, beta[a])
        c = logk[a]
        if c:
            _add(new, (beta, logk[:a] + (c - 1,) + logk[a + 1:], q + zden, j), nums, c)
    return {key: nums for key, nums in new.items() if any(nums)}


def _del_step(layer, i, zden):
    """z d/dchi_i on one layer of a block, for i >= r and z-exponents over
    zden; it lowers the chi-degree by one, and maps distinct keys to
    distinct keys."""
    return {(beta[:i] + (beta[i] - 1,) + beta[i + 1:], logk, q + zden, j):
            nums if beta[i] == 1 else [x * beta[i] for x in nums]
            for (beta, logk, q, j), nums in layer.items() if beta[i]}


def _e_step(layer, zden):
    """z^2 d/dz on one layer of a block, for z-exponents over zden: the
    z-exponent q/zden scales a class, so the block's denominator is zden
    times its prefix's."""
    new: dict = {}
    for (beta, logk, q, j), nums in layer.items():
        if q:
            _add(new, (beta, logk, q + zden, j), nums, q)
        if j:
            _add(new, (beta, logk, q + zden, j - 1), nums, j * zden)
    return {key: nums for key, nums in new.items() if any(nums)}


def _add(out, key, nums, c):
    """out[key] += c * nums for int numerator lists over one denominator;
    a sum is a new list, so a list in a block is never changed."""
    vec = nums if c == 1 else [x * c for x in nums]
    cur = out.get(key)
    out[key] = vec if cur is None else list(map(add, cur, vec))


# -- degree enumeration and hypergeometric factors ------------------------------


def enumerate_degrees(mori: MoriData, order: int) -> list[dict]:
    """All d in K^eff with sum_a p_a(d) <= order, with sectors v(d).

    Effective degrees are parametrized by their p-pairing vectors beta in
    Z^{rank}_{>=0} (d = sum beta_a q_a), which become the chi-exponents. The
    pairings <D_i, d> = M beta, numerators over M's `m_ints` denominator, are
    carried down the recursion, one column of M added per step. The sector
    depends only on the pairings mod 1 (`MoriData.v_of`), so it is computed
    once per residue vector of the numerators mod the denominator.
    """
    rank = mori.picard.rank
    rows, den = mori.picard.m_ints
    columns = list(zip(*rows))
    sectors: dict = {}
    out = []

    def rec(beta, pairings, remaining):
        if len(beta) == rank:
            if mori.integer_pattern(pairings, True) in mori.anticones_e:
                residues = tuple(x % den for x in pairings)
                sector = sectors.get(residues)
                if sector is None:
                    sector = sectors[residues] = mori.v_of(pairings)
                out.append({"beta": beta, "pairings": pairings, "sector": sector})
            return
        column = columns[len(beta)]
        for c in range(remaining + 1):
            if c:
                pairings = tuple(map(add, pairings, column))
            rec(beta + (c,), pairings, remaining - c)

    rec((), (0,) * len(rows), order)
    out.sort(key=lambda t: (sum(t["beta"]), t["beta"]))
    return out


def _powers(ring: GradedQuotientRing, cls):
    """1, cls, cls^2, ... up to the last nonzero power of a nilpotent class."""
    power = ring.one()
    while any(power[0]):
        yield power
        power = ring.mul(power, cls)


def factor_scalars(c: tuple[int, int], length: int) -> tuple[tuple[int, ...], int]:
    """(a, den), the scalars a_0/den .. a_{length-1}/den in lowest terms, with,
    for c = n/d given as the reduced pair (n, d) and any class D with D^length = 0,

        prod_{s=0}^{ceil c - 1} (D + (c - s) z)^{-1}   if ceil c >= 1,
        prod_{nu=ceil c}^{-1}   (D + (c - nu) z)       otherwise,

    equal to sum_K (a_K / den) D^K z^{-ceil c - K}. In x = D/z each factor is
    (x + w)^{-1} or (x + w) up to a power of z, so it updates the
    coefficients f of x^K by g_K = (f_K - g_{K-1}) / w or g_K = w f_K + f_{K-1}.
    With c = n/d, w = p/d and f_K = A_K/D these are g_K = C_K / (D p^{K+1})
    for C_K = (A_K p^K - C_{K-1}) d, and g_K = (p A_K + d A_{K-1}) / (D d).
    """
    n, d = c
    ceil_c = -((-n) // d)
    a, den = (1,) + (0,) * (length - 1), 1
    if ceil_c >= 1:
        for s in range(ceil_c):
            p = n - s * d
            if p == 0:
                raise SeriesError("uncancelled scalar-zero denominator factor")
            out, prev, pk = [], 0, 1
            for x in a:
                prev = (x * pk - prev) * d
                pk *= p
                out.append(prev)
            # over the common denominator den p^length, with its sign made positive
            sign = 1 if pk > 0 else -1
            a, den = reduced_class([sign * x * p ** (length - 1 - k) for k, x in enumerate(out)],
                                   sign * den * pk)
    else:
        for nu in range(ceil_c, 0):
            p = n - nu * d
            a, den = reduced_class([p * a[0]] + [p * a[k] + d * a[k - 1]
                                                 for k in range(1, length)], den * d)
    return a, den


class FactorTables:
    """What the hypergeometric factors of one `i_function` call share, each
    made on its first use: the powers 1, D-bar_i, D-bar_i^2, .. of each ray
    class up to the last nonzero one; for each ray i and reduced pairing c
    met with ceil c != 0, the class G = sum_K (a_K / den) D-bar_i^K of
    `factor_scalars` (the ray's product at z = 1), combined from those powers
    once; and each sector's class 1_v with its age.

    Every D-bar_i must be homogeneous of degree 1 and every 1_v of degree
    age(v), else SeriesError: then the degree-g part of 1_v prod_i G_i is the
    coefficient of z^{-sum_i ceil c_i - (g - age v)}.
    """

    def __init__(self, data: ExtendedPicardData, ring: GradedQuotientRing):
        self.data, self.ring = data, ring
        self.degrees, self.zden = ring.int_degrees
        self.powers = []
        for i in range(data.ext.m):
            dbar = dbar_class(data, ring, i)
            if any(x and g != self.zden for x, g in zip(dbar[0], self.degrees)):
                raise SeriesError(f"ray class D{i + 1} is not homogeneous of degree 1")
            self.powers.append(list(_powers(ring, dbar)))
        self._ages = {b.vector: b.age for b in data.ext.box}
        self._factors: dict = {}
        self._sectors: dict = {}

    def factor(self, i, n, d):
        """G for ray i and the reduced pairing c = n/d."""
        key = i, n, d
        if key not in self._factors:
            powers = self.powers[i]
            scalars, den = factor_scalars((n, d), len(powers))
            common = lcm(*(pden for _, pden in powers))
            total = [0] * len(powers[0][0])
            for a, (nums, pden) in zip(scalars, powers):
                if a:
                    f = a * (common // pden)
                    total = [x + f * y for x, y in zip(total, nums)]
            self._factors[key] = reduced_class(total, common * den)
        return self._factors[key]

    def sector(self, v):
        """(1_v, age(v) as a numerator over the ring's degree denominator)."""
        if v not in self._sectors:
            cls = sector_class(self.data, self.ring, v)
            age = self._ages[v]
            degs = {g for x, g in zip(cls[0], self.degrees) if x}
            if any(g * age.denominator != age.numerator * self.zden for g in degs):
                raise SeriesError(f"sector class 1_{list(v)} is not homogeneous "
                                  "of degree age(v)")
            self._sectors[v] = cls, degs.pop() if degs else 0
        return self._sectors[v]


def _graded_parts(nums, degrees) -> dict:
    """{degree numerator: the numerators of nums in that degree} for the
    nonzero entries of nums, the degrees of its coordinates given."""
    parts: dict = {}
    for idx, (x, g) in enumerate(zip(nums, degrees)):
        if x:
            parts.setdefault(g, [0] * len(nums))[idx] = x
    return parts


def hypergeometric_factor(data: ExtendedPicardData, ring: GradedQuotientRing,
                          degree: dict, tables: FactorTables) -> dict:
    """The product over i of the telescoped factor ratios, cupped with 1_{v(d)}.

    Returns {z-exponent over Q: class}. The product is formed as one class,
    1_v times the class G of each ray with ceil c != 0 from `tables`, one
    unreduced ring product (`GradedQuotientRing.product`) per such ray, and
    is then split by degree (see `FactorTables`) and reduced once per part.
    Extension indices carry no divisor class, so theirs is the scalar
    z^{-c} / c!; a scalar-zero denominator factor (impossible on K^eff)
    raises SeriesError.
    """
    m = data.ext.m
    zden, mden = tables.zden, data.m_ints[1]
    acc, age = tables.sector(degree["sector"])
    shift, scale = 0, 1
    for i, n in enumerate(degree["pairings"]):
        if i >= m:
            if n % mden or n < 0:
                raise SeriesError("extension pairing not a nonnegative integer on K^eff")
            shift += n // mden
            scale *= factorial(n // mden)
            continue
        g = gcd(n, mden)
        n, d = n // g, mden // g
        ceil_c = -((-n) // d)
        if ceil_c:
            shift += ceil_c
            acc = ring.product(acc, tables.factor(i, n, d))
            if not any(acc[0]):
                return {}
    nums, den = acc
    top = age - shift * zden
    return {top - deg: reduced_class(part, den * scale)
            for deg, part in _graded_parts(nums, tables.degrees).items()}


# -- the I-function ---------------------------------------------------------------


def _exp_chain(terms: dict, op, step, sign: int) -> dict:
    """exp(sign C X) times the terms, for op = ring.multiplication_columns(C)
    and X = (log chi)^dlogk z^dq (log z)^dj with step = (dlogk, dq, dj): each
    term c X^0 becomes sum_k (sign^k / k!) (C^k c) X^k. The powers C^k c come
    from applying op k times, C^k c over den(c) oden^k, and each chain stops
    at its first zero product; each output class is reduced once.
    """
    columns, oden = op
    dlogk, dq, dj = step
    out: dict = {}
    for key, vec in terms.items():
        _acc(out, key, vec)
        beta, logk, q, j = key
        nums, den = vec
        k = fact = 1
        while True:
            new = [0] * len(nums)
            for x, column in zip(nums, columns):
                if x:
                    for idx, c in column:
                        new[idx] += x * c
            if not any(new):
                break
            nums, den = new, den * oden
            logk, q, j = tuple(map(add, logk, dlogk)), q + dq, j + dj
            fact *= k
            signed = nums if sign > 0 or k % 2 == 0 else [-x for x in nums]
            _acc(out, (beta, logk, q, j), (signed, den * fact))
            k += 1
    return _classes(out)


def i_function(data: ExtendedPicardData, ring: GradedQuotientRing,
               mori: MoriData, order: int, degrees: list | None = None) -> LogSeries:
    """Truncated I-function: exp(sum_{a<=r} pbar_a log chi_a / z) times the
    hypergeometric sum over K^eff, the exponential applied one a at a time
    by `_exp_chain` (finite by nilpotency).

    `degrees` is `enumerate_degrees(mori, order)`, when the caller has it.
    Each body key is made once, as beta is distinct per degree and q per
    graded part of its factor, so each part is stored as it comes; no term
    has chi-degree above the order, so none is truncated.
    """
    r, e = data.r, data.e
    zden = ring.int_degrees[1]
    tables = FactorTables(data, ring)
    terms: dict = {}
    logk = (0,) * r
    for degree in enumerate_degrees(mori, order) if degrees is None else degrees:
        beta = degree["beta"]
        if any(b < 0 for b in beta):
            raise SeriesError("negative chi-exponent on an effective degree")
        for q, vec in hypergeometric_factor(data, ring, degree, tables).items():
            terms[beta, logk, q, 0] = vec
    for a in range(r):
        op = ring.multiplication_columns(pbar_class(data, ring, a))
        terms = _exp_chain(terms, op, (tuple(int(i == a) for i in range(r)), -zden, 0), 1)
    return LogSeries(r, e, ring.dim, terms, order)


class MirrorMap(Frozen):
    log_linear: tuple          # pbar_a classes as Fraction vectors, a = 1..r
    analytic: dict             # chi-exponent tuple -> class as a Fraction vector
    order: int

    def analytic_list(self):
        return [{"chi_exponents": list(k), "class": list(v)}
                for k, v in sorted(self.analytic.items())]


def mirror_map(series: LogSeries, ring: GradedQuotientRing,
               data: ExtendedPicardData) -> MirrorMap:
    """tau from the z^{-1} coefficient of I - 1; validates the 1 + tau/z + o(1/z) shape."""
    r, e = series.r, series.e
    degrees, zden = ring.int_degrees
    one_key = ((0,) * (r + e), (0,) * r, 0, 0)
    rest = dict(series.terms)
    const = rest.pop(one_key, None)
    if const is None or const != ring.one():
        raise SeriesError("I-function does not start with the class 1")
    bad = sorted({Fraction(k[2], zden) for k in rest if k[2] > -zden})
    if bad:
        raise SeriesError(f"asymptotic shape violated: z-exponents {bad} > -1")
    log_linear = []
    for a in range(r):
        key = ((0,) * (r + e), tuple(int(i == a) for i in range(r)), -zden, 0)
        log_linear.append(series.terms.get(key, ring.zero_class()))
    analytic = {}
    for (beta, logk, q, j), vec in rest.items():
        if q == -zden and j == 0 and not any(logk) and any(beta):
            analytic[beta] = vec
    for nums, _ in list(analytic.values()) + log_linear:
        if any(x and deg > zden for x, deg in zip(nums, degrees)):
            raise SeriesError("mirror map has a component outside H^{<=2}")
    return MirrorMap(tuple(map(class_vector, log_linear)),
                     {beta: class_vector(vec) for beta, vec in analytic.items()}, series.order)


def tilde_i(series: LogSeries, ring: GradedQuotientRing,
            data: ExtendedPicardData) -> LogSeries:
    """I-tilde: apply z^mu (scale degree-q pieces by z^q), then
    z^{-rho-bar} = exp(-rho-bar log z) by `_exp_chain`."""
    r, e = series.r, series.e
    degrees = ring.int_degrees[0]
    graded: dict = {}
    for (beta, logk, q, j), (nums, den) in series.terms.items():
        for d, part in _graded_parts(nums, degrees).items():
            _acc(graded, (beta, logk, q + d, j), (part, den))
    op = ring.multiplication_columns(rho_bar_class(data, ring))
    terms = _exp_chain(_classes(graded), op, ((0,) * r, 0, 1), -1)
    return LogSeries(r, e, ring.dim, terms, series.order)


class AnnihilationReport(Frozen):
    checked_order: int
    residual_terms: tuple
    ok: bool


def annihilation_check(op: LogDiffOp, series: LogSeries,
                       ring: GradedQuotientRing) -> AnnihilationReport:
    """Apply op to the series; the residual must vanish on all complete degrees.

    Degrees g of the output are complete when g + (max chi-lowering of op) <= N,
    since del-factors shift chi-degree down by at most their total order. Only
    the residual in those degrees is formed; its keys give q as a Fraction.
    """
    if series.order is None:
        raise SeriesError("series carries no truncation order")
    lower = max((sum(t) for (_, _, _, t, _) in op.nums), default=0)
    bound = series.order - lower
    residual = apply_operator(op, series, ring, bound)
    zden = ring.int_degrees[1]
    offending = tuple(
        {"key": (beta, logk, Fraction(q, zden), j), "class": list(class_vector(vec))}
        for (beta, logk, q, j), vec in sorted(residual.terms.items(),
                                              key=lambda kv: (sum(kv[0][0]), kv[0]))
    )
    return AnnihilationReport(bound, offending, not offending)
