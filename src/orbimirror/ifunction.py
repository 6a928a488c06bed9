"""Truncated I-functions, mirror maps, and operator annihilation checks.

A LogSeries is a finite sum of terms

    c * chi^beta * (log chi_1)^{k_1} .. (log chi_r)^{k_r} * z^q * (log z)^j

with c a cohomology class (a canonical pair of int numerators over the ring's
standard monomials and one denominator, see `cohomology.reduced_class`), beta
in Z^{r+e}_{>=0}, q rational. Logarithms of the extension
coordinates chi_{r+1}.. never occur. The truncation order N means every
coefficient with total chi-degree <= N is complete.

Each piece of exact work is done once, and no table outlives its owner:
an `i_function` call builds one table of the powers of each ray class
D-bar_i and one sector class 1_v per sector it meets, and a series keeps the
derivatives theta^s del^t E^u of itself that `apply_operator` has asked for.
Only work a result reads is done: `apply_operator` forms the terms up to the
chi-degree its caller reads. Classes, the z-exponents q (numerators over the
ring's `int_degrees` denominator Q) and the degree pairings (over M's `m_ints`
denominator) are ints; `term_list`, `MirrorMap`, the annihilation residual and
the `SeriesError` texts give them as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd
from operator import add

from .cohomology import GradedQuotientRing, class_vector, reduced_class
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


def _scaled(vec, c, d=1):
    """(c / d) * vec for ints c != 0 and d > 0."""
    nums, den = vec
    if d != 1:
        return reduced_class([x * c for x in nums], den * d)
    if c == 1:
        return vec
    g = gcd(c, den)
    if g != 1:
        c, den = c // g, den // g
    return tuple(x * c for x in nums), den


@dataclass(frozen=True)
class LogSeries:
    """terms maps (beta, logk, q, j) to a class pair (see the module
    docstring); a zero class is dropped."""

    r: int
    e: int
    dim: int
    terms: dict = field(default_factory=dict)
    order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {key: vec for key, vec in self.terms.items() if any(vec[0])})

    @cached_property
    def _derivatives(self) -> dict:
        """(s, t, u) -> theta^s del^t E^u applied to the terms (see `derivative`)."""
        return {((0,) * self.r, (0,) * self.e, 0): self.terms}

    def derivative(self, s, t, u, zden) -> dict:
        """theta^s del^t E^u applied to the terms (z-exponents over zden).
        Kept for the life of this series, and built from the longest kept
        prefix by one action step per factor (`operators.chained_action`)."""
        def act(terms, kind, i):
            if kind == "theta":
                return _act_theta(terms, i, zden)
            if kind == "del":
                return _act_del(terms, self.r, i, zden)
            return _act_e(terms, zden)

        return chained_action(self._derivatives, (s, t, u), act)

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
                _acc(out, key, ring.mul(v1, v2))
    return LogSeries(a.r, a.e, a.dim, _classes(out), _min_order(a.order, b.order))


# -- operator action -----------------------------------------------------------


def apply_operator(op: LogDiffOp, series: LogSeries, ring: GradedQuotientRing,
                   cap: int) -> LogSeries:
    """Term-by-term action of a normal-ordered operator on a log series, in
    chi-degree <= cap only; the derivatives of the series are shared with
    every other operator applied to the same series object.

    An operator term chi^obeta .. adds |obeta| to the chi-degree of each
    derivative term, so a product whose degree would pass `cap` is not formed.
    """
    if (op.r, op.e) != (series.r, series.e):
        raise SeriesError("operator and series shapes differ")
    zden = ring.int_degrees[1]
    total: dict = {}
    for (obeta, ok, s_exp, t_exp, u_exp), coeff in op.nums.items():
        room = cap - sum(obeta)
        if room < 0:
            continue
        shift = ok * zden
        for (beta, logk, q, j), vec in series.derivative(s_exp, t_exp, u_exp, zden).items():
            if sum(beta) <= room:
                key = (tuple(map(add, beta, obeta)), logk, q + shift, j)
                _acc(total, key, _scaled(vec, coeff))
    return LogSeries(series.r, series.e, series.dim, _classes(total, op.den), series.order)


def _act_theta(terms, a, zden):
    """z chi_a d/dchi_a on each term, for z-exponents over zden."""
    out: dict = {}
    for (beta, logk, q, j), vec in terms.items():
        if beta[a]:
            _acc(out, (beta, logk, q + zden, j), _scaled(vec, beta[a]))
        if logk[a]:
            logk2 = tuple(x - int(i == a) for i, x in enumerate(logk))
            _acc(out, (beta, logk2, q + zden, j), _scaled(vec, logk[a]))
    return _classes(out)


def _act_del(terms, r, b, zden):
    """z d/dchi_{r+b} on each term, for z-exponents over zden."""
    out: dict = {}
    for (beta, logk, q, j), vec in terms.items():
        if beta[r + b]:
            beta2 = tuple(x - int(i == r + b) for i, x in enumerate(beta))
            _acc(out, (beta2, logk, q + zden, j), _scaled(vec, beta[r + b]))
    return _classes(out)


def _act_e(terms, zden):
    """z^2 d/dz on each term, for z-exponents over zden."""
    out: dict = {}
    for (beta, logk, q, j), vec in terms.items():
        if q:
            _acc(out, (beta, logk, q + zden, j), _scaled(vec, q, zden))
        if j:
            _acc(out, (beta, logk, q + zden, j - 1), _scaled(vec, j))
    return _classes(out)


# -- degree enumeration and hypergeometric factors ------------------------------


def enumerate_degrees(mori: MoriData, order: int) -> list[dict]:
    """All d in K^eff with sum_a p_a(d) <= order, with sectors v(d).

    Effective degrees are parametrized by their p-pairing vectors beta in
    Z^{rank}_{>=0} (d = sum beta_a q_a), which become the chi-exponents. The
    pairings <D_i, d> = M beta, numerators over M's `m_ints` denominator, are
    carried down the recursion, one column of M added per step.
    """
    rank = mori.picard.rank
    rows = mori.picard.m_ints[0]
    columns = list(zip(*rows))
    out = []

    def rec(beta, pairings, remaining):
        if len(beta) == rank:
            if mori.integer_pattern(beta, True, pairings) in mori.anticones_e:
                out.append({
                    "beta": beta,
                    "pairings": pairings,
                    "sector": mori.v_of(beta, pairings),
                })
            return
        column = columns[len(beta)]
        for c in range(remaining + 1):
            if c:
                pairings = tuple(x + y for x, y in zip(pairings, column))
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


def _laurent_mul(a: dict, b: dict, ring: GradedQuotientRing) -> dict:
    out: dict = {}
    for q1, v1 in a.items():
        for q2, v2 in b.items():
            _acc(out, q1 + q2, ring.mul(v1, v2))
    return _classes(out)


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
    """What the hypergeometric factors of one `i_function` call share: the
    powers 1, D-bar_i, D-bar_i^2, .. of each ray class up to the last nonzero
    one, and the class 1_v of each sector v, made on its first use."""

    def __init__(self, data: ExtendedPicardData, ring: GradedQuotientRing):
        self.data, self.ring = data, ring
        self.powers = [list(_powers(ring, dbar_class(data, ring, i)))
                       for i in range(data.ext.m)]
        self._sectors: dict = {}

    def sector(self, v):
        if v not in self._sectors:
            self._sectors[v] = sector_class(self.data, self.ring, v)
        return self._sectors[v]


def hypergeometric_factor(data: ExtendedPicardData, ring: GradedQuotientRing,
                          degree: dict, tables: FactorTables | None = None) -> dict:
    """The product over i of the telescoped factor ratios, cupped with 1_{v(d)}.

    Returns {z-exponent over Q: class}. Each ray's product is `factor_scalars`
    times the powers of its class in `tables` (new tables when none are given).
    Extension indices carry no divisor class, so theirs is a scalar; a
    scalar-zero denominator factor (impossible on K^eff) raises SeriesError.
    """
    ext = data.ext
    tables = tables or FactorTables(data, ring)
    zden, mden = ring.int_degrees[1], data.m_ints[1]
    acc = {0: tables.sector(degree["sector"])}
    for i in range(ext.n):
        n = degree["pairings"][i]
        if i >= ext.m:
            if n % mden or n < 0:
                raise SeriesError("extension pairing not a nonnegative integer on K^eff")
            if n:
                c = n // mden
                acc = {q - c * zden: _scaled(v, 1, factorial(c)) for q, v in acc.items()}
            continue
        n, d = n // gcd(n, mden), mden // gcd(n, mden)
        ceil_c = -((-n) // d)
        if ceil_c == 0:
            continue
        powers = tables.powers[i]
        scalars, den = factor_scalars((n, d), len(powers))
        factor = {(-ceil_c - k) * zden: _scaled(power, a, den)
                  for k, (a, power) in enumerate(zip(scalars, powers)) if a}
        acc = _laurent_mul(acc, factor, ring)
        if not acc:
            break
    return acc


# -- the I-function ---------------------------------------------------------------


def log_prefactor(data: ExtendedPicardData, ring: GradedQuotientRing) -> LogSeries:
    """exp(sum_{a<=r} pbar_a log chi_a / z), expanded finitely by nilpotency."""
    r, e, zden = data.r, data.e, ring.int_degrees[1]
    out = series_one(ring, r, e)
    for a in range(r):
        terms = {((0,) * (r + e), tuple(k if i == a else 0 for i in range(r)), -k * zden, 0):
                 _scaled(power, 1, factorial(k))
                 for k, power in enumerate(_powers(ring, pbar_class(data, ring, a)))}
        out = series_mul(out, LogSeries(r, e, ring.dim, terms), ring)
    return out


def i_function(data: ExtendedPicardData, ring: GradedQuotientRing,
               mori: MoriData, order: int, degrees: list | None = None) -> LogSeries:
    """Truncated I-function: prefactor times the hypergeometric sum over K^eff.

    `degrees` is `enumerate_degrees(mori, order)`, when the caller has it.
    """
    r, e = data.r, data.e
    tables = FactorTables(data, ring)
    body: dict = {}
    for degree in enumerate_degrees(mori, order) if degrees is None else degrees:
        beta = degree["beta"]
        if any(b < 0 for b in beta):
            raise SeriesError("negative chi-exponent on an effective degree")
        factor = hypergeometric_factor(data, ring, degree, tables)
        for q, vec in factor.items():
            key = (tuple(beta), (0,) * r, q, 0)
            _acc(body, key, vec)
    series = LogSeries(r, e, ring.dim, _classes(body), order)
    return series_mul(log_prefactor(data, ring), series, ring).truncate(order)


@dataclass(frozen=True)
class MirrorMap:
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
    """I-tilde: apply z^mu (scale degree-q pieces by z^q), then z^{-rho-bar}."""
    r, e = series.r, series.e
    degrees = ring.int_degrees[0]
    graded: dict = {}
    for (beta, logk, q, j), (nums, den) in series.terms.items():
        by_deg: dict = {}
        for idx, x in enumerate(nums):
            if x:
                by_deg.setdefault(degrees[idx], [0] * len(nums))[idx] = x
        for d, part in by_deg.items():
            _acc(graded, (beta, logk, q + d, j), (part, den))
    scaled = LogSeries(r, e, ring.dim, _classes(graded), series.order)
    terms = {((0,) * (r + e), (0,) * r, 0, k):
             _scaled(power, (-1) ** k, factorial(k))
             for k, power in enumerate(_powers(ring, rho_bar_class(data, ring)))}
    zrho = LogSeries(r, e, ring.dim, terms, series.order)
    return series_mul(scaled, zrho, ring)


@dataclass(frozen=True)
class AnnihilationReport:
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
