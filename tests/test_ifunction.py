from dataclasses import replace
from fractions import Fraction
from itertools import product
import json
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    CORPUS,
    add_classes,
    box_operators,
    d_pairings,
    fraction_products,
    in_k_eff,
    mul_oracle,
    pipeline,
    scale_class,
    series_fans,
    v_of,
    weighted_planes,
)
from orbimirror.cohomology import class_pair, class_vector
from orbimirror.ifunction import (
    AnnihilationReport,
    FactorTables,
    LogSeries,
    SeriesError,
    _powers,
    annihilation_check,
    apply_operator,
    enumerate_degrees,
    factor_scalars,
    hypergeometric_factor,
    i_function,
    log_prefactor,
    mirror_map,
    series_mul,
    series_one,
    tilde_i,
)
from orbimirror.operators import (
    LogDiffOp,
    box_x,
    dbar_class,
    euler_check,
    operator_families,
    pbar_class,
    rho_bar_class,
    sector_class,
)


# -- independent oracle: the classical projective-space series -------------------
#
# For P^n the I-function body is sum_d chi^d / prod_{nu=1}^d (h + nu z)^{n+1}
# with h^{n+1} = 0. Computed here with plain dict arithmetic on h-coefficient
# vectors, fully independent of the engine's ring and series classes.


def _classical_pn_body(n, order):
    """{d: {z_exponent: [h^0..h^n coefficients]}}"""
    def inv(nu):
        # (h + nu z)^{-1} = sum_k (-1)^k h^k nu^{-k-1} z^{-k-1}
        return {-k - 1: [Fraction(-1) ** k / Fraction(nu) ** (k + 1) if j == k else Fraction(0)
                         for j in range(n + 1)]
                for k in range(n + 1)}

    def mul(a, b):
        out = {}
        for qa, va in a.items():
            for qb, vb in b.items():
                conv = [Fraction(0)] * (n + 1)
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        conv[i + j] += va[i] * vb[j]
                if any(conv):
                    cur = out.setdefault(qa + qb, [Fraction(0)] * (n + 1))
                    for i in range(n + 1):
                        cur[i] += conv[i]
        return {q: v for q, v in out.items() if any(v)}

    body = {0: {0: [Fraction(int(i == 0)) for i in range(n + 1)]}}
    for d in range(1, order + 1):
        term = body[d - 1]
        for _ in range(n + 1):
            term = mul(term, inv(d))
        body[d] = term
    return body


def _engine_body(name, order):
    """Engine I-function terms with no logs, keyed by (chi-degree d, z-exponent)."""
    _, data, ring, mori = pipeline(name)
    series = i_function(data, ring, mori, order)
    out = {}
    for (beta, logk, q, j), vec in series.terms.items():
        if any(logk) or j:
            continue
        out[(sum(beta), q)] = vec
    return out, ring


@pytest.mark.parametrize("name,n", [("P1", 1), ("P2", 2)])
def test_i_function_matches_classical_oracle(name, n):
    order = 3
    oracle = _classical_pn_body(n, order)
    engine, ring = _engine_body(name, order)
    # identify h^k with the ring class of (class_of_var(0))^k
    h = ring.class_of_var(0)
    powers = [ring.one()]
    for _ in range(n):
        powers.append(ring.mul(powers[-1], h))
    for d, laurent in oracle.items():
        for q, hvec in laurent.items():
            expected = ring.zero_class()
            for k, c in enumerate(hvec):
                expected = add_classes(expected, scale_class(powers[k], c))
            got = engine.get((d, Fraction(q)), ring.zero_class())
            assert got == expected, (name, d, q)


def test_enumerate_degrees_examples():
    _, _, _, mori1 = pipeline("P1")
    assert [d["beta"] for d in enumerate_degrees(mori1, 2)] == [(0,), (1,), (2,)]
    assert [d["beta"] for d in enumerate_degrees(mori1, 0)] == [(0,)]
    _, _, _, mori112 = pipeline("P112")
    degs = enumerate_degrees(mori112, 1)
    assert (0, 1) in [d["beta"] for d in degs]
    twisted = next(d for d in degs if d["beta"] == (0, 1))
    assert twisted["sector"] == (0, -1)


def test_degree_sectors_agree_with_box_coset_map():
    from orbimirror.picard import box_coset_map

    for name in CORPUS:
        _, data, _, mori = pipeline(name)
        table = {tuple(t["d_p_pairings"]): tuple(t["box_element"])
                 for t in box_coset_map(mori)}
        for deg in enumerate_degrees(mori, 2):
            assert mori.v_of(deg["beta"]) == tuple(deg["sector"])
            # the sector must be a box element present in the coset table
            assert tuple(deg["sector"]) in set(table.values())


def test_hypergeometric_factor_d_zero_is_one():
    _, data, ring, mori = pipeline("P112")
    deg = next(d for d in enumerate_degrees(mori, 0))
    factor = hypergeometric_factor(data, ring, deg)
    assert factor == {Fraction(0): ring.one()}


def test_hypergeometric_factor_p1_d1():
    _, data, ring, mori = pipeline("P1")
    deg = next(d for d in enumerate_degrees(mori, 1) if d["beta"] == (1,))
    factor = hypergeometric_factor(data, ring, deg)
    h = ring.class_of_var(0)
    # 1/(h+z)^2 = z^{-2} - 2 h z^{-3}
    assert factor[Fraction(-2)] == ring.one()
    assert factor[Fraction(-3)] == scale_class(h, -2)


def test_hypergeometric_factor_twisted_sector_support():
    _, data, ring, mori = pipeline("P112")
    deg = next(d for d in enumerate_degrees(mori, 1) if d["beta"] == (0, 1))
    factor = hypergeometric_factor(data, ring, deg)
    twisted = ring.class_of_var(3)  # the class of D4 = 1_{(0,-1)}
    assert factor == {Fraction(-1): twisted}


def test_prefactor_leading_terms():
    _, data, ring, _ = pipeline("P1")
    pref = log_prefactor(data, ring)
    key0 = ((0,), (0,), Fraction(0), 0)
    key1 = ((0,), (1,), Fraction(-1), 0)
    assert pref.terms[key0] == ring.one()
    assert ring.class_degree(pref.terms[key1]) == 1


def test_mirror_map_p1_p2_order6_no_corrections():
    for name in ("P1", "P2"):
        _, data, ring, mori = pipeline(name)
        series = i_function(data, ring, mori, 6)
        mm = mirror_map(series, ring, data)
        assert mm.analytic == {}
        assert len(mm.log_linear) == 1 and any(mm.log_linear[0])


def test_mirror_map_p112_twisted_corrections_stable():
    _, data, ring, mori = pipeline("P112")
    mm3 = mirror_map(i_function(data, ring, mori, 3), ring, data)
    mm4 = mirror_map(i_function(data, ring, mori, 4), ring, data)
    twisted = ring.class_of_var(3)
    assert mm3.analytic[(0, 1)] == class_vector(twisted)
    # hand telescope for chi_2^3: (D1 - z/2)(D3 - z/2)/(6 z^3) cupped with the
    # twisted unit has z^{-1} coefficient (1/24) * twisted
    assert mm3.analytic[(0, 3)] == class_vector(scale_class(twisted, Fraction(1, 24)))
    assert set(mm3.analytic) == {(0, 1), (0, 3)}
    for key, value in mm3.analytic.items():
        assert mm4.analytic[key] == value
    for vec in mm3.analytic.values():
        degree = ring.class_degree(class_pair(vec))
        assert degree is not None and degree <= 1


def test_mirror_map_values_in_h_leq_2():
    for name in CORPUS:
        _, data, ring, mori = pipeline(name)
        mm = mirror_map(i_function(data, ring, mori, 2), ring, data)
        for vec in list(mm.analytic.values()) + list(mm.log_linear):
            degs = [ring.mono_degree(m) for m, c in zip(ring.std_monomials, vec) if c]
            assert all(d <= 1 for d in degs)


def test_tilde_i_of_constant():
    _, data, ring, _ = pipeline("P1")
    one = series_one(ring, 1, 0, order=3)
    tilde = tilde_i(one, ring, data)
    key0 = ((0,), (0,), Fraction(0), 0)
    key1 = ((0,), (0,), Fraction(0), 1)
    rho = scale_class(ring.class_of_var(0), 2)  # rho-bar = 2h on P1
    assert tilde.terms[key0] == ring.one()
    assert tilde.terms[key1] == scale_class(rho, -1)
    # rho-bar^2 = 0 on P1: log z degree stays <= 1
    assert all(k[3] <= 1 for k in tilde.terms)


def test_tilde_i_scales_single_homogeneous_term():
    _, data, ring, _ = pipeline("P1")
    h = ring.class_of_var(0)
    key = ((2,), (0,), Fraction(-1), 0)
    series = LogSeries(1, 0, ring.dim, {key: h}, order=3)
    tilde = tilde_i(series, ring, data)
    assert tilde.terms[((2,), (0,), Fraction(0), 0)] == h  # scaled by z^{deg h}


def test_truncation_stability():
    for name in ("P1", "P2", "P112"):
        _, data, ring, mori = pipeline(name)
        for n in (1, 2, 3):
            small = i_function(data, ring, mori, n)
            big = i_function(data, ring, mori, n + 1)
            assert small.terms == big.truncate(n).terms


def test_annihilation_corpus_order3():
    for name in ("P1", "P2", "P112"):
        _, data, ring, mori = pipeline(name)
        fams = operator_families(data, ring)
        ops = [euler_check(data)] + [
            box_x(data, l)
            for l in fams["l_basis"] + fams["cone"] + fams["primitive"]
        ]
        lower = max(max((sum(t) for (_, _, _, t, _) in op.terms), default=0)
                    for op in ops)
        series = i_function(data, ring, mori, 3 + lower)
        tilde = tilde_i(series, ring, data)
        for op in ops:
            report = annihilation_check(op, tilde, ring)
            assert report.ok, (name, report.residual_terms[:2])
            assert report.checked_order >= 3


def test_annihilation_of_zero_operator():
    _, data, ring, mori = pipeline("P1")
    series = tilde_i(i_function(data, ring, mori, 2), ring, data)
    report = annihilation_check(LogDiffOp.zero(1, 0), series, ring)
    assert report.ok


def test_annihilation_detects_wrong_operator():
    _, data, ring, mori = pipeline("P1")
    series = tilde_i(i_function(data, ring, mori, 3), ring, data)
    wrong = box_x(data, (1, 1)) + LogDiffOp.one(1, 0)
    report = annihilation_check(wrong, series, ring)
    assert not report.ok


def test_annihilation_catches_a_residual_at_the_bound_only():
    # chi^k times I-tilde starts in chi-degree k; with no del the bound is
    # the order 3, so chi^3 leaves a residual exactly at the bound and chi^4
    # only above it
    _, data, ring, mori = pipeline("P1")
    series = tilde_i(i_function(data, ring, mori, 3), ring, data)
    at_bound = annihilation_check(LogDiffOp.chi(1, 0, 0, 3), series, ring)
    assert at_bound.checked_order == 3 and not at_bound.ok
    assert {sum(term["key"][0]) for term in at_bound.residual_terms} == {3}
    assert annihilation_check(LogDiffOp.chi(1, 0, 0, 4), series, ring) == (
        AnnihilationReport(3, (), True))


def _whole(op, series, ring):
    """apply_operator with its cap at the top chi-degree of the product, so
    that every term of the action is formed."""
    top = (max((sum(key[0]) for key in series.terms), default=0)
           + max((sum(key[0]) for key in op.terms), default=0))
    return apply_operator(op, series, ring, top)


def test_apply_operator_product_rule():
    _, data, ring, _ = pipeline("P1")
    th = LogDiffOp.theta(1, 0, 0)
    key = ((1,), (1,), Fraction(0), 0)  # chi * log chi
    series = LogSeries(1, 0, ring.dim, {key: ring.one()}, order=3)
    out = apply_operator(th, series, ring, 1)
    # theta(chi log chi) = z chi log chi + z chi
    assert out.terms[((1,), (1,), Fraction(1), 0)] == ring.one()
    assert out.terms[((1,), (0,), Fraction(1), 0)] == ring.one()


def test_i_function_leading_shape():
    for name in CORPUS:
        _, data, ring, mori = pipeline(name)
        series = i_function(data, ring, mori, 2)
        key0 = ((0,) * (series.r + series.e), (0,) * series.r, Fraction(0), 0)
        terms = _fraction_view(series.terms, ring.int_degrees[1])
        assert terms[key0] == ring.one()
        for key in terms:
            if key != key0:
                assert key[2] <= -1  # asymptotic shape: everything beyond 1 decays in z


def test_operator_product_matches_sequential_application():
    # the normal-ordering rules and the series action rules are written
    # independently; products must act as compositions
    import random

    from orbimirror.ifunction import series_mul

    _, data, ring, mori = pipeline("P112")
    series = tilde_i(i_function(data, ring, mori, 2), ring, data)
    rng = random.Random(31)

    def rand_op():
        out = LogDiffOp.zero(1, 1)
        for _ in range(2):
            key = ((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(0, 1),
                   (rng.randint(0, 2),), (rng.randint(0, 1),), rng.randint(0, 1))
            out = out + LogDiffOp(1, 1, {key: rng.randint(-2, 2)})
        return out

    for _ in range(25):
        a, b = rand_op(), rand_op()
        combined = _whole(a * b, series, ring)
        sequential = _whole(a, _whole(b, series, ring), ring)
        assert combined.terms == sequential.terms


def test_hypergeometric_factor_rejects_ineffective_degree():
    import pytest
    from fractions import Fraction as F

    from orbimirror.ifunction import SeriesError

    _, data, ring, _ = pipeline("P112")
    den = data.m_ints[1]
    fake = {"beta": (0, -1), "pairings": tuple(x * den // 2 for x in (1, 0, 1, -2)),
            "sector": (0, 0)}
    assert _fraction_view([fake], den)[0]["pairings"] == (F(1, 2), F(0), F(1, 2), F(-1))
    with pytest.raises(SeriesError, match="extension pairing"):
        hypergeometric_factor(data, ring, fake)


def test_mirror_map_rejects_bad_leading_term():
    import pytest

    from orbimirror.ifunction import SeriesError

    _, data, ring, _ = pipeline("P1")
    series = LogSeries(1, 0, ring.dim,
                       {((0,), (0,), Fraction(0), 0): scale_class(ring.one(), 2)},
                       order=2)
    with pytest.raises(SeriesError, match="class 1"):
        mirror_map(series, ring, data)


def test_i_function_order_zero_is_prefactor():
    for name in ("P1", "P112"):
        _, data, ring, mori = pipeline(name)
        series = i_function(data, ring, mori, 0)
        pref = log_prefactor(data, ring).truncate(0)
        assert series.terms == pref.terms
        assert [d["beta"] for d in enumerate_degrees(mori, 0)] == [
            tuple(0 for _ in range(data.rank))
        ]


# -- the replaced routines, kept as oracles ----------------------------------------
#
# Before the series engine shared its work, every factor (D_i + w z)^{-1}
# rebuilt the powers of D_i, every degree recomputed its sector class and its
# pairings (three times), and every operator term rebuilt its derivatives of
# the whole series. These are those routines, on classes as Fraction vectors
# with the former Fraction class arithmetic (`_acc_oracle`, `_scaled_oracle`,
# `corpus.mul_oracle`, the derivative steps), from before the series engine
# kept classes as int numerators over one denominator.

SERIES_FANS = list(series_fans())
ORDERS = range(8)


class _FractionRing:
    """A ring's classes as Fraction vectors, multiplied by the former product."""

    def __init__(self, ring):
        self.ring = ring
        self.table = fraction_products(ring)

    def mul(self, u, v):
        return mul_oracle(self.table, u, v)

    def one(self):
        return class_vector(self.ring.one())


def _fraction_view(value, den):
    """The engine's int numerators over den as the Fractions that the oracles
    and the reports use: the z-exponents of a LogSeries, of a terms dict or of
    a hypergeometric factor {q: class} (den the ring's Q), or the pairings of
    a list of degrees (den the M matrix's denominator)."""
    if isinstance(value, LogSeries):
        return replace(value, terms=_fraction_view(value.terms, den))
    if isinstance(value, list):
        return [{**d, "pairings": tuple(Fraction(x, den) for x in d["pairings"])}
                for d in value]
    return {(k[0], k[1], Fraction(k[2], den), k[3]) if isinstance(k, tuple)
            else Fraction(k, den): vec for k, vec in value.items()}


def _pairs(terms):
    """{key: Fraction vector} as {key: class pair}, without the zero classes."""
    return {key: class_pair(vec) for key, vec in terms.items() if any(vec)}


def _vectors(terms):
    return {key: class_vector(cls) for key, cls in terms.items()}


def _acc_oracle(out, key, vec):
    """out[key] += vec for Fraction vectors, dropping the key when the sum is zero."""
    cur = out.get(key)
    if cur is None:
        if any(vec):
            out[key] = vec
    else:
        s = tuple(a + b if b else a for a, b in zip(cur, vec))
        if any(s):
            out[key] = s
        else:
            del out[key]


def _scaled_oracle(vec, c):
    """c * vec, multiplying only the nonzero entries."""
    return vec if c == 1 else tuple(x * c if x else x for x in vec)


def _powers_oracle(fring, cls):
    power = fring.one()
    while any(power):
        yield power
        power = fring.mul(power, cls)


def _laurent_mul_oracle(a, b, fring):
    out = {}
    for q1, v1 in a.items():
        for q2, v2 in b.items():
            _acc_oracle(out, q1 + q2, fring.mul(v1, v2))
    return out


def _series_mul_oracle(a, b, fring):
    """The former series_mul, on {key: Fraction vector} terms."""
    out = {}
    for (b1, k1, q1, j1), v1 in a.items():
        for (b2, k2, q2, j2), v2 in b.items():
            key = (tuple(x + y for x, y in zip(b1, b2)),
                   tuple(x + y for x, y in zip(k1, k2)), q1 + q2, j1 + j2)
            _acc_oracle(out, key, fring.mul(v1, v2))
    return out


def _act_theta_oracle(terms, a):
    out = {}
    for (beta, logk, q, j), vec in terms.items():
        if beta[a]:
            _acc_oracle(out, (beta, logk, q + 1, j), _scaled_oracle(vec, beta[a]))
        if logk[a]:
            logk2 = tuple(x - int(i == a) for i, x in enumerate(logk))
            _acc_oracle(out, (beta, logk2, q + 1, j), _scaled_oracle(vec, logk[a]))
    return out


def _act_del_oracle(terms, r, b):
    out = {}
    for (beta, logk, q, j), vec in terms.items():
        if beta[r + b]:
            beta2 = tuple(x - int(i == r + b) for i, x in enumerate(beta))
            _acc_oracle(out, (beta2, logk, q + 1, j), _scaled_oracle(vec, beta[r + b]))
    return out


def _act_e_oracle(terms):
    out = {}
    for (beta, logk, q, j), vec in terms.items():
        if q:
            _acc_oracle(out, (beta, logk, q + 1, j), _scaled_oracle(vec, q))
        if j:
            _acc_oracle(out, (beta, logk, q + 1, j - 1), _scaled_oracle(vec, j))
    return out


def _invert_linear_oracle(fring, cls, w):
    """(cls + w z)^{-1} as {z-exponent: class}; cls nilpotent, w nonzero."""
    if w == 0:
        raise SeriesError("cannot invert a scalar-zero factor")
    return {Fraction(-k - 1): tuple((-1) ** k * x / w ** (k + 1) for x in power)
            for k, power in enumerate(_powers_oracle(fring, cls))}


def _ray_factor_oracle(fring, acc, dbar, c):
    """acc times the telescoped factor ratio of one index, factor by factor."""
    ceil_c = -((-c.numerator) // c.denominator)
    if ceil_c >= 1:
        for s in range(ceil_c):
            w = c - s
            if w == 0:
                raise SeriesError("uncancelled scalar-zero denominator factor")
            if not any(dbar):
                acc = {q - 1: tuple(x / w for x in v) for q, v in acc.items()}
            else:
                acc = _laurent_mul_oracle(acc, _invert_linear_oracle(fring, dbar, w), fring)
    else:
        for nu in range(ceil_c, 0):
            w = c - nu
            lin = {Fraction(1): tuple(Fraction(w) * x for x in fring.one())}
            if any(dbar):
                lin[Fraction(0)] = dbar
            acc = _laurent_mul_oracle(acc, lin, fring)
    return acc


def _hypergeometric_factor_oracle(data, fring, degree):
    ext, ring = data.ext, fring.ring
    acc = {Fraction(0): class_vector(sector_class(data, ring, degree["sector"]))}
    for i in range(ext.n):
        c = Fraction(degree["pairings"][i])
        dbar = class_vector(dbar_class(data, ring, i))
        if i >= ext.m and (c.denominator != 1 or c < 0):
            raise SeriesError("extension pairing not a nonnegative integer on K^eff")
        acc = _ray_factor_oracle(fring, acc, dbar, c)
        if not acc:
            break
    return acc


def _enumerate_degrees_oracle(mori, order):
    rank = mori.picard.rank
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank:
            beta = tuple(prefix)
            if in_k_eff(mori, beta):
                out.append({
                    "beta": beta,
                    "pairings": d_pairings(mori, beta),
                    "sector": v_of(mori, beta),
                })
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], order)
    out.sort(key=lambda t: (sum(t["beta"]), t["beta"]))
    return out


def _log_prefactor_oracle(data, fring):
    r, e = data.r, data.e
    out = {((0,) * (r + e), (0,) * r, Fraction(0), 0): fring.one()}
    for a in range(r):
        pbar = class_vector(pbar_class(data, fring.ring, a))
        terms = {((0,) * (r + e), tuple(k if i == a else 0 for i in range(r)), Fraction(-k), 0):
                 tuple(x / factorial(k) for x in power)
                 for k, power in enumerate(_powers_oracle(fring, pbar))}
        out = _series_mul_oracle(out, terms, fring)
    return out


def _i_function_oracle(data, fring, mori, order, factors):
    """The former i_function, reading each degree's factor from `factors`,
    {beta: _hypergeometric_factor_oracle of that degree}."""
    r, e = data.r, data.e
    body = {}
    for degree in _enumerate_degrees_oracle(mori, order):
        for q, vec in factors[degree["beta"]].items():
            _acc_oracle(body, (tuple(degree["beta"]), (0,) * r, q, 0), vec)
    terms = _series_mul_oracle(_log_prefactor_oracle(data, fring), body, fring)
    return LogSeries(r, e, fring.ring.dim, _pairs(terms), order).truncate(order)


def _tilde_i_oracle(terms, fring, data):
    """The former tilde_i, on {key: Fraction vector} terms."""
    ring, r, e = fring.ring, data.r, data.e
    graded = {}
    for (beta, logk, q, j), vec in terms.items():
        by_deg = {}
        for idx, (mono, coeff) in enumerate(zip(ring.std_monomials, vec)):
            if coeff:
                by_deg.setdefault(ring.mono_degree(mono), [Fraction(0)] * ring.dim)[idx] = coeff
        for d, v in by_deg.items():
            _acc_oracle(graded, (beta, logk, q + d, j), tuple(v))
    rho = class_vector(rho_bar_class(data, ring))
    zrho = {((0,) * (r + e), (0,) * r, Fraction(0), k):
            tuple((-1) ** k * x / factorial(k) for x in power)
            for k, power in enumerate(_powers_oracle(fring, rho))}
    return _series_mul_oracle(graded, zrho, fring)


def _apply_operator_oracle(op, series, ring):
    r, e = op.r, op.e
    total = {}
    for (obeta, ok, s_exp, t_exp, u_exp), coeff in op.terms.items():
        current = _vectors(series.terms)
        for _ in range(u_exp):
            current = _act_e_oracle(current)
        for b in range(e):
            for _ in range(t_exp[b]):
                current = _act_del_oracle(current, r, b)
        for a in range(r):
            for _ in range(s_exp[a]):
                current = _act_theta_oracle(current, a)
        for (beta, logk, q, j), vec in current.items():
            key = (tuple(x + y for x, y in zip(beta, obeta)), logk, q + ok, j)
            _acc_oracle(total, key, tuple(x * coeff for x in vec))
    return LogSeries(series.r, series.e, series.dim, _pairs(total), series.order)


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS,
                         ids=[fan[0] for fan in SERIES_FANS])
def test_enumerate_degrees_matches_replaced_routine(name, data, ring, mori):
    for order in ORDERS:
        assert _fraction_view(enumerate_degrees(mori, order), data.m_ints[1]) == (
            _enumerate_degrees_oracle(mori, order))


def _check_series_against_oracles(data, ring, mori, orders):
    """hypergeometric_factor, i_function, and up to order 3 tilde_i and
    series_mul, against their Fraction oracles; returns the I-functions."""
    fring = _FractionRing(ring)
    tables = FactorTables(data, ring)
    zden = ring.int_degrees[1]
    factors = {}
    # the degrees of the top order include those of every lower order
    degrees = enumerate_degrees(mori, orders[-1])
    for degree, fraction_degree in zip(degrees, _fraction_view(degrees, data.m_ints[1])):
        factors[degree["beta"]] = _hypergeometric_factor_oracle(data, fring, fraction_degree)
        assert _fraction_view(hypergeometric_factor(data, ring, degree, tables), zden) == (
            _pairs(factors[degree["beta"]]))
    out = []
    for order in orders:
        series = i_function(data, ring, mori, order)
        view = _fraction_view(series, zden)
        assert view == _i_function_oracle(data, fring, mori, order, factors)
        if order <= 3:
            tilde = tilde_i(series, ring, data)
            tilde_view = _fraction_view(tilde.terms, zden)
            assert tilde_view == _pairs(_tilde_i_oracle(_vectors(view.terms), fring, data))
            assert _fraction_view(series_mul(tilde, series, ring).terms, zden) == _pairs(
                _series_mul_oracle(_vectors(tilde_view), _vectors(view.terms), fring))
        out.append(series)
    return out


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS,
                         ids=[fan[0] for fan in SERIES_FANS])
def test_hypergeometric_factor_matches_replaced_routine(name, data, ring, mori):
    _check_series_against_oracles(data, ring, mori, ORDERS)


def _annihilation_report_oracle(op, series, ring):
    """The former annihilation_check: the whole residual, filtered at the
    bound; on a series with Fraction z-exponents."""
    lower = max((sum(t) for (_, _, _, t, _) in op.terms), default=0)
    bound = series.order - lower
    residual = _apply_operator_oracle(op, series, ring)
    offending = tuple(
        {"key": key, "class": list(class_vector(vec))}
        for key, vec in sorted(residual.terms.items(),
                               key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1], kv[0][2], kv[0][3]))
        if sum(key[0]) <= bound
    )
    return AnnihilationReport(bound, offending, not offending)


def _checked_operators(data, ring):
    """Every operator of `all`, and each of them plus z (which no longer
    annihilates I-tilde), so that reports with a residual are compared too."""
    ops = [euler_check(data)] + box_operators(data, ring)
    return ops + [op + LogDiffOp.z(data.r, data.e) for op in ops]


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS,
                         ids=[fan[0] for fan in SERIES_FANS])
def test_apply_operator_matches_replaced_routine(name, data, ring, mori):
    # every operator of `all` on one series object, so that later operators
    # read the derivatives that earlier ones left there; with its cap at the
    # top degree the action is the whole one, and below it the part up to the cap
    ops = [euler_check(data)] + box_operators(data, ring)
    zden = ring.int_degrees[1]
    for order in ORDERS:
        series = tilde_i(i_function(data, ring, mori, order), ring, data)
        view = _fraction_view(series, zden)
        for op in ops:
            expected = _apply_operator_oracle(op, view, ring)
            assert _fraction_view(_whole(op, series, ring), zden) == expected
            cap = order // 2
            assert _fraction_view(apply_operator(op, series, ring, cap).terms, zden) == {
                key: vec for key, vec in expected.terms.items() if sum(key[0]) <= cap}


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS,
                         ids=[fan[0] for fan in SERIES_FANS])
def test_annihilation_check_matches_unbounded_oracle(name, data, ring, mori):
    ops = _checked_operators(data, ring)
    for order in ORDERS:
        series = tilde_i(i_function(data, ring, mori, order), ring, data)
        view = _fraction_view(series, ring.int_degrees[1])
        for op in ops:
            assert annihilation_check(op, series, ring) == _annihilation_report_oracle(
                op, view, ring), (name, order)


def test_series_derivatives_live_on_their_series():
    _, data, ring, mori = pipeline("P112")
    series = tilde_i(i_function(data, ring, mori, 3), ring, data)
    ops = [euler_check(data)] + box_operators(data, ring)
    results = [_whole(op, series, ring) for op in ops]
    kept = dict(series._derivatives)
    # E^2 needs E first; a series made from this one starts afresh
    assert ((0,), (0,), 1) in kept
    truncated = series.truncate(2)
    assert truncated._derivatives == {((0,), (0,), 0): truncated.terms}
    # the operators in reverse order, on a series with the shared entries,
    # and on a fresh one, agree with the first pass
    assert [_whole(op, series, ring) for op in ops[::-1]] == results[::-1]
    assert series._derivatives.keys() == kept.keys()
    fresh = LogSeries(series.r, series.e, series.dim, series.terms, series.order)
    assert [_whole(op, fresh, ring) for op in ops[::-1]] == results[::-1]


_RING = pipeline("P1113")[2]
_FRING = _FractionRing(_RING)


@settings(max_examples=150, deadline=None)
@given(num=st.integers(-40, 40), den=st.integers(1, 7),
       coeffs=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                       min_size=4, max_size=4))
def test_factor_scalars_match_the_direct_product(num, den, coeffs):
    """sum_K a_K D^K z^{-ceil c - K} is the product of the linear factors, for
    a random nilpotent class D (a combination of the positive-degree divisor
    classes) and a random rational c."""
    ring, c = _RING, Fraction(num, den)
    dbar = ring.zero_class()
    for i, coeff in enumerate(coeffs):
        dbar = add_classes(dbar, scale_class(ring.class_of_var(i), coeff))
    powers = list(_powers(ring, dbar))
    ceil_c = -((-c.numerator) // c.denominator)
    scalars, d = factor_scalars((c.numerator, c.denominator), len(powers))
    assert len(scalars) == len(powers) and d > 0 and gcd(d, *scalars) == 1
    closed = {}
    for k, (a, power) in enumerate(zip(scalars, powers)):
        _acc_oracle(closed, Fraction(-ceil_c - k),
                    tuple(Fraction(a, d) * x for x in class_vector(power)))
    assert closed == _ray_factor_oracle(
        _FRING, {Fraction(0): _FRING.one()}, class_vector(dbar), c)


# The weighted planes have larger boxes than any corpus fan, so more sectors,
# extension variables and fractional z-exponents; orders up to 5.
WEIGHTED_SERIES = list(series_fans(weighted_planes()))


@pytest.mark.parametrize("name, data, ring, mori", WEIGHTED_SERIES,
                         ids=[fan[0] for fan in WEIGHTED_SERIES])
def test_series_kernel_matches_fraction_oracles_on_weighted_planes(name, data, ring, mori):
    orders = range(6) if ring.dim < 10 else range(4)
    ops = _checked_operators(data, ring)
    zden = ring.int_degrees[1]
    for series in _check_series_against_oracles(data, ring, mori, orders):
        tilde = tilde_i(series, ring, data)
        view = _fraction_view(tilde, zden)
        for op in ops:
            assert _fraction_view(_whole(op, tilde, ring), zden) == _apply_operator_oracle(
                op, view, ring), name
            assert annihilation_check(op, tilde, ring) == _annihilation_report_oracle(
                op, view, ring), name


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS + WEIGHTED_SERIES,
                         ids=[fan[0] for fan in SERIES_FANS + WEIGHTED_SERIES])
def test_int_cone_tests_and_ceiling_match_fraction_oracles(name, data, ring, mori):
    """The int tests of K and K^eff and the int ceiling map v(d), on the int
    pairings enumerate_degrees carries and on t alone, against the former
    Fraction `in_k_eff`, `in_k` and `v_of`, on every candidate degree that
    enumerate_degrees tries up to order 7."""
    den = data.m_ints[1]
    for beta in product(range(max(ORDERS) + 1), repeat=data.rank):
        if sum(beta) > max(ORDERS):
            continue
        fractions = d_pairings(mori, beta)
        nums = mori.pairing_nums(beta)
        assert nums == tuple(x * den for x in fractions) and mori.d_pairings(beta) == fractions
        effective = in_k_eff(mori, beta)
        assert (mori.integer_pattern(beta, True, nums) in mori.anticones_e) == effective
        assert (mori.integer_pattern(beta, True) in mori.anticones_e) == effective
        assert mori.in_k(beta, nums) == mori.in_k(beta) == (tuple(
            i for i, v in enumerate(fractions) if v.denominator == 1) in mori.anticones_e)
        assert mori.v_of(beta, nums) == mori.v_of(beta) == v_of(mori, beta)


def test_reports_give_z_exponents_and_pairings_as_fractions(capsys):
    """The int z-exponents and pairings become Fractions at the report
    boundary: in the mirror map's shape error, in term_list (integral ones
    print as "-1/1"), in the annihilation residual's keys and in the
    ifunction report's degree pairings. P(1,1,3) has the ring denominator
    Q = 3, so its keys are not the Fractions they stand for."""
    from orbimirror.cli import main
    from orbimirror.fandoc import to_jsonable

    _, data, ring, mori = next(fan for fan in SERIES_FANS if fan[0] == "p113")
    zden = ring.int_degrees[1]
    assert zden == 3
    one_key = ((0, 0), (0,), 0, 0)
    shape = LogSeries(1, 1, ring.dim, {one_key: ring.one(), ((0, 1), (0,), -1, 0): ring.one()})
    with pytest.raises(SeriesError, match=r"z-exponents \[Fraction\(-1, 3\)\] > -1"):
        mirror_map(shape, ring, data)

    series = i_function(data, ring, mori, 2)
    tilde = tilde_i(series, ring, data)
    for each in (series, tilde):
        terms = each.term_list(ring)
        assert all(type(term["z_exponent"]) is Fraction for term in terms)
        assert [term["z_exponent"] for term in terms] == [
            Fraction(key[2], zden) for key in sorted(each.terms, key=lambda k: (sum(k[0]), k))]
    printed = {term["z_exponent"] for term in to_jsonable(series.term_list(ring))}
    assert {"0/1", "-1/1", "-2/1"} <= printed
    printed = {term["z_exponent"] for term in to_jsonable(tilde.term_list(ring))}
    assert {"-1/3", "-2/3"} <= printed

    residual = annihilation_check(LogDiffOp.chi(1, 1, 1, 2), tilde, ring).residual_terms
    assert residual and all(type(term["key"][2]) is Fraction for term in residual)
    assert {term["key"][2] for term in residual} == {
        Fraction(key[2], zden) for key in tilde.terms if sum(key[0]) == 0}

    assert main(["ifunction", str(Path(__file__).parent / "data" / "p113.json"),
                 "--order", "2"]) == 0
    degrees = json.loads(capsys.readouterr().out)["results"]["degrees"]
    assert [d["pairings"] for d in degrees] == [
        [f"{x.numerator}/{x.denominator}" for x in d_pairings(mori, d["beta"])]
        for d in degrees]
    assert ["-1/3", "0/1", "-1/3", "1/1"] in [d["pairings"] for d in degrees]
