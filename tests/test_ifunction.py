from fractions import Fraction
from itertools import product
import json
from math import factorial, gcd
from operator import add
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    CORPUS,
    add_classes,
    box_operators,
    d_pairings,
    ext_of_doc,
    fraction_products,
    in_k_eff,
    mul_oracle,
    pipeline,
    reflexive_pairs,
    scale_class,
    series_fans,
    to_jsonable,
    v_of,
    weighted_planes,
    weighted_projective_space,
)
from orbimirror import ifunction
from orbimirror.cohomology import class_pair, class_vector, is_nef, presentation, reduced_class
from orbimirror.ifunction import (
    AnnihilationReport,
    FactorTables,
    LogSeries,
    SeriesError,
    _acc,
    _classes,
    _powers,
    annihilation_check,
    apply_operator,
    enumerate_degrees,
    factor_scalars,
    hypergeometric_factor,
    i_function,
    mirror_map,
    series_mul,
    series_one,
    tilde_i,
)
from orbimirror.linalg import ResourceLimitError
from orbimirror.operators import (
    LogDiffOp,
    box_x,
    chained_action,
    dbar_class,
    euler_check,
    operator_families,
    pbar_class,
    rho_bar_class,
    sector_class,
)
from orbimirror.picard import PicardError, choose_basis_p, extended_pl_and_pic, mori_lattices


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
            assert mori.v_of(mori.pairing_nums(deg["beta"])) == tuple(deg["sector"])
            # the sector must be a box element present in the coset table
            assert tuple(deg["sector"]) in set(table.values())


def test_hypergeometric_factor_d_zero_is_one():
    _, data, ring, mori = pipeline("P112")
    deg = next(d for d in enumerate_degrees(mori, 0))
    factor = hypergeometric_factor(data, ring, deg, FactorTables(data, ring))
    assert factor == {Fraction(0): ring.one()}


def test_hypergeometric_factor_p1_d1():
    _, data, ring, mori = pipeline("P1")
    deg = next(d for d in enumerate_degrees(mori, 1) if d["beta"] == (1,))
    factor = hypergeometric_factor(data, ring, deg, FactorTables(data, ring))
    h = ring.class_of_var(0)
    # 1/(h+z)^2 = z^{-2} - 2 h z^{-3}
    assert factor[Fraction(-2)] == ring.one()
    assert factor[Fraction(-3)] == scale_class(h, -2)


def test_hypergeometric_factor_twisted_sector_support():
    _, data, ring, mori = pipeline("P112")
    deg = next(d for d in enumerate_degrees(mori, 1) if d["beta"] == (0, 1))
    factor = hypergeometric_factor(data, ring, deg, FactorTables(data, ring))
    twisted = ring.class_of_var(3)  # the class of D4 = 1_{(0,-1)}
    assert factor == {Fraction(-1): twisted}


def _scaled(vec, c, d=1):
    """(c / d) * vec for ints c != 0 and d > 0, as a canonical class: the
    replaced int helper of the series engine, kept for the oracles."""
    nums, den = vec
    if d != 1:
        return reduced_class([x * c for x in nums], den * d)
    if c == 1:
        return vec
    g = gcd(c, den)
    if g != 1:
        c, den = c // g, den // g
    return tuple(x * c for x in nums), den


def log_prefactor(data, ring):
    """exp(sum_{a<=r} pbar_a log chi_a / z) as a LogSeries, expanded finitely
    by nilpotency: the replaced factor that i_function multiplied its
    hypergeometric sum by with `series_mul`."""
    r, e, zden = data.r, data.e, ring.int_degrees[1]
    out = series_one(ring, r, e)
    for a in range(r):
        terms = {((0,) * (r + e), tuple(k if i == a else 0 for i in range(r)), -k * zden, 0):
                 _scaled(power, 1, factorial(k))
                 for k, power in enumerate(_powers(ring, pbar_class(data, ring, a)))}
        out = series_mul(out, LogSeries(r, e, ring.dim, terms), ring)
    return out


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
        hypergeometric_factor(data, ring, fake, FactorTables(data, ring))


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


def _nef_series_fans():
    """The nef X and Z of every reflexive pair, P(1,1,1,3), P(1,1,2,2) and
    P(1,2,2,5) (Gorenstein, so their ages are integers), and P(1,1,1,4), whose
    ages are fractional (ring denominator Q = 4); those that the bounded
    p-basis search refuses (ROADMAP item 8) have no I-function and are left
    out."""
    fans = [(f"{name}-{side}", ext_of_doc(doc)) for name, x, z in reflexive_pairs()
            for side, doc in (("X", x), ("Z", z))]
    fans += [(f"P(1,{a},{b},{c})", ext_of_doc(weighted_projective_space(a, b, c)))
             for a, b, c in ((1, 1, 3), (1, 2, 2), (2, 2, 5), (1, 1, 4))]
    out = []
    for name, ext in fans:
        assert is_nef(ext), name
        picard = extended_pl_and_pic(ext)
        try:
            data = choose_basis_p(picard)
        except (PicardError, ResourceLimitError) as exc:
            assert "p-basis" in str(exc), name
            continue
        out.append((name, data, presentation(ext), mori_lattices(data)))
    return out


NEF_SERIES = _nef_series_fans()
# The nef fans and P(1,2,6,9), a 3-d fan with 7 extension rays, run the
# replaced routines at orders 0-4 (`_oracle_orders`); the corpus fans at ORDERS.
P1269 = list(series_fans([("P(1,2,6,9)", ext_of_doc(weighted_projective_space(2, 6, 9)))]))
ORACLE_FANS = SERIES_FANS + NEF_SERIES + P1269


def _oracle_orders(name):
    return ORDERS if name in {fan[0] for fan in SERIES_FANS} else range(5)


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
        return value.replace(terms=_fraction_view(value.terms, den))
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


def _enumerate_degrees_per_degree(mori, order):
    """The replaced int enumerate_degrees: the sector v(d) computed from the
    pairings of every degree."""
    rank = mori.picard.rank
    rows = mori.picard.m_ints[0]
    columns = list(zip(*rows))
    out = []

    def rec(beta, pairings, remaining):
        if len(beta) == rank:
            if mori.integer_pattern(pairings, True) in mori.anticones_e:
                out.append({"beta": beta, "pairings": pairings, "sector": mori.v_of(pairings)})
            return
        column = columns[len(beta)]
        for c in range(remaining + 1):
            if c:
                pairings = tuple(x + y for x, y in zip(pairings, column))
            rec(beta + (c,), pairings, remaining - c)

    rec((), (0,) * len(rows), order)
    out.sort(key=lambda t: (sum(t["beta"]), t["beta"]))
    return out


def _class_per_product_factor(data, ring, degree, tables):
    """The replaced hypergeometric_factor: 1_v times each ray's factor class
    by `ring.mul`, which reduces the running class after every product."""
    zden, mden = tables.zden, data.m_ints[1]
    acc, age = tables.sector(degree["sector"])
    shift, scale = 0, 1
    for i, n in enumerate(degree["pairings"]):
        if i >= data.ext.m:
            shift += n // mden
            scale *= factorial(n // mden)
            continue
        n, d = n // gcd(n, mden), mden // gcd(n, mden)
        ceil_c = -((-n) // d)
        if ceil_c:
            shift += ceil_c
            acc = ring.mul(acc, tables.factor(i, n, d))
            if not any(acc[0]):
                return {}
    nums, den = acc
    parts = {}
    for idx, (x, g) in enumerate(zip(nums, tables.degrees)):
        if x:
            parts.setdefault(g, [0] * len(nums))[idx] = x
    return {age - shift * zden - g: reduced_class(part, den * scale)
            for g, part in parts.items()}


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


# The replaced int route: before the derivatives were kept as blocks, each
# step of theta^s del^t E^u built one canonical class per term, and the
# residual was summed class by class, every sum reduced on its own.


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


def _class_memo(series):
    """The replaced derivative memo of a series: its terms under the zero key."""
    return {((0,) * series.r, (0,) * series.e, 0): series.terms}


def _apply_operator_classes(op, series, ring, cap, memo):
    """The replaced apply_operator, its derivatives kept in memo (start it
    with `_class_memo(series)` and share it among operators on the series)."""
    zden = ring.int_degrees[1]

    def act(terms, kind, i):
        if kind == "theta":
            return _act_theta(terms, i, zden)
        if kind == "del":
            return _act_del(terms, series.r, i, zden)
        return _act_e(terms, zden)

    total: dict = {}
    for (obeta, ok, s_exp, t_exp, u_exp), coeff in op.nums.items():
        room = cap - sum(obeta)
        if room < 0:
            continue
        for (beta, logk, q, j), vec in chained_action(memo, (s_exp, t_exp, u_exp), act).items():
            if sum(beta) <= room:
                key = (tuple(map(add, beta, obeta)), logk, q + ok * zden, j)
                _acc(total, key, _scaled(vec, coeff))
    return LogSeries(series.r, series.e, series.dim, _classes(total, op.den), series.order)


@pytest.mark.parametrize("name, data, ring, mori", ORACLE_FANS,
                         ids=[fan[0] for fan in ORACLE_FANS])
def test_enumerate_degrees_matches_replaced_routine(name, data, ring, mori):
    """Against the Fraction oracle and the replaced int route, which made
    each degree's sector from its own pairings."""
    for order in _oracle_orders(name):
        degrees = enumerate_degrees(mori, order)
        assert degrees == _enumerate_degrees_per_degree(mori, order), (name, order)
        assert _fraction_view(degrees, data.m_ints[1]) == (
            _enumerate_degrees_oracle(mori, order)), (name, order)


def test_sectors_are_read_off_the_pairing_residues():
    """For d in L (x) Q, sum_i c_i b_i = 0 with c_i = <D_i, d>, so
    v(d) = sum_i ceil(c_i) b_i = sum_i (ceil c_i - c_i) b_i depends only on
    each c_i mod 1. On every reflexive X with a p-basis, to order 5: every
    enumerated degree's sector is v_of its pairings, degrees with equal
    residues share it, and it is the Fraction sum of the residues'
    complements."""
    twisted = 0
    for name, data, ring, mori in (fan for fan in NEF_SERIES if fan[0].endswith("-X")):
        den, gens = data.m_ints[1], data.ext.generators
        shared = {}
        degrees = enumerate_degrees(mori, 5)
        for degree in degrees:
            pairings, sector = degree["pairings"], degree["sector"]
            assert sector == mori.v_of(pairings), (name, degree["beta"])
            residues = tuple(x % den for x in pairings)
            assert shared.setdefault(residues, sector) == sector, (name, degree["beta"])
            for k in range(data.ext.d):
                assert sum(x * g[k] for x, g in zip(pairings, gens)) == 0
                assert sum(Fraction((-x) % den, den) * g[k]
                           for x, g in zip(pairings, gens)) == sector[k], name
        assert len(degrees) > len(shared), name
        twisted += len(shared) > 1
    assert twisted >= 5


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


@pytest.mark.parametrize("name, data, ring, mori", ORACLE_FANS,
                         ids=[fan[0] for fan in ORACLE_FANS])
def test_hypergeometric_factor_matches_replaced_routine(name, data, ring, mori):
    """Against the replaced int route, which reduced its class after every
    ring product, degree by degree, and on the corpus fans against the
    Fraction oracles (which the other fans meet in
    `test_one_class_factors_and_chains_match_oracles_on_nef_fans`)."""
    orders = _oracle_orders(name)
    if orders is ORDERS:
        _check_series_against_oracles(data, ring, mori, orders)
    tables = FactorTables(data, ring)
    for degree in enumerate_degrees(mori, orders[-1]):
        assert hypergeometric_factor(data, ring, degree, tables) == _class_per_product_factor(
            data, ring, degree, tables), (name, degree["beta"])


def _laurent_mul(a, b, ring):
    out = {}
    for q1, v1 in a.items():
        for q2, v2 in b.items():
            _acc(out, q1 + q2, ring.mul(v1, v2))
    return _classes(out)


def _laurent_factor(data, ring, degree):
    """The replaced int hypergeometric_factor: each ray's factor as the
    Laurent polynomial sum_K (a_K / den) D-bar_i^K z^{-ceil c - K}, multiplied
    in by `_laurent_mul`, term by term."""
    zden, mden = ring.int_degrees[1], data.m_ints[1]
    acc = {0: sector_class(data, ring, degree["sector"])}
    for i, n in enumerate(degree["pairings"]):
        if i >= data.ext.m:
            c = n // mden
            acc = {q - c * zden: _scaled(v, 1, factorial(c)) for q, v in acc.items()}
            continue
        n, d = n // gcd(n, mden), mden // gcd(n, mden)
        ceil_c = -((-n) // d)
        if ceil_c:
            powers = list(_powers(ring, dbar_class(data, ring, i)))
            scalars, den = factor_scalars((n, d), len(powers))
            acc = _laurent_mul(acc, {(-ceil_c - k) * zden: _scaled(power, a, den)
                                     for k, (a, power) in enumerate(zip(scalars, powers)) if a},
                               ring)
    return acc


@pytest.mark.parametrize("name, data, ring, mori", NEF_SERIES + P1269,
                         ids=[fan[0] for fan in NEF_SERIES + P1269])
def test_one_class_factors_and_chains_match_oracles_on_nef_fans(name, data, ring, mori):
    """hypergeometric_factor (one class per degree, split by degree),
    i_function and tilde_i (exp chains of one int operator) against the
    Fraction oracles at orders 0-4, and each factor against the replaced
    Laurent-product route."""
    _check_series_against_oracles(data, ring, mori, range(5))
    tables = FactorTables(data, ring)
    for degree in enumerate_degrees(mori, 4):
        assert hypergeometric_factor(data, ring, degree, tables) == _laurent_factor(
            data, ring, degree), name


def test_nef_fans_include_fractional_ages():
    zdens = {name: ring.int_degrees[1] for name, _, ring, _ in NEF_SERIES}
    assert len(zdens) == len(NEF_SERIES) > 20
    assert {name: zdens.get(name) for name in ("P(1,1,1,3)", "P(1,1,2,2)", "P(1,2,2,5)",
                                               "P(1,1,1,4)")} == {
        "P(1,1,1,3)": 1, "P(1,1,2,2)": 1, "P(1,2,2,5)": 1, "P(1,1,1,4)": 4}


def test_inhomogeneous_classes_raise_series_error(monkeypatch):
    """The one-class factor reads z-exponents off degrees, so a sector class
    that is not homogeneous of degree age(v), or a ray class not homogeneous
    of degree 1, is refused."""
    _, data, ring, mori = pipeline("P112")
    twisted = next(d for d in enumerate_degrees(mori, 1) if d["beta"] == (0, 1))
    real_sector = ifunction.sector_class
    for fake in (lambda *args: add_classes(ring.one(), real_sector(*args)),
                 lambda *args: ring.one()):
        monkeypatch.setattr(ifunction, "sector_class", fake)
        with pytest.raises(SeriesError, match=r"sector class 1_\[0, -1\] is not homogeneous"):
            hypergeometric_factor(data, ring, twisted, FactorTables(data, ring))
    monkeypatch.setattr(ifunction, "sector_class", real_sector)
    monkeypatch.setattr(ifunction, "dbar_class", lambda data, ring, i: ring.one())
    with pytest.raises(SeriesError, match="ray class D1 is not homogeneous of degree 1"):
        i_function(data, ring, mori, 1)


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
    # E^2 needs E first; a series made from this one starts afresh, from the
    # block of its own terms over the lcm of their denominators
    assert ((0,), (0,), 1) in kept
    truncated = series.truncate(2)
    zero = ((0,), (0,), 0)
    assert list(truncated._derivatives) == [zero]
    block = truncated._derivatives[zero]
    assert block.size == len(block.layers) == 3 and all(
        sum(key[0]) == g for g, layer in enumerate(block.layers) for key in layer)
    assert {key: reduced_class(nums, block.den) for layer in block.layers
            for key, nums in layer.items()} == truncated.terms
    # a block is built only as deep as it is read, its del prefix one layer
    # deeper; a deeper read extends both, to what a fresh series builds whole
    zden = ring.int_degrees[1]
    theta_del, dell = ((1,), (1,), 0), ((0,), (1,), 0)
    shallow = LogSeries(series.r, series.e, series.dim, series.terms, series.order)
    read = shallow.derivative(*theta_del, zden, 0)
    blocks = shallow._derivatives
    assert len(read[0]) == len(blocks[theta_del].layers) == len(blocks[dell].layers) == 1
    assert blocks[theta_del].size == blocks[dell].size == 3 and blocks[zero].size == 4
    deeper = shallow.derivative(*theta_del, zden, 5)
    assert deeper[0][:1] == read[0] and len(deeper[0]) == len(blocks[dell].layers) == 3
    whole = LogSeries(series.r, series.e, series.dim, series.terms, series.order)
    assert whole.derivative(*theta_del, zden, 2) == deeper == series.derivative(
        *theta_del, zden, 2)
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


def _random_operator(rng, r, e):
    """One to four terms, each with a chi-shift, a z-power, a Fraction
    coefficient and at most two of its theta, del and E powers nonzero, each
    of those up to 4 (more would kill most of I-tilde)."""
    nums = {}
    for _ in range(rng.randint(1, 4)):
        powers = [0] * (r + e + 1)
        for _ in range(rng.randint(0, 2)):
            powers[rng.randrange(r + e + 1)] = rng.randint(1, 4)
        key = (tuple(rng.randint(0, 2) for _ in range(r + e)), rng.randint(-1, 2),
               tuple(powers[:r]), tuple(powers[r:-1]), powers[-1])
        nums[key] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return LogDiffOp(r, e, nums)


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS + WEIGHTED_SERIES,
                         ids=[fan[0] for fan in SERIES_FANS + WEIGHTED_SERIES])
def test_derivative_blocks_match_class_route_and_fraction_oracle(name, data, ring, mori):
    """Random operators on I-tilde, at every cap from 0 to the order: the
    block kernel gives the residual of the replaced class-per-term route and
    of the Fraction oracle, the operators sharing one series object (and the
    class route one memo), so later ones read the blocks earlier ones left.
    The caps run in increasing, decreasing and shuffled order, each on a
    series object of its own, so that a block built shallow is later
    extended, and a deep one read shallow."""
    order = 4
    rng = Random(name)
    zden = ring.int_degrees[1]
    series = tilde_i(i_function(data, ring, mori, order), ring, data)
    view = _fraction_view(series, zden)
    memo = _class_memo(series)
    caps, shuffler = list(range(order + 1)), Random(f"{name} caps")
    copies = {label: LogSeries(series.r, series.e, series.dim, series.terms, series.order)
              for label in ("decreasing", "shuffled")}
    nonzero = 0
    for _ in range(12):
        op = _random_operator(rng, data.r, data.e)
        expected = _apply_operator_oracle(op, view, ring).terms
        got = {}
        for cap in caps:
            got[cap] = apply_operator(op, series, ring, cap)
            assert got[cap] == _apply_operator_classes(op, series, ring, cap, memo), (name, cap)
            assert _fraction_view(got[cap].terms, zden) == {
                key: vec for key, vec in expected.items() if sum(key[0]) <= cap}, (name, cap)
            nonzero += bool(got[cap].terms)
        shuffled = caps[:]
        shuffler.shuffle(shuffled)
        for label, order_of_caps in (("decreasing", caps[::-1]), ("shuffled", shuffled)):
            for cap in order_of_caps:
                assert apply_operator(op, copies[label], ring, cap) == got[cap], (name, label, cap)
    assert nonzero


def test_apply_operator_reduces_each_residual_key_once(monkeypatch):
    _, data, ring, mori = pipeline("P112")
    series = tilde_i(i_function(data, ring, mori, 3), ring, data)
    ops = _checked_operators(data, ring) + [_random_operator(Random(k), data.r, data.e)
                                             for k in range(8)]
    reduced = []
    monkeypatch.setattr(ifunction, "reduced_class",
                        lambda nums, den: reduced.append(den) or reduced_class(nums, den))
    residuals = 0
    for op in ops:
        reduced.clear()
        residual = _whole(op, series, ring)
        assert len(reduced) <= len(residual.terms)
        residuals += bool(residual.terms)
    assert residuals


@pytest.mark.parametrize("name, data, ring, mori", SERIES_FANS + WEIGHTED_SERIES,
                         ids=[fan[0] for fan in SERIES_FANS + WEIGHTED_SERIES])
def test_int_cone_tests_and_ceiling_match_fraction_oracles(name, data, ring, mori):
    """The int tests of K and K^eff and the int ceiling map v(d), on the int
    pairing numerators that enumerate_degrees carries, against the former
    Fraction `in_k_eff`, `in_k` and `v_of`, on every candidate degree that
    enumerate_degrees tries up to order 7."""
    den = data.m_ints[1]
    for beta in product(range(max(ORDERS) + 1), repeat=data.rank):
        if sum(beta) > max(ORDERS):
            continue
        fractions = d_pairings(mori, beta)
        nums = mori.pairing_nums(beta)
        assert nums == tuple(x * den for x in fractions) and mori.d_pairings(nums) == fractions
        effective = in_k_eff(mori, beta)
        assert (mori.integer_pattern(nums, True) in mori.anticones_e) == effective
        assert mori.in_k(nums) == (tuple(
            i for i, v in enumerate(fractions) if v.denominator == 1) in mori.anticones_e)
        assert mori.v_of(nums) == v_of(mori, beta)


def test_reports_give_z_exponents_and_pairings_as_fractions(capsys):
    """The int z-exponents and pairings become Fractions at the report
    boundary: in the mirror map's shape error, in term_list (integral ones
    print as "-1/1"), in the annihilation residual's keys and in the
    ifunction report's degree pairings. P(1,1,3) has the ring denominator
    Q = 3, so its keys are not the Fractions they stand for."""
    from orbimirror.cli import main

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
