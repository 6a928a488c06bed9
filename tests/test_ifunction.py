from fractions import Fraction

import pytest

from corpus import CORPUS, pipeline
from orbimirror.ifunction import (
    LogSeries,
    annihilation_check,
    apply_operator,
    enumerate_degrees,
    hypergeometric_factor,
    i_function,
    log_prefactor,
    mirror_map,
    series_one,
    tilde_i,
)
from orbimirror.operators import LogDiffOp, box_x, euler_check, operator_families


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
                expected = ring.add(expected, ring.scale(powers[k], c))
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
    assert factor[Fraction(-3)] == ring.scale(h, -2)


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
    assert mm3.analytic[(0, 1)] == twisted
    # hand telescope for chi_2^3: (D1 - z/2)(D3 - z/2)/(6 z^3) cupped with the
    # twisted unit has z^{-1} coefficient (1/24) * twisted
    assert mm3.analytic[(0, 3)] == ring.scale(twisted, Fraction(1, 24))
    assert set(mm3.analytic) == {(0, 1), (0, 3)}
    for key, value in mm3.analytic.items():
        assert mm4.analytic[key] == value
    for vec in mm3.analytic.values():
        assert ring.class_degree(vec) is not None and ring.class_degree(vec) <= 1


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
    rho = ring.scale(ring.class_of_var(0), 2)  # rho-bar = 2h on P1
    assert tilde.terms[key0] == ring.one()
    assert tilde.terms[key1] == ring.scale(rho, -1)
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


def test_apply_operator_product_rule():
    _, data, ring, _ = pipeline("P1")
    th = LogDiffOp.theta(1, 0, 0)
    key = ((1,), (1,), Fraction(0), 0)  # chi * log chi
    series = LogSeries(1, 0, ring.dim, {key: ring.one()}, order=3)
    out = apply_operator(th, series, ring)
    # theta(chi log chi) = z chi log chi + z chi
    assert out.terms[((1,), (1,), Fraction(1), 0)] == ring.one()
    assert out.terms[((1,), (0,), Fraction(1), 0)] == ring.one()


def test_i_function_leading_shape():
    for name in CORPUS:
        _, data, ring, mori = pipeline(name)
        series = i_function(data, ring, mori, 2)
        key0 = ((0,) * (series.r + series.e), (0,) * series.r, Fraction(0), 0)
        assert series.terms[key0] == ring.one()
        for key in series.terms:
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
        combined = apply_operator(a * b, series, ring)
        sequential = apply_operator(a, apply_operator(b, series, ring), ring)
        assert combined.terms == sequential.terms


def test_hypergeometric_factor_rejects_ineffective_degree():
    import pytest
    from fractions import Fraction as F

    from orbimirror.ifunction import SeriesError

    _, data, ring, _ = pipeline("P112")
    fake = {"beta": (0, -1), "pairings": (F(1, 2), F(0), F(1, 2), F(-1)),
            "sector": (0, 0)}
    with pytest.raises(SeriesError, match="extension pairing"):
        hypergeometric_factor(data, ring, fake)


def test_mirror_map_rejects_bad_leading_term():
    import pytest

    from orbimirror.ifunction import SeriesError

    _, data, ring, _ = pipeline("P1")
    series = LogSeries(1, 0, ring.dim,
                       {((0,), (0,), Fraction(0), 0): ring.scale(ring.one(), 2)},
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
