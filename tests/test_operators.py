import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest

from corpus import (
    CORPUS,
    DATA,
    box_operators,
    differential_fans,
    ext_of_doc,
    l_coords_oracle,
    pairing_p_oracle,
    pipeline,
    series_fans,
    weighted_planes,
)
from orbimirror import operators
from orbimirror.cohomology import (
    add_term,
    binomial_relation_vectors,
    cone_lattice_groebner,
    lattice_ideal_groebner,
    presentation,
)
from orbimirror.fan import generalized_primitive_collections
from orbimirror.linalg import kernel_basis, solve_general
from orbimirror.operators import (
    LogDiffOp,
    OperatorError,
    _family_union,
    bold_d_poly,
    box_tilde,
    box_x,
    check_unfolding_conditions,
    degenerate_limit,
    euler_check,
    factorization_residual,
    limit_poly,
    operator_families,
    p_pairings,
    pbar_class,
    primitive_relation,
    ray_products,
    residue_algebra,
    residue_map_well_defined,
    script_d_tilde,
    symbol_at_origin,
    symbol_fiber_dimension,
)
from orbimirror.picard import (
    PicardError,
    choose_basis_p,
    distinguished_relations,
    extended_pl_and_pic,
)


# -- normal-ordered algebra -----------------------------------------------------


def test_commutation_rules():
    # (0, 2) is the lambda chart: theta is z lambda_1 dlambda_1 there
    for r, e in ((1, 1), (0, 2)):
        th = LogDiffOp.theta(r, e, 0)
        chi = LogDiffOp.chi(r, e, 0)
        z = LogDiffOp.z(r, e)
        assert th * chi - chi * th == z * chi
        dl = LogDiffOp.dell(r, e, 0)
        chi2 = LogDiffOp.chi(r, e, r)
        assert dl * chi2 - chi2 * dl == z
        E = LogDiffOp.euler_z(r, e)
        assert E * z - z * E == z * z
        assert E * th - th * E == z * th
        assert E * dl - dl * E == z * dl


def _random_op(rng, r, e):
    out = LogDiffOp.zero(r, e)
    for _ in range(3):
        key = (tuple(rng.randint(0, 2) for _ in range(r + e)), rng.randint(0, 1),
               tuple(rng.randint(0, 2) for _ in range(r)),
               tuple(rng.randint(0, 1) for _ in range(e)), rng.randint(0, 1))
        out = out + LogDiffOp(r, e, {key: Fraction(rng.randint(-3, 3))})
    return out


def test_product_associative_50_triples():
    for r, e in ((1, 1), (0, 2)):
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (_random_op(rng, r, e) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def _mul_oracle(self, other):
    """The former LogDiffOp.__mul__: each term of self moves its own copy of
    other, one commutation at a time, on the Fraction coefficients of `terms`
    (the commutation steps take any coefficient type)."""
    if (self.r, self.e) != (other.r, other.e):
        raise OperatorError("operator shape mismatch")
    out = {}
    for (beta, k, s, t, u), c in self.terms.items():
        moved = dict(other.terms)
        for _ in range(u):
            moved = operators._mul_e(self.r, self.e, moved)
        for b in range(self.e):
            for _ in range(t[b]):
                moved = operators._mul_del(self.r, self.e, moved, b)
        for a in range(self.r):
            for _ in range(s[a]):
                moved = operators._mul_theta(self.r, self.e, moved, a)
        for (beta2, k2, s2, t2, u2), c2 in moved.items():
            nk = (tuple(x + y for x, y in zip(beta, beta2)), k + k2, s2, t2, u2)
            add_term(out, nk, c * c2)
    return LogDiffOp(self.r, self.e, out)


def test_product_matches_replaced_routine(monkeypatch):
    rng = random.Random(17)
    for r, e in ((1, 1), (0, 2), (2, 1)):
        for _ in range(60):
            a, b = _random_op(rng, r, e), _random_op(rng, r, e)
            assert a * b == _mul_oracle(a, b)
            assert (a * b) * a == _mul_oracle(_mul_oracle(a, b), a)
    # every box operator of every fan with a p-basis, and the Euler operator
    # squared, built with each product
    for name, data, ring, _ in chain(series_fans(), series_fans(weighted_planes())):
        ops = [euler_check(data) * euler_check(data)] + box_operators(data, ring)
        with monkeypatch.context() as m:
            m.setattr(LogDiffOp, "__mul__", _mul_oracle)
            expected = [euler_check(data) * euler_check(data)] + box_operators(data, ring)
        assert ops == expected, name


def full_symbol(op: LogDiffOp) -> dict:
    """Top-order part of the operator as a commutative polynomial.

    Keys are full (beta, k, s, t, u) tuples; the grading counts every
    derivation generator (theta, del and z^2 dz) once.
    """
    if not op.nums:
        return {}
    top = op.order()
    return {key: c for key, c in op.terms.items()
            if sum(key[2]) + sum(key[3]) + key[4] == top}


def symbol_mul(r, e, sa: dict, sb: dict) -> dict:
    """The product of two full symbols as commutative polynomials."""
    out: dict = {}
    for (b1, k1, s1, t1, u1), c1 in sa.items():
        for (b2, k2, s2, t2, u2), c2 in sb.items():
            key = (tuple(x + y for x, y in zip(b1, b2)), k1 + k2,
                   tuple(x + y for x, y in zip(s1, s2)),
                   tuple(x + y for x, y in zip(t1, t2)), u1 + u2)
            add_term(out, key, c1 * c2)
    return out


def test_symbol_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        a, b = _random_op(rng, 1, 1), _random_op(rng, 1, 1)
        prod = a * b
        if a.is_zero() or b.is_zero() or prod.is_zero():
            continue
        if prod.order() < a.order() + b.order():
            continue  # top-order cancellation; symbol of product degenerates
        assert full_symbol(prod) == symbol_mul(1, 1, full_symbol(a), full_symbol(b))


# -- lambda-chart FL-GKZ operators: LogDiffOp(0, n) ------------------------------


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


def _zdl(n, i):
    return LogDiffOp.dell(0, n, i)


def _lam(n, i):
    return LogDiffOp.chi(0, n, i)


def test_box_hat_p1():
    op = box_hat(2, (1, 1))
    expected = LogDiffOp.one(0, 2) - _zdl(2, 0) * _zdl(2, 1)
    assert (op.r, op.e) == (0, 2)
    assert op == expected


def test_box_hat_zero_and_sign():
    assert box_hat(3, (0, 0, 0)).is_zero()
    l = (2, -1, -1)
    assert box_hat(3, l) == box_hat(3, tuple(-x for x in l)).scale(-1)
    assert box_hat(3, l) == _zdl(3, 1) * _zdl(3, 2) - _zdl(3, 0) * _zdl(3, 0)


def test_euler_hats_build():
    e = euler_hat(2)
    expected = LogDiffOp.euler_z(0, 2)
    for i in range(2):
        expected = expected + _lam(2, i) * _zdl(2, i)
    assert e == expected
    ek = euler_hat_k(2, (1, -1))
    assert ek == _lam(2, 0) * _zdl(2, 0) - _lam(2, 1) * _zdl(2, 1)
    assert euler_hat_k(2, (0, 0)).is_zero()


# -- pulled-back operators ---------------------------------------------------------


def script_d(data, i) -> LogDiffOp:
    """The operator D_i of the chart: sum_a m_{ia} z chi_a dchi_a for rays,
    z dchi_{i-m+r} for extension indices."""
    if i < data.ext.m:
        return script_d_tilde(data, i)
    return LogDiffOp.dell(data.r, data.e, i - data.ext.m)


def chi_prefactor_for_factorization(data, l) -> LogDiffOp:
    """prod_{k} chi_{r+k}^{|l_{m+k}|}."""
    r, e = data.r, data.e
    out = LogDiffOp.one(r, e)
    for k in range(e):
        power = abs(l[data.ext.m + k])
        if power:
            out = out * LogDiffOp.chi(r, e, r + k, power)
    return out


def test_box_tilde_p1_is_chi_minus_theta_squared():
    _, data, _, _ = pipeline("P1")
    th = LogDiffOp.theta(1, 0, 0)
    chi = LogDiffOp.chi(1, 0, 0)
    assert box_tilde(data, (1, 1), ray_products(data, (1, 1))) == chi - th * th
    assert box_x(data, (1, 1)) == chi - th * th
    assert box_tilde(data, (0, 0), ray_products(data, (0, 0))).is_zero()


def test_box_x_p112_cone_relation_shape():
    _, data, _, _ = pipeline("P112")
    l = (1, 0, 1, -2)
    assert p_pairings(data, l)[0] == 0  # p_a(l) = 0 on cone relations for a <= r
    d = [script_d(data, i) for i in range(4)]
    assert box_x(data, l) == d[3] * d[3] - d[0] * d[2]


def test_box_tilde_p112_extension_relation():
    _, data, _, _ = pipeline("P112")
    l = (0, 1, 0, 1)
    bt = box_tilde(data, l, ray_products(data, l))
    assert bt == chi_prefactor_for_factorization(data, l) * box_x(data, l)


def test_factorization_basis_and_20_random():
    rng = random.Random(5)
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        for l in ext.l_basis:
            residual = factorization_residual(data, l, box_x(data, l), ray_products(data, l))
            assert residual.is_zero(), (name, l)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
            l = tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis))
                      for i in range(ext.n))
            residual = factorization_residual(data, l, box_x(data, l), ray_products(data, l))
            assert residual.is_zero(), (name, l)


def test_box_x_raises_on_a_failed_factorization(monkeypatch):
    _, data, _, _ = pipeline("P112")  # e = 1
    l = (0, 1, 0, 1)
    real = operators.box_tilde
    monkeypatch.setattr(operators, "box_tilde",
                        lambda d, rel, rays: real(d, rel, rays) + LogDiffOp.z(d.r, d.e))
    with pytest.raises(OperatorError, match=re.escape(f"relation {list(l)}")):
        box_x(data, l)


def test_box_x_skips_the_tautological_check_when_e_is_zero(monkeypatch):
    ext, data, _, _ = pipeline("P2")
    assert data.e == 0
    calls = []
    real = operators.factorization_residual
    monkeypatch.setattr(operators, "factorization_residual",
                        lambda *args: calls.append(args) or real(*args))
    for l in ext.l_basis:
        box_x(data, l)
    assert calls == []
    _, data112, _, _ = pipeline("P112")
    box_x(data112, (0, 1, 0, 1))
    assert len(calls) == 1


def _box_tilde_oracle(data, l):
    """The former box_tilde: each half builds its own ray falling products."""
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
                out = out * operators._falling_product(script_d_tilde(data, i), li)
        return out

    return half(+1) - half(-1)


def _box_x_oracle(data, l):
    """The former box_x construction, one factor at a time from the left."""
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
                out = out * operators._falling_product(script_d(data, i), li)
        return out

    return half(+1) - half(-1)


def _box_fan_data(name):
    """Picard data with its p-basis of a corpus spec or a tests/data document."""
    if name in CORPUS:
        return pipeline(name)[1]
    ext = ext_of_doc(json.loads((DATA / f"{name}.json").read_text()))
    return choose_basis_p(extended_pl_and_pic(ext))


@pytest.mark.parametrize("name, e_positive", [
    ("P112", True), ("P1113", True), ("p123", True), ("F2", False),
    ("p123_resolution", False)])
def test_box_operators_match_replaced_construction(name, e_positive):
    data = _box_fan_data(name)
    ext = data.ext
    assert bool(data.e) == e_positive
    rng = random.Random(41)
    relations = _family_union(operator_families(data, presentation(ext)))
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
        relations.append(tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis))
                               for i in range(ext.n)))
    for l in relations:
        expected = _box_x_oracle(data, l)
        assert box_x(data, l) == expected, (name, l)
        tilde = _box_tilde_oracle(data, l)
        assert box_tilde(data, l, ray_products(data, l)) == tilde, (name, l)
        # the factorization identity, read off the two oracles alone
        assert tilde == chi_prefactor_for_factorization(data, l) * expected, (name, l)


def test_box_x_builds_each_ray_falling_product_once(monkeypatch):
    _, data, _, _ = pipeline("P112")  # e = 1
    ext = data.ext
    made = Counter()
    real = operators._falling_product
    monkeypatch.setattr(operators, "_falling_product",
                        lambda base, count: made.update([(base, count)]) or real(base, count))
    rng = random.Random(43)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
        l = tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis)) for i in range(ext.n))
        made.clear()
        box_x(data, l)
        # one product per nonzero entry of l: the operator and its check
        # share the rays' (i < m), and only box_tilde builds the extensions'
        assert made == Counter((script_d_tilde(data, i), abs(l[i]))
                               for i in range(ext.n) if l[i]), l


# -- L-coordinates by solving: the former routines, kept as oracles -------------


def _p_pairings_oracle(data, l):
    """The former operators.p_pairings: a solve for l's L-coordinates, then
    their p-pairings, each checked integral."""
    coords = l_coords_oracle(data.ext, [Fraction(x) for x in l])
    vals = pairing_p_oracle(data, coords)
    out = []
    for v in vals:
        if v.denominator != 1:
            raise OperatorError("p-pairing of a lattice relation is not integral")
        out.append(int(v))
    return tuple(out)


def _pbar_class_oracle(data, ring, a):
    """The former operators.pbar_class: a PL lift of p_a solved for, then
    truncated to the rays."""
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
    poly = {}
    for i in range(ext.m):
        if x[i]:
            poly[tuple(int(j == i) for j in range(ext.n))] = Fraction(x[i])
    return ring.class_of(poly) if poly else ring.zero_class()


def _symbol_at_origin_oracle(op):
    """The former operators.symbol_at_origin: the full symbol at z = chi = 0."""
    out = {}
    for (beta, k, s, t, u), c in full_symbol(op).items():
        if any(beta) or k or u:
            continue
        add_term(out, tuple(s) + tuple(t), c)
    return out


def _box_tilde_chained(data, l, rays):
    """The former box_tilde: chi-prefactors one factor at a time, then the ray
    product, then the extension falling products on its right."""
    r, e = data.r, data.e
    p_of_l = _p_pairings_oracle(data, l)
    ext = data.ext

    def half(sign, ray):
        out = LogDiffOp.one(r, e)
        for a in range(r + e):
            power = sign * p_of_l[a]
            if power > 0:
                out = out * LogDiffOp.chi(r, e, a, power)
        out = out * ray
        for i in range(ext.m, ext.n):
            li = sign * (-l[i])
            if li > 0:
                out = out * operators._falling_product(script_d_tilde(data, i), li)
        return out

    return half(+1, rays[0]) - half(-1, rays[1])


def _box_x_chained(data, l):
    """The former box_x: its prefactor as a chain of one-factor products, and
    its factorization checked against `_box_tilde_chained`."""
    r, e = data.r, data.e
    p_of_l = _p_pairings_oracle(data, l)
    ext = data.ext
    rays = ray_products(data, l)

    def half(sign, ray):
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
        return out * ray

    op = half(+1, rays[0]) - half(-1, rays[1])
    residual = (_box_tilde_chained(data, l, rays)
                - chi_prefactor_for_factorization(data, l) * op)
    if e and not residual.is_zero():
        raise OperatorError(f"factorization identity failed for relation {list(l)}")
    return op


def _series_relations():
    """(name, data, ring, relations) for every `series_fans()` fan: its family
    relations, then 10 seeded random relations of L."""
    for name, data, ring, _ in series_fans():
        ext, rng = data.ext, random.Random(47)
        relations = _family_union(operator_families(data, ring))
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
            relations.append(tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis))
                                   for i in range(ext.n)))
        yield name, data, ring, relations


def test_p_pairings_and_pbar_classes_match_replaced_solves():
    for name, data, ring, relations in _series_relations():
        for l in relations:
            assert p_pairings(data, l) == _p_pairings_oracle(data, l), (name, l)
        for a in range(data.r):
            assert pbar_class(data, ring, a) == _pbar_class_oracle(data, ring, a), (name, a)


def test_p_pairings_rejects_a_non_relation():
    _, data, _, _ = pipeline("P112")
    with pytest.raises(OperatorError, match="not a relation"):
        p_pairings(data, (1, 0, 0, 0))


def test_box_operators_and_symbols_match_replaced_assembly():
    count = 0
    for name, data, _ring, relations in _series_relations():
        r, e, m = data.r, data.e, data.ext.m
        for k in range(e):
            # D~_{m+k} = theta_{r+k}: box_tilde builds its extension factors on it
            assert script_d_tilde(data, m + k) == LogDiffOp.theta(r, e, r + k), name
        for l in relations:
            rays = ray_products(data, l)
            op = box_x(data, l)
            assert op == _box_x_chained(data, l), (name, l)
            assert box_tilde(data, l, rays) == _box_tilde_chained(data, l, rays), (name, l)
            assert symbol_at_origin(op) == _symbol_at_origin_oracle(op), (name, l)
            count += 1
    assert count >= 200


def test_euler_check_p112():
    _, data, _, _ = pipeline("P112")
    expected = (LogDiffOp.euler_z(1, 1)
                + LogDiffOp.theta(1, 1, 0).scale(2))
    assert euler_check(data) == expected


# -- degeneration -------------------------------------------------------------------


def test_degenerate_limit_drops_chi_and_z():
    op = LogDiffOp.chi(1, 1, 0) - LogDiffOp.theta(1, 1, 0) * LogDiffOp.theta(1, 1, 0)
    lim = degenerate_limit(op)
    assert lim == LogDiffOp.theta(1, 1, 0).scale(-1) * LogDiffOp.theta(1, 1, 0)


def test_degenerate_limit_cone_box_p112():
    _, data, _, _ = pipeline("P112")
    p = limit_poly(box_x(data, (1, 0, 1, -2)))
    # bold-D4^2 - bold-D1 bold-D3 with bold-D_i = sum_{a<=r} m_ia theta_a
    assert p == {(0, 2): Fraction(1), (2, 0): Fraction(-1, 4)}


def test_degenerate_limit_euler_check():
    # z^2 dz vanishes at z = 0; the surviving part is the ray-weighted theta sum
    _, data, _, _ = pipeline("P112")
    lim = degenerate_limit(euler_check(data))
    assert lim == LogDiffOp.theta(1, 1, 0).scale(2)


def test_primitive_relation_limits_are_monomial():
    _, data, _, _ = pipeline("P112")
    l = primitive_relation(data, (0, 1, 2))
    assert l == (1, 1, 1, -1)
    p = limit_poly(box_x(data, l))
    assert len(p) == 1 and all(c < 0 for c in p.values())


def test_residue_algebra_dimensions():
    for name, expected in {"P1": 2, "P2": 3, "P112": 4, "F2": 4, "P1113": 6}.items():
        _, data, ring, _ = pipeline(name)
        rring = residue_algebra(data, box_operators(data, ring))
        assert rring.finite and rring.dim == expected
        assert rring.graded_dims() == ring.graded_dims()


def test_residue_map_well_defined_corpus():
    for name in CORPUS:
        _, data, ring, _ = pipeline(name)
        assert residue_map_well_defined(data, ring, residue_algebra(data, box_operators(data, ring)))


def test_euler_relations_vanish_in_limit_generators():
    # sum_i a_ki bold-D_i = 0 identically for the truncated range i <= m
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        for k in range(ext.d):
            combo = {}
            for i in range(ext.m):
                coeff = ext.fan.rays[i][k]
                for mono, c in bold_d_poly(data, i).items():
                    combo[mono] = combo.get(mono, Fraction(0)) + coeff * c
            assert not any(combo.values())


def test_symbol_fiber_finite_and_sensitive():
    for name in CORPUS:
        _, data, ring, _ = pipeline(name)
        dim = symbol_fiber_dimension(data, box_operators(data, ring))
        assert dim != "infinite"
        assert dim <= ring.dim  # contains at least the Euler+box relations
        grown = [
            symbol_fiber_dimension(data, box_operators(data, ring, drop=f))
            for f in ("l_basis", "cone", "primitive")
        ]
        assert any(g == "infinite" or g > dim for g in grown), (name, dim, grown)


def test_symbol_at_origin_cone_box():
    _, data, _, _ = pipeline("P112")
    s = symbol_at_origin(box_x(data, (1, 0, 1, -2)))
    assert s == {(0, 2): Fraction(1), (2, 0): Fraction(-1, 4)}


def test_unfolding_conditions_corpus():
    for name in CORPUS:
        _, data, ring, _ = pipeline(name)
        assert check_unfolding_conditions(data, ring) == {"IC": True, "GC": True, "EC": True}


def test_pbar_class_lies_in_h2():
    for name in CORPUS:
        _, data, ring, _ = pipeline(name)
        for a in range(data.r):
            cls = pbar_class(data, ring, a)
            assert any(cls[0])
            assert ring.class_degree(cls) == 1


def test_operator_families_are_relations():
    for name in CORPUS:
        ext, data, ring, _ = pipeline(name)
        for rels in operator_families(data, ring).values():
            for l in rels:
                total = [sum(l[i] * ext.generators[i][k] for i in range(ext.n))
                         for k in range(ext.d)]
                assert not any(total)


def test_lambda_falling_factorial_identity():
    # prod_{nu=0}^{k-1} (z lambda d_lambda - nu z) == lambda^k (z d_lambda)^k
    for k in range(1, 5):
        n = 2
        theta = _lam(n, 0) * _zdl(n, 0)
        assert theta == LogDiffOp.theta(0, n, 0)
        lhs = LogDiffOp.one(0, n)
        for nu in range(k):
            lhs = lhs * (theta - LogDiffOp.z(0, n).scale(nu))
        rhs = LogDiffOp.one(0, n)
        for _ in range(k):
            rhs = _lam(n, 0) * rhs
        for _ in range(k):
            rhs = rhs * _zdl(n, 0)
        assert lhs == rhs


def test_chi_falling_factorial_identity():
    # same identity in the chi chart: theta-products normalize to chi^k del^k
    for k in range(1, 4):
        theta = LogDiffOp.theta(1, 1, 1)  # = chi_2 * (z d_chi2)
        lhs = LogDiffOp.one(1, 1)
        for nu in range(k):
            lhs = lhs * (theta - LogDiffOp.z(1, 1).scale(nu))
        rhs = LogDiffOp.chi(1, 1, 1, k)
        for _ in range(k):
            rhs = rhs * LogDiffOp.dell(1, 1, 0)
        assert lhs == rhs


def test_torus_direction_euler_operators_pull_back_to_zero():
    # sum_i a_ki D'_i = sum_a (sum_i a_ki m_ia) theta_a must vanish: the
    # lattice directions die under the chart map, tying M to the ray matrix
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        for k in range(ext.d):
            acc = LogDiffOp.zero(data.r, data.e)
            for i in range(ext.n):
                coeff = ext.generators[i][k]
                if coeff:
                    acc = acc + script_d_tilde(data, i).scale(coeff)
            assert acc.is_zero(), (name, k)


def _cone_lattice_groebner_oracle(ext, cone):
    """The former cohomology.cone_lattice_groebner: the lifted binomials and
    their relation vectors."""
    support = ext.generators_in_cone(cone)
    gens_vectors = ext.generators
    mat = [[gens_vectors[i][k] for i in support] for k in range(ext.d)]
    local_rels = kernel_basis(mat) if support else []
    denom = lcm(*(ext.degree(i).denominator for i in range(ext.n)))
    weights = [int(ext.degree(i) * denom) for i in support]
    local_gb = lattice_ideal_groebner(local_rels, weights) if local_rels else []
    lifted_polys = []
    lifted_vectors = []
    for g in local_gb:
        poly = {}
        for m, c in g.items():
            full = [0] * ext.n
            for idx, e in zip(support, m):
                full[idx] = e
            poly[tuple(full)] = c
        lifted_polys.append(poly)
    for u in binomial_relation_vectors(local_gb):
        full = [0] * ext.n
        for idx, e in zip(support, u):
            full[idx] = e
        lifted_vectors.append(tuple(full))
    return lifted_polys, lifted_vectors


def _operator_families_oracle(data):
    """The former operators.operator_families: every per-cone lattice basis
    and the generalized primitive collections computed afresh."""
    ext = data.ext
    basis = [tuple(v) for v in ext.l_basis]
    cone_rels = []
    seen = set()
    for cone in ext.fan.max_cones:
        _, vectors = _cone_lattice_groebner_oracle(ext, cone)
        for v in vectors:
            if v not in seen:
                seen.add(v)
                cone_rels.append(v)
    prims = [primitive_relation(data, c) for c in generalized_primitive_collections(ext)]
    return {"l_basis": basis, "cone": cone_rels, "primitive": prims}


def test_operator_families_match_replaced_routine():
    # The families use only data.ext, so the Picard data need no p-basis and
    # the non-nef fans take part too.
    for name, ext in differential_fans(smooth_rays=(5, 6, 7, 8)):
        for cone in ext.fan.max_cones:
            assert cone_lattice_groebner(ext, cone) == _cone_lattice_groebner_oracle(ext, cone)[0]
        data = extended_pl_and_pic(ext)
        assert operator_families(data, presentation(ext)) == _operator_families_oracle(data), name
