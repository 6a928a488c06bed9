"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every tolerance is exact (rational arithmetic end to end); no criterion uses a
numeric epsilon. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from corpus import (
    CORPUS,
    F3,
    P113,
    box_operators,
    data_z,
    ext_of,
    fan_of,
    global_fan,
    half_residuals,
    pipeline,
)
from orbimirror.cli import main as cli_main
from orbimirror.cohomology import normalized_volume
from orbimirror.crepant import (
    ResolutionPair,
    check_gen_equals_new_rays,
    check_sl,
    exceptional_not_in_kahler,
    is_crepant,
)
from orbimirror.fan import StackyFan
from orbimirror.ifunction import (
    annihilation_check,
    i_function,
    mirror_map,
    tilde_i,
)
from orbimirror.operators import (
    box_x,
    check_unfolding_conditions,
    euler_check,
    operator_families,
    residue_algebra,
    symbol_fiber_dimension,
)
from orbimirror.picard import box_coset_map, extended_pl_and_pic, rho_membership

DATA = Path(__file__).parent / "data"


def _report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_rank_identity():
    detail = []
    ok = True
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        ext, data, ring, _ = pipeline(name)
        vol = normalized_volume(ext)
        rring = residue_algebra(data, box_operators(data, ring))
        rdim = rring.dim if rring.finite else None
        detail.append(f"{name}: dim={ring.dim} vol={vol} residue={rdim}")
        ok = ok and ring.dim == vol == rdim
    _, _, ring112, _ = pipeline("P112")
    ok = ok and ring112.dim == 4
    ok = ok and ring112.graded_dims() == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}
    _report(1, ok, "; ".join(detail) + "; P112 graded (1,2,1)")


def test_criterion_2_box_bijection():
    rng = random.Random(17)
    ok = True
    detail = []
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        ext, data, _, mori = pipeline(name)
        table = box_coset_map(mori)  # raises if v(d_v) != v for any entry
        if len(table) != len(ext.box):
            ok = False
        for entry in table:
            t = entry["d_p_pairings"]
            for _ in range(10):
                coeffs = [rng.randint(-4, 4) for _ in ext.l_basis]
                shift = [sum(c * data.p_basis[a][j] for j, c in enumerate(coeffs))
                         for a in range(data.rank)]
                t2 = tuple(x + y for x, y in zip(t, shift))
                if mori.v_of(mori.pairing_nums(t2)) != tuple(entry["box_element"]):
                    ok = False
        detail.append(f"{name}: |table|={len(table)}")
    _report(2, ok, "; ".join(detail))


def test_criterion_3_rho_membership_equivalence():
    verdicts = {}
    ok = True
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        _, data, _, _ = pipeline(name)
        lp, degree = rho_membership(data)
        verdicts[name] = (lp, degree)
        ok = ok and lp == degree is True
    f3 = extended_pl_and_pic(ext_of(F3))
    lp, degree = rho_membership(f3)
    verdicts["F3"] = (lp, degree)
    ok = ok and (lp, degree) == (False, False)
    _report(3, ok, str(verdicts))


def test_criterion_4_operator_factorization():
    rng = random.Random(23)
    ok = True
    count = 0
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        ext, data, _, _ = pipeline(name)
        relations = list(ext.l_basis)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
            relations.append(tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis))
                                   for i in range(ext.n)))
        for l in relations:
            count += 1
            box_x(data, l)  # raises unless its own check passes
            if half_residuals(data, l) != [{}, {}]:
                ok = False
    _report(4, ok, f"{count} relations, both halves' residuals exactly zero")


def test_criterion_5_symbol_fiber_finiteness():
    ok = True
    detail = []
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        _, data, ring, _ = pipeline(name)
        dim = symbol_fiber_dimension(data, box_operators(data, ring))
        if dim == "infinite":
            ok = False
        grown = [symbol_fiber_dimension(data, box_operators(data, ring, drop=f))
                 for f in ("l_basis", "cone", "primitive")]
        sensitive = any(g == "infinite" or g > dim for g in grown)
        ok = ok and sensitive
        detail.append(f"{name}: dim={dim} dropped={grown}")
    _report(5, ok, "; ".join(detail))


def test_criterion_6_annihilation():
    start = time.monotonic()
    ok = True
    detail = []
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
            if not (report.ok and report.checked_order >= 3):
                ok = False
        detail.append(f"{name}: {len(ops)} operators to order 3")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _report(6, ok, "; ".join(detail) + f"; elapsed {elapsed:.1f}s (< 300s budget)")


def test_criterion_7_mirror_map_shape():
    ok = True
    detail = []
    for name in ("P1", "P2"):
        _, data, ring, mori = pipeline(name)
        series = i_function(data, ring, mori, 6)
        mm = mirror_map(series, ring, data)
        pure = mm.analytic == {}
        ok = ok and pure
        detail.append(f"{name}: tau = pbar_1 log chi_1 exactly at order 6 ({pure})")
    # independent oracle: no z^{-1} coefficient beyond d = 0 in the classical body
    from test_ifunction import _classical_pn_body

    for n in (1, 2):
        body = _classical_pn_body(n, 6)
        for d, laurent in body.items():
            if d >= 1 and -1 in laurent:
                ok = False
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        _, data, ring, mori = pipeline(name)
        small = i_function(data, ring, mori, 2)
        big = i_function(data, ring, mori, 3)
        mm = mirror_map(small, ring, data)
        for vec in list(mm.analytic.values()) + list(mm.log_linear):
            degs = [ring.mono_degree(m) for m, c in zip(ring.std_monomials, vec) if c]
            if any(dd > 1 for dd in degs):
                ok = False
        if small.terms != big.truncate(2).terms:
            ok = False
    _report(7, ok, "; ".join(detail) + "; oracle + H<=2 + truncation-stability on corpus")


def test_criterion_8_crepant_suite():
    ok = True
    pair = ResolutionPair(fan_of(CORPUS["P112"]), fan_of(CORPUS["F2"]))
    crepant, witnesses = is_crepant(pair)
    ok = ok and crepant and all(w["discrepancy"] == 0 for w in witnesses)
    noncrepant_fan = StackyFan(
        2, [(1, 0), (0, 1), (-1, -2), (0, -1), (-1, -1)],
        [(0, 1), (1, 4), (4, 2), (2, 3), (3, 0)],
    )
    bad_pair = ResolutionPair(fan_of(CORPUS["P112"]), noncrepant_fan)
    bad_ok, bad_wit = is_crepant(bad_pair)
    bad_entry = next(w for w in bad_wit if w["ray"] == (-1, -1))
    ok = ok and not bad_ok and bad_entry["discrepancy"] == 1
    ok = ok and check_sl(fan_of(CORPUS["P112"])) is True
    ok = ok and check_sl(fan_of(P113)) is False
    ring_x = pipeline("P112")[2]
    ring_z = pipeline("F2")[2]
    ok = ok and ring_x.dim == ring_z.dim == 4
    ok = ok and check_gen_equals_new_rays(pair)[0]
    ok = ok and exceptional_not_in_kahler(pair, data_z(pair))[0]
    gm = global_fan(pair)
    ok = ok and gm.shared_face == ((Fraction(0), Fraction(1)),)
    ok = ok and any(gm.separating_functional)
    _report(8, ok, "F2/P112 crepant; (-1,-1) discrepancy 1; SL verdicts; dims 4=4; "
                   f"global fan face {list(map(list, gm.shared_face))} with LP witness")


def test_criterion_9_unfolding_conditions():
    ok = True
    detail = []
    for name in ("P1", "P2", "P112", "P1113", "F2"):
        _, data, ring, _ = pipeline(name)
        verdict = check_unfolding_conditions(data, ring)
        detail.append(f"{name}: {verdict}")
        ok = ok and all(verdict.values())
    _report(9, ok, "; ".join(detail))


def test_criterion_10_determinism(capsys):
    ok = True
    detail = []
    for name in ("p1", "p2", "p112", "f2", "p1113"):
        outputs = []
        for _ in range(3):
            code = cli_main(["all", str(DATA / f"{name}.json")])
            outputs.append(capsys.readouterr().out)
            if code != 0:
                ok = False
        identical = outputs[0] == outputs[1] == outputs[2]
        ok = ok and identical
        detail.append(f"{name}: identical={identical}")
    with capsys.disabled():
        _report(10, ok, "; ".join(detail))
