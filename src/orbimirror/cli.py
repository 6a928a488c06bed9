"""Command-line interface.

    orbimirror <command> FAN.json [--order N] [--resolution Z.json]
               [--basis-file B.json] [--emit-certificates] [--timing]

Exit codes: 0 success, 1 validation failure, 2 invariant failure,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .cohomology import (
    ResourceLimitError,
    RingError,
    is_nef,
    normalized_volume,
    presentation,
)
from .cones import ConeError
from .crepant import (
    CrepantError,
    ResolutionPair,
    build_global_fan,
    check_gen_equals_new_rays,
    check_sl,
    exceptional_not_in_kahler,
    is_crepant,
    sequences_agree,
)
from .fan import FanError, gen_elements
from .fandoc import (
    DocumentError,
    dump_report,
    input_digest,
    make_report,
    parse_fan,
    parse_fan_document,
    to_jsonable,
)
from .ifunction import (
    SeriesError,
    annihilation_check,
    enumerate_degrees,
    i_function,
    mirror_map,
    tilde_i,
)
from .linalg import LinAlgError
from .operators import (
    OperatorError,
    _family_union,
    box_x,
    check_unfolding_conditions,
    euler_check,
    factorization_residual,
    operator_families,
    residue_algebra,
    residue_map_well_defined,
    symbol_fiber_dimension,
)
from .picard import (
    PicardError,
    box_coset_map,
    choose_basis_p,
    extended_pl_and_pic,
    mori_lattices,
    rho_membership,
)

USER_ERRORS = (DocumentError, FanError, PicardError, RingError, ConeError,
               OperatorError, SeriesError, CrepantError, LinAlgError)


class InvariantFailure(RuntimeError):
    pass


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pipeline(doc: dict):
    ext = parse_fan(doc)
    _fan, options = parse_fan_document(doc)
    data0 = extended_pl_and_pic(ext)
    lp_ok, deg_ok = rho_membership(data0)
    if not lp_ok:
        raise PicardError(
            "rho is not in the extended Kahler cone (fan is not nef); "
            "the p-basis and everything downstream are undefined"
        )
    data = choose_basis_p(data0, override=options.get("p_basis"))
    return ext, data, options


def cmd_validate(doc, args):
    fan, _options = parse_fan_document(doc)
    report = fan.validate()
    results = {"valid": report.ok, "issues": report.summary()}
    if not report.ok:
        return results, {}, 1
    return results, {}, 0


def cmd_box(doc, args):
    ext = parse_fan(doc)
    gens = {b.vector for b in gen_elements(ext.fan, ext.box)}
    results = {
        "box_elements": [
            {
                "vector": list(b.vector),
                "min_cone": [i + 1 for i in b.min_cone],
                "fractional_coordinates": list(b.fractional),
                "age": b.age,
                "in_gen": b.vector in gens,
            }
            for b in ext.box
        ],
        "gen": [list(v) for v in sorted(gens)],
        "extension": [list(b.vector) for b in ext.extra],
    }
    return results, {}, 0


def cmd_cohomology(doc, args):
    ext = parse_fan(doc)
    ring = presentation(ext)
    nef = is_nef(ext)
    results = {
        "variables": list(ring.var_names),
        "degrees": list(ring.degrees),
        "dimension": ring.dim,
        "graded_dimensions": {k: v for k, v in ring.graded_dims().items()},
        "standard_monomials": [list(m) for m in ring.std_monomials],
        "generators": {
            family: [_poly_terms(p) for p in polys]
            for family, polys in ring.generators.items()
        },
        "normalized_volume": normalized_volume(ext) if nef else None,
        "nef": nef,
    }
    certificates = {}
    if args.emit_certificates:
        certificates["groebner_basis"] = [_poly_terms(g) for g in ring.groebner]
    return results, certificates, 0


def _poly_terms(p):
    return [{"monomial": list(m), "coefficient": c} for m, c in sorted(p.items())]


def cmd_picard(doc, args):
    ext = parse_fan(doc)
    _fan, options = parse_fan_document(doc)
    data0 = extended_pl_and_pic(ext)
    lp_ok, deg_ok = rho_membership(data0)
    cone = data0.kahler
    results = {
        "r": data0.r,
        "e": data0.e,
        "l_basis": [list(v) for v in ext.l_basis],
        "pic_basis": [list(v) for v in data0.pic_basis],
        "rho": list(data0.rho),
        "rho_in_extended_kahler": {"lp": lp_ok, "degree_criterion": deg_ok},
        "kahler_inequalities": [list(w) for w in cone.inequalities],
        "kahler_equalities": [list(w) for w in cone.equalities],
        "kahler_extremal_rays": [list(v) for v in cone.extremal_rays()],
    }
    if not lp_ok:
        return dict(results, p_basis=None), {}, 0
    data = choose_basis_p(data0, override=options.get("p_basis"))
    mori = mori_lattices(data)
    table = box_coset_map(mori)
    results.update({
        "p_basis": [list(v) for v in data.p_basis],
        "q_basis": [list(v) for v in data.q_basis],
        "m_matrix": [list(row) for row in data.m_matrix],
        "n_matrix": [list(col) for col in data.n_matrix],
        "box_coset_table": [
            {
                "box_element": list(t["box_element"]),
                "age": t["age"],
                "d_p_pairings": list(t["d_p_pairings"]),
                "d_pairings": list(t["d_pairings"]),
            }
            for t in table
        ],
    })
    return results, {}, 0


def cmd_superpotential(doc, args):
    _ext, data, _options = _pipeline(doc)
    results = {
        "terms": [
            {"coefficient": c, "chi_exponents": list(chi), "y_exponents": list(y)}
            for c, chi, y in data.superpotential
        ],
        "n_matrix": [list(col) for col in data.n_matrix],
        "m_matrix": [list(row) for row in data.m_matrix],
        "p_basis": [list(v) for v in data.p_basis],
    }
    return results, {}, 0


def cmd_gkz(doc, args):
    _ext, data, _options = _pipeline(doc)
    families = operator_families(data)
    box_ops = {l: box_x(data, l) for l in _family_union(families)}
    ops = {
        family: [{"relation": list(l), "box_x": box_ops[l].term_list()} for l in rels]
        for family, rels in families.items()
    }
    residuals = {
        str(list(l)): factorization_residual(data, l).is_zero()
        for l in families["l_basis"]
    }
    ring = presentation(data.ext)
    rring = residue_algebra(data, box_ops.values())
    results = {
        "euler_check": euler_check(data).term_list(),
        "operators": ops,
        "factorization_exact_on_basis": residuals,
        "residue_dimension": rring.dim if rring.finite else "infinite",
        "residue_graded_dimensions": {k: v for k, v in rring.graded_dims().items()} if rring.finite else {},
        "cohomology_dimension": ring.dim,
        "residue_map_well_defined": residue_map_well_defined(data, ring, rring),
        "symbol_fiber_dimension": symbol_fiber_dimension(data, box_ops.values()),
        "unfolding_conditions": check_unfolding_conditions(data, ring),
    }
    return results, {}, 0


def cmd_ifunction(doc, args):
    _ext, data, _options = _pipeline(doc)
    ring = presentation(data.ext)
    mori = mori_lattices(data)
    series = i_function(data, ring, mori, args.order)
    results = {
        "order": args.order,
        "degrees": [
            {"beta": list(d["beta"]), "pairings": list(d["pairings"]),
             "sector": list(d["sector"])}
            for d in enumerate_degrees(mori, args.order)
        ],
        "standard_monomials": [list(m) for m in ring.std_monomials],
        "terms": series.term_list(),
    }
    return results, {}, 0


def cmd_mirror_map(doc, args):
    _ext, data, _options = _pipeline(doc)
    ring = presentation(data.ext)
    mori = mori_lattices(data)
    series = i_function(data, ring, mori, args.order)
    mm = mirror_map(series, ring, data)
    results = {
        "order": args.order,
        "log_linear_classes": [list(v) for v in mm.log_linear],
        "analytic_part": mm.analytic_list(),
        "standard_monomials": [list(m) for m in ring.std_monomials],
    }
    return results, {}, 0


def _resolution_pair(doc, args):
    if not args.resolution:
        raise DocumentError("this command needs --resolution Z.json", "/")
    zdoc = _load(args.resolution)
    zfan, _opts = parse_fan_document(zdoc)
    xfan, _xopts = parse_fan_document(doc)
    return ResolutionPair(xfan, zfan), zdoc


def cmd_crepant(doc, args):
    pair, zdoc = _resolution_pair(doc, args)
    crepant, witnesses = is_crepant(pair)
    sl_x = check_sl(pair.stacky)
    gen_eq, gen_diff = check_gen_equals_new_rays(pair)
    exc_ok, exc = (None, None)
    if crepant:
        exc_ok, exc = exceptional_not_in_kahler(pair)
    results = {
        "crepant": crepant,
        "witnesses": [
            {"ray": list(w["ray"]), "min_cone": list(w["min_cone"]),
             "coordinates": list(w["coordinates"]), "degree": w["degree"],
             "discrepancy": w["discrepancy"]}
            for w in witnesses
        ],
        "sl_orbifold": sl_x,
        "gen_equals_new_rays": gen_eq,
        "gen_difference": gen_diff,
        "exceptional_outside_kahler": exc_ok,
        "exceptional_verdicts": exc,
        "sequences_agree": sequences_agree(pair) if gen_eq else None,
        "resolution_digest": input_digest(zdoc),
    }
    return results, {}, 0


def cmd_global_moduli(doc, args):
    pair, zdoc = _resolution_pair(doc, args)
    _fan, options = parse_fan_document(doc)
    # extend X by the resolution's new rays so both sides share L coordinates
    from .fan import extend

    ext = extend(pair.stacky, extra_vectors=pair.new_rays)
    data = choose_basis_p(extended_pl_and_pic(ext), override=options.get("p_basis"))
    gm = build_global_fan(pair, data_x=data, q_override=options.get("q_basis"))
    results = gm.summary()
    certificates = {}
    if args.emit_certificates:
        certificates["separating_functional"] = list(gm.separating_functional)
    return results, certificates, 0


def cmd_all(doc, args):
    checks = {}

    def check(name, ok, detail=None):
        checks[name] = {"pass": bool(ok), "detail": to_jsonable(detail)}

    ext = parse_fan(doc)
    _fan, options = parse_fan_document(doc)
    check("fan_valid", True)
    data0 = extended_pl_and_pic(ext)
    lp0, deg0 = rho_membership(data0)
    check("rho_membership_agreement", lp0 == deg0, {"lp": lp0, "degree": deg0})
    if not lp0:
        results = {"checks": checks,
                   "failed": [n for n, c in checks.items() if not c["pass"]],
                   "note": "rho outside the extended Kahler cone; "
                           "basis-dependent checks skipped"}
        return results, {}, (2 if results["failed"] else 0)
    data = choose_basis_p(data0, override=options.get("p_basis"))
    ring = presentation(ext)
    nef = is_nef(ext)
    dim = ring.dim
    families = operator_families(data)
    box_ops = {l: box_x(data, l) for l in _family_union(families)}
    rring = residue_algebra(data, box_ops.values())
    rdim = rring.dim if rring.finite else None
    if nef:
        vol = normalized_volume(ext)
        check("rank_identity", dim == vol == rdim,
              {"dim": dim, "vol": vol, "residue_dim": rdim})
    else:
        check("rank_identity_skipped_nonnef", True, {"dim": dim})
    mori = mori_lattices(data)
    table = box_coset_map(mori)
    rng = random.Random(2024)
    coset_ok = True
    for entry in table:
        t = entry["d_p_pairings"]
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
            shift = [sum(c * data.p_basis[a][j] for j, c in enumerate(coeffs))
                     for a in range(data.rank)]
            t2 = tuple(x + y for x, y in zip(t, shift))
            if mori.v_of(t2) != tuple(entry["box_element"]):
                coset_ok = False
    check("box_bijection", len(table) == len(ext.box) and coset_ok,
          {"table_size": len(table), "box_size": len(ext.box)})
    fact_ok = True
    family_rels = families["l_basis"] + families["cone"] + families["primitive"]
    rels = list(family_rels)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
        l = tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis))
                  for i in range(ext.n))
        rels.append(l)
    for l in rels:
        if not factorization_residual(data, l).is_zero():
            fact_ok = False
    check("operator_factorization", fact_ok, {"relations_checked": len(rels)})
    sdim = symbol_fiber_dimension(data, box_ops.values())
    check("symbol_fiber_finite", sdim != "infinite", {"dimension": sdim})
    check("residue_map_well_defined", residue_map_well_defined(data, ring, rring))
    unf = check_unfolding_conditions(data, ring)
    check("unfolding_conditions", all(unf.values()), unf)
    order = args.order
    lower = 2
    series = i_function(data, ring, mori, order + lower)
    tilde = tilde_i(series, ring, data)
    mm = mirror_map(series, ring, data)
    check("mirror_map_shape", True, {
        "log_linear_classes": [list(v) for v in mm.log_linear],
        "analytic_terms": len(mm.analytic),
    })
    ann_ok = True
    ops = [euler_check(data)] + [box_ops[l] for l in family_rels]
    for op in ops:
        report = annihilation_check(op, tilde.truncate(order + lower), ring)
        if not report.ok:
            ann_ok = False
    check("annihilation", ann_ok, {"operators_checked": len(ops), "order": order})
    small = i_function(data, ring, mori, order - 1) if order >= 1 else None
    if small is not None:
        stable = (small.truncate(order - 1).terms
                  == series.truncate(order - 1).terms)
        check("truncation_stability", stable, {"orders": [order - 1, order + lower]})
    failed = [name for name, c in checks.items() if not c["pass"]]
    results = {"checks": checks, "failed": failed}
    return results, {}, (2 if failed else 0)


COMMANDS = {
    "validate": cmd_validate,
    "box": cmd_box,
    "cohomology": cmd_cohomology,
    "picard": cmd_picard,
    "gkz": cmd_gkz,
    "ifunction": cmd_ifunction,
    "mirror-map": cmd_mirror_map,
    "crepant": cmd_crepant,
    "global-moduli": cmd_global_moduli,
    "superpotential": cmd_superpotential,
    "all": cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbimirror",
        description="Exact mirror-symmetry computations from stacky fans",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("fan", help="path to the fan JSON document")
    parser.add_argument("--order", type=int, default=3,
                        help="series truncation order (default 3)")
    parser.add_argument("--resolution", help="path to the resolution fan JSON")
    parser.add_argument("--basis-file",
                        help="JSON file with p_basis / q_basis overrides")
    parser.add_argument("--emit-certificates", action="store_true",
                        help="include LP and Groebner witnesses in the report")
    parser.add_argument("--timing", action="store_true",
                        help="record wall time (breaks byte-determinism)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load(args.fan)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"kind": "input", "message": str(exc)}}),
              file=sys.stderr)
        return 1
    if args.basis_file:
        try:
            overrides = _load(args.basis_file)
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": {"kind": "input", "message": str(exc)}}),
                  file=sys.stderr)
            return 1
        for key in ("p_basis", "q_basis"):
            if key in overrides:
                doc = dict(doc)
                doc[key] = overrides[key]
    start = time.monotonic()
    try:
        results, certificates, code = COMMANDS[args.command](doc, args)
    except USER_ERRORS as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(json.dumps({"error": {"kind": "resource-limit", "message": str(exc)}}),
              file=sys.stderr)
        return 3
    timing = round(time.monotonic() - start, 3) if args.timing else None
    report = make_report(args.command, doc, results,
                         certificates if args.emit_certificates else {}, timing)
    sys.stdout.write(dump_report(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
