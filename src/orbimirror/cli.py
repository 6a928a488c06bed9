"""Command-line interface.

    orbimirror <command> FAN.json [--order N] [--resolution Z.json]
               [--basis-file B.json] [--emit-certificates] [--timing]

Each command is a view over one `Job`, whose stages (the S-extended fan, its
extended Picard data and Kaehler cone, rho in K^e, the p-basis, the
presentation, the operator families and box operators, the I-function, and
for a resolution pair its checks and both sides' Picard data) are derived on
first use and kept, so no command derives a stage twice.

Exit codes: 0 success, 1 validation failure (a usage error too), 2 invariant
failure, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cached_property, partial

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
    check_gluing_hypotheses,
    check_sl,
    exceptional_not_in_kahler,
    is_crepant,
    sequences_agree,
)
from .fan import FanError, extend, gen_elements
from .fandoc import (
    DocumentError,
    dump_report,
    input_digest,
    make_report,
    parse_fan,
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
    operator_families,
    p_pairings,
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


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Job:
    """One command on one fan document. A stage is derived on first access
    and kept; one that raises keeps nothing, so its error surfaces where the
    command first reads it."""

    def __init__(self, doc: dict, args, zdoc: dict | None = None):
        self.doc = doc
        self.args = args
        self.zdoc = zdoc  # the --resolution document, when one was given

    @cached_property
    def document(self):
        """(StackyFan, options) of the fan document; every stage reads this one
        StackyFan, so each of its checks runs once per job."""
        return parse_fan(self.doc)

    @property
    def fan(self):
        return self.document[0]

    @property
    def options(self) -> dict:
        return self.document[1]

    @cached_property
    def ext(self):
        return extend(self.fan, self.options.get("extra_generators"))

    @cached_property
    def picard(self):
        """Extended Picard data and Kaehler cone, before the p-basis."""
        return extended_pl_and_pic(self.ext)

    @cached_property
    def rho_in_kahler(self) -> tuple[bool, bool]:
        """(LP verdict, degree-criterion verdict) for rho in K^e."""
        return rho_membership(self.picard)

    @cached_property
    def data(self):
        """The Picard data with its p-basis, M, N and superpotential."""
        if not self.rho_in_kahler[0]:
            raise PicardError(
                "rho is not in the extended Kahler cone (fan is not nef); "
                "the p-basis and everything downstream are undefined"
            )
        return choose_basis_p(self.picard, override=self.options.get("p_basis"))

    @cached_property
    def ring(self):
        return presentation(self.ext)

    @cached_property
    def mori(self):
        return mori_lattices(self.data)

    @cached_property
    def families(self) -> dict:
        return operator_families(self.data, self.ring)

    @cached_property
    def box_ops(self) -> dict:
        """box_x of each family relation, in `_family_union` order; box_x has
        checked the factorization of each."""
        return {l: box_x(self.data, l) for l in _family_union(self.families)}

    @cached_property
    def rring(self):
        return residue_algebra(self.data, self.box_ops.values())

    @cached_property
    def degrees(self) -> list:
        """The effective degrees up to --order, with their pairings and sectors."""
        return enumerate_degrees(self.mori, self.args.order)

    @cached_property
    def series(self):
        return i_function(self.data, self.ring, self.mori, self.args.order, self.degrees)

    @cached_property
    def pair(self):
        """(ResolutionPair, resolution document) of --resolution."""
        if self.zdoc is None:
            raise DocumentError("this command needs --resolution Z.json", "/")
        zfan = parse_fan(self.zdoc)[0]
        return ResolutionPair(self.fan, zfan), self.zdoc

    @cached_property
    def verdicts(self) -> tuple:
        """The crepant, SL and Gen = new rays verdicts of the pair."""
        pair = self.pair[0]
        return is_crepant(pair), check_sl(pair.stacky), check_gen_equals_new_rays(pair)

    @cached_property
    def ext_x(self):
        """X extended by the resolution's new rays, so both sides share L."""
        pair = self.pair[0]
        return extend(pair.stacky, extra_vectors=pair.new_rays)

    @cached_property
    def data_x(self):
        return choose_basis_p(extended_pl_and_pic(self.ext_x),
                              override=self.options.get("p_basis"))

    @cached_property
    def data_z(self):
        """Picard data of the resolution; Z is smooth, so its Gen is empty."""
        return extended_pl_and_pic(extend(self.pair[0].resolution))


def cmd_validate(job):
    report = job.fan.validation
    return {"valid": report.ok, "issues": report.summary()}, {}, (0 if report.ok else 1)


def cmd_box(job):
    ext = job.ext
    gens = {b.vector for b in gen_elements(ext.fan)}
    results = {
        "box_elements": [
            {
                "vector": b.vector,
                "min_cone": [i + 1 for i in b.min_cone],
                "fractional_coordinates": b.fractional,
                "age": b.age,
                "in_gen": b.vector in gens,
            }
            for b in ext.box
        ],
        "gen": sorted(gens),
        "extension": [b.vector for b in ext.extra],
    }
    return results, {}, 0


def cmd_cohomology(job):
    ring = job.ring
    nef = is_nef(job.ext)
    results = {
        "variables": ring.var_names,
        "degrees": ring.degrees,
        "dimension": ring.dim,
        "graded_dimensions": ring.graded_dims(),
        "standard_monomials": ring.std_monomials,
        "generators": {
            family: [_poly_terms(p) for p in polys]
            for family, polys in ring.generators.items()
        },
        "normalized_volume": normalized_volume(job.ext) if nef else None,
        "nef": nef,
    }
    return results, {"groebner_basis": [_poly_terms(g) for g in ring.groebner]}, 0


def _poly_terms(p):
    return [{"monomial": m, "coefficient": c} for m, c in sorted(p.items())]


def cmd_picard(job):
    data0 = job.picard
    lp_ok, deg_ok = job.rho_in_kahler
    cone = data0.kahler
    results = {
        "r": data0.r,
        "e": data0.e,
        "l_basis": job.ext.l_basis,
        "pic_basis": data0.pic_basis,
        "rho": data0.rho,
        "rho_in_extended_kahler": {"lp": lp_ok, "degree_criterion": deg_ok},
        "kahler_inequalities": cone.inequalities,
        "kahler_equalities": cone.equalities,
        "kahler_extremal_rays": cone.extremal_rays(),
    }
    if not lp_ok:
        return dict(results, p_basis=None), {}, 0
    data = job.data
    results.update({
        "p_basis": data.p_basis,
        "q_basis": data.q_basis,
        "m_matrix": data.m_matrix,
        "n_matrix": data.n_matrix,
        "box_coset_table": box_coset_map(job.mori),
    })
    return results, {}, 0


def cmd_superpotential(job):
    data = job.data
    results = {
        "terms": [
            {"coefficient": c, "chi_exponents": chi, "y_exponents": y}
            for c, chi, y in data.superpotential
        ],
        "n_matrix": data.n_matrix,
        "m_matrix": data.m_matrix,
        "p_basis": data.p_basis,
    }
    return results, {}, 0


def cmd_gkz(job):
    data, ring, families, box_ops, rring = job.data, job.ring, job.families, job.box_ops, job.rring
    results = {
        "euler_check": euler_check(data).term_list(),
        "operators": {
            family: [{"relation": l, "box_x": box_ops[l].term_list()} for l in rels]
            for family, rels in families.items()
        },
        # box_x has checked the factorization of every operator in box_ops
        "factorization_exact_on_basis": {str(list(l)): True for l in families["l_basis"]},
        "residue_dimension": rring.dim if rring.finite else "infinite",
        "residue_graded_dimensions": rring.graded_dims() if rring.finite else {},
        "cohomology_dimension": ring.dim,
        "residue_map_well_defined": residue_map_well_defined(data, ring, rring),
        "symbol_fiber_dimension": symbol_fiber_dimension(data, box_ops.values()),
        "unfolding_conditions": check_unfolding_conditions(data, ring),
    }
    return results, {}, 0


def cmd_ifunction(job):
    den = job.data.m_ints[1]
    results = {
        "order": job.args.order,
        "degrees": [{**d, "pairings": tuple(Fraction(x, den) for x in d["pairings"])}
                    for d in job.degrees],
        "standard_monomials": job.ring.std_monomials,
        "terms": job.series.term_list(job.ring),
    }
    return results, {}, 0


def cmd_mirror_map(job):
    mm = mirror_map(job.series, job.ring, job.data)
    results = {
        "order": job.args.order,
        "log_linear_classes": mm.log_linear,
        "analytic_part": mm.analytic_list(),
        "standard_monomials": job.ring.std_monomials,
    }
    return results, {}, 0


def cmd_crepant(job):
    pair, zdoc = job.pair
    (crepant, witnesses), sl_x, (gen_eq, gen_diff) = job.verdicts
    exc_ok, exc = exceptional_not_in_kahler(pair, job.data_z) if crepant else (None, None)
    results = {
        "crepant": crepant,
        "witnesses": witnesses,
        "sl_orbifold": sl_x,
        "gen_equals_new_rays": gen_eq,
        "gen_difference": gen_diff,
        "exceptional_outside_kahler": exc_ok,
        "exceptional_verdicts": exc,
        "sequences_agree": sequences_agree(job.ext_x, pair.resolution) if gen_eq else None,
        "resolution_digest": input_digest(zdoc),
    }
    return results, {}, 0


def cmd_global_moduli(job):
    data_x = job.data_x
    check_gluing_hypotheses(*job.verdicts)
    gm = build_global_fan(data_x, job.data_z, q_override=job.options.get("q_basis"))
    return gm.summary(), {"separating_functional": gm.separating_functional}, 0


def cmd_all(job):
    checks = {}

    def check(name, ok, detail=None):
        checks[name] = {"pass": bool(ok), "detail": to_jsonable(detail)}

    def outcome(**note):
        failed = [n for n, c in checks.items() if not c["pass"]]
        return {"checks": checks, "failed": failed, **note}, {}, (2 if failed else 0)

    ext = job.ext
    check("fan_valid", True)
    lp0, deg0 = job.rho_in_kahler
    check("rho_membership_agreement", lp0 == deg0, {"lp": lp0, "degree": deg0})
    if not lp0:
        return outcome(note="rho outside the extended Kahler cone; "
                            "basis-dependent checks skipped")
    data, ring = job.data, job.ring
    nef = is_nef(ext)
    dim = ring.dim
    rring = job.rring
    rdim = rring.dim if rring.finite else None
    if nef:
        vol = normalized_volume(ext)
        check("rank_identity", dim == vol == rdim,
              {"dim": dim, "vol": vol, "residue_dim": rdim})
    else:
        check("rank_identity_skipped_nonnef", True, {"dim": dim})
    mori = job.mori
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
    # box_x checks the factorization of each operator it builds: the family
    # relations' in job.box_ops above, ten random relations of L here. For
    # e = 0 its only check is that l is a relation, made by p_pairings.
    families = job.families
    family_rels = families["l_basis"] + families["cone"] + families["primitive"]
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in ext.l_basis]
        l = tuple(sum(c * b[i] for c, b in zip(coeffs, ext.l_basis)) for i in range(ext.n))
        if data.e:
            box_x(data, l)
        else:
            p_pairings(data, l)
    check("operator_factorization", True, {"relations_checked": len(family_rels) + 10})
    sdim = symbol_fiber_dimension(data, job.box_ops.values())
    check("symbol_fiber_finite", sdim != "infinite", {"dimension": sdim})
    check("residue_map_well_defined", residue_map_well_defined(data, ring, rring))
    unf = check_unfolding_conditions(data, ring)
    check("unfolding_conditions", all(unf.values()), unf)
    order = job.args.order
    lower = 2
    series = i_function(data, ring, mori, order + lower)
    tilde = tilde_i(series, ring, data)
    mm = mirror_map(series, ring, data)
    check("mirror_map_shape", True, {
        "log_linear_classes": mm.log_linear,
        "analytic_terms": len(mm.analytic),
    })
    truncated = tilde.truncate(order + lower)
    # each distinct operator once; the count is of the family entries, with
    # their repeats, and the Euler operator
    ops = [euler_check(data), *job.box_ops.values()]
    ann_ok = all([annihilation_check(op, truncated, ring).ok for op in ops])
    check("annihilation", ann_ok,
          {"operators_checked": len(family_rels) + 1, "order": order})
    if order >= 1:
        small = i_function(data, ring, mori, order - 1)
        stable = (small.truncate(order - 1).terms
                  == series.truncate(order - 1).terms)
        check("truncation_stability", stable, {"orders": [order - 1, order + lower]})
    return outcome()


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


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise instead of exiting 2, which the CLI keeps for invariant failures."""
        raise UsageError(message)


def order(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"order must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # A fixed help width: the default formatter asks the terminal for its
    # size, which imports shutil (and with it zlib, bz2 and lzma) on every run.
    parser = _Parser(
        prog="orbimirror",
        description="Exact mirror-symmetry computations from stacky fans",
        formatter_class=partial(argparse.HelpFormatter, width=80),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("fan", help="path to the fan JSON document")
    parser.add_argument("--order", type=order, default=3,
                        help="series truncation order, >= 0 (default 3)")
    parser.add_argument("--resolution", help="path to the resolution fan JSON")
    parser.add_argument("--basis-file",
                        help="JSON file with p_basis / q_basis overrides")
    parser.add_argument("--emit-certificates", action="store_true",
                        help="include LP and Groebner witnesses in the report")
    parser.add_argument("--timing", action="store_true",
                        help="record wall time (breaks byte-determinism)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(json.dumps({"error": {"kind": "usage", "message": str(exc)}}), file=sys.stderr)
        return 1
    try:
        doc = _load(args.fan)
        overrides = _load(args.basis_file) if args.basis_file else {}
        zdoc = _load(args.resolution) if args.resolution else None
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
        results, certificates, code = COMMANDS[args.command](Job(doc, args, zdoc))
    except USER_ERRORS as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(json.dumps({"error": {"kind": "resource-limit", "message": str(exc)}}),
              file=sys.stderr)
        return 3
    timing = round(time.monotonic() - start, 3) if args.timing else None
    # a command returns every certificate it has; only --emit-certificates reports them
    report = make_report(args.command, doc, results,
                         certificates if args.emit_certificates else {}, timing)
    sys.stdout.write(dump_report(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
