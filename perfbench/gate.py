"""Correctness gate: each job's exit code and report against the golden record.

At seed 0 the documents are the ones in ``tests/data`` as written, so each
report must match its recorded SHA-256 byte for byte.  Other seeds relabel
rays, which changes report bytes but not the label-invariant quantities
extracted by ``invariants``; those must match the seed-0 record.
"""

from __future__ import annotations

import hashlib
import json

# Report fields under the byte-identity contract; ``timing`` and any later
# envelope field are left out.
FIELDS = ("command", "input_digest", "results", "certificates")

# Jobs whose invariants must equal those of another job's golden record.
SAME_INVARIANTS = {"picard:p123_sheared": "picard:p123"}

# The one failure excused, and only at seeds other than 0: a known defect of
# the bounded q-basis search in ``crepant.build_global_fan``, which under some
# relabelings finds no q-basis.  The job still counts as failed.
KNOWN_REFUSAL_JOBS = frozenset({"global-moduli:p123+p123_resolution",
                                "global-moduli:p123+p123_resolution:certificates"})
KNOWN_REFUSAL = "CrepantError: no q-basis found by the bounded search"


def digest(stdout: str, stderr: str):
    """(SHA-256, parsed report or None) of one job's output.  A job that
    printed no report is identified by the error object on stderr."""
    if stdout:
        try:
            report = json.loads(stdout)
            payload = {key: report.get(key) for key in FIELDS}
        except (ValueError, AttributeError):
            report, payload = None, {"stdout": stdout}
    else:
        report = None
        try:
            payload = {"error": json.loads(stderr)["error"]}
        except (ValueError, KeyError, TypeError):
            payload = {"stderr": stderr}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), report


def refusal(stderr: str):
    """``kind: message`` of the error object a job printed, or None."""
    try:
        error = json.loads(stderr)["error"]
        return f"{error['kind']}: {error['message']}"
    except (ValueError, KeyError, TypeError):
        return None


def invariants(report) -> dict:
    """Quantities that do not depend on how the rays are labeled: ring and
    graded dimensions, normalized volume, Box size, number of extremal rays,
    and the verdicts of ``all``."""
    if report is None:
        return {}
    command, results = report["command"], report["results"]
    if command == "validate":
        return {"valid": results["valid"]}
    if command == "box":
        return {"box_size": len(results["box_elements"])}
    if command == "cohomology":
        return {key: results[key]
                for key in ("dimension", "graded_dimensions", "normalized_volume")}
    if command == "picard":
        out = {"extremal_rays": len(results["kahler_extremal_rays"])}
        if "box_coset_table" in results:
            out["box_size"] = len(results["box_coset_table"])
        return out
    if command == "gkz":
        return {"dimension": results["cohomology_dimension"],
                "residue_dimension": results["residue_dimension"]}
    if command in ("ifunction", "mirror-map"):
        return {"dimension": len(results["standard_monomials"])}
    if command == "all":
        return {"checks": {name: check["pass"] for name, check in results["checks"].items()}}
    if command == "crepant":
        return {"crepant": results["crepant"]}
    return {}


def verdict(job_id: str, outcome: dict, golden: dict, seed: int):
    """(reason, excused) for a failed job, or None when the job is correct.

    Every failure makes the run incorrect -- a crash, a timeout, a wrong exit
    code, a report or invariant mismatch -- except the known refusal above,
    which is ``excused`` at seeds other than 0.
    """
    if outcome.get("error"):
        return outcome["error"], False
    expected = golden.get(job_id)
    if expected is None:
        return "no golden record", False
    if outcome["code"] != expected["exit"]:
        refused = outcome.get("refusal") or ""
        excused = (seed != 0 and job_id in KNOWN_REFUSAL_JOBS and outcome["code"] == 1
                   and refused.startswith(KNOWN_REFUSAL))
        return (f"exit code {outcome['code']}, expected {expected['exit']}"
                f"{': ' + refused[:120] if refused else ''}"), excused
    if seed == 0 and outcome["sha256"] != expected["sha256"]:
        return "report digest differs from the golden record", False
    reference = golden[SAME_INVARIANTS.get(job_id, job_id)]["invariants"]
    if outcome["invariants"] != reference:
        return f"invariants {outcome['invariants']}, expected {reference}", False
    return None
