"""orbimirror benchmark: the CLI end to end, one job at a time.

    python3 perfbench/run.py --workload corpus|series|ladder|all --seed N
                             --seconds S --trace 0|1

Closed loop with a single client: each job is one ``orbimirror.cli.main(argv)``
call in a fresh interpreter, and the next job starts only when the previous
one has ended.  A pass runs every job of the workload once.  The first pass
always runs; another starts only if a pass as long as the last one would
still end within ``--seconds``.  Each metric is the median over the passes.
Every job's exit code and report are checked against ``golden.json`` (see
``gate.py``); any failure but one known, excused refusal makes the run
incorrect.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced, and reports per-layer metrics from the traced pass
plus the tracing overhead.  The last line of standard output is one JSON
object; the lines before it list every metric by name and unit.  Why the
workloads are what they are is in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
GOLDEN = HERE / "golden.json"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("corpus", "series", "ladder")
JOB_LIMIT_S = 60.0      # a job running longer fails
RUN_LIMIT_S = 120.0     # jobs not started this long after --seconds fail unrun

# Gated end-to-end metrics.  The ``_ref_s`` sums scale each job's time by the
# speed probes run just before and after it (see speed.py): on a shared host
# the raw sums drift by tens of percent between runs of the same work, the
# scaled ones much less.  A job that failed, unless excused, counts at
# JOB_LIMIT_S in every sum, so failing early never looks faster.
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Printed with the gated metrics, not part of the result line.  One job's
# time cannot be steadied by the probe, and ``max_job_s`` spread by 13-40%
# over ten seeds, wider than any bound the result format allows.
RAW = {"wall_s": "s", "cpu_s": "s", "max_job_s": "s"}

# Self-time groups compared across workloads in a traced ``--workload all`` run.
GROUPS = {
    "n_decompositions": ("picard.box_coset_map", "operators.sector_class"),
    "extremal_rays": ("cones.RationalCone.extremal_rays",),
    "groebner": ("cohomology.groebner_basis",),
    "ring_arithmetic": ("cohomology.GradedQuotientRing.nf",
                        "cohomology.GradedQuotientRing.class_of",
                        "cohomology.GradedQuotientRing.mul"),
}
# (group, workload with the larger share, workload with the smaller share)
PREDICTIONS = (("n_decompositions", "ladder", "corpus"),
               ("extremal_rays", "ladder", "corpus"),
               ("groebner", "ladder", "corpus"),
               ("ring_arithmetic", "series", "ladder"))


class SetupError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in spans.DISTINCT:
            units[f"{name}.distinct_ratio"] = "ratio"
    for module in list(spans.TARGETS) + ["cli"]:
        units[f"{module}.self_s"] = "s"
    units["tracing_overhead"] = "ratio"
    return units


def prepare(workload: str, seed: int, workdir: Path):
    """Write the seed's documents and return the jobs with concrete argv."""
    for path in (SRC / "orbimirror" / "cli.py", DATA, WORKER):
        if not path.exists():
            raise SetupError(f"missing {path.relative_to(ROOT)}")
    corpus = workloads.corpus_documents(DATA)
    if not corpus:
        raise SetupError(f"no fan documents in {DATA.relative_to(ROOT)}")
    docs = workloads.seeded_documents({**corpus, **workloads.ladder_documents()}, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "docs").mkdir(parents=True)
    (workdir / "spans").mkdir()
    paths = {}
    for name, doc in docs.items():
        paths[name] = workdir / "docs" / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    templates = {"corpus": workloads.corpus_jobs(corpus), "series": workloads.SERIES_JOBS,
                 "ladder": workloads.LADDER_JOBS}[workload]
    jobs = []
    for job_id, argv in templates:
        argv = list(argv)
        argv[1] = str(paths[argv[1]])
        if "--resolution" in argv:
            k = argv.index("--resolution") + 1
            argv[k] = str(paths[argv[k]])
        jobs.append((job_id, argv))
    return jobs


def run_job(argv, spans_file, timeout: float) -> dict:
    """One job in a fresh interpreter.  Isolated mode without ``site``: no
    environment variable or site-packages hook changes what is imported, and
    the import of orbimirror's standard-library dependencies counts in
    ``setup_s``."""
    if timeout <= 0:
        return {"error": "not run: the run's time limit had passed"}
    command = [sys.executable, "-I", "-S", str(WORKER), str(SRC), str(spans_file or "-"), *argv]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"ran past the {timeout:.0f} s job limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


def run_pass(jobs, golden, seed, deadline, spans_dir=None) -> list[dict]:
    records = []
    for job_id, argv in jobs:
        spans_file = spans_dir / f"{job_id}.json" if spans_dir else None
        timeout = min(JOB_LIMIT_S, deadline - time.monotonic())
        # The probes run in this process, where the program cannot affect them.
        before = speed.probe()
        outcome = run_job(argv, spans_file, timeout)
        outcome["probes_s"] = [before, speed.probe()]
        outcome["job"] = job_id
        failure = gate.verdict(job_id, outcome, golden, seed)
        outcome["failed"] = failure is not None
        outcome["excused"] = failure is not None and failure[1]
        if failure:
            label = "FAILED (known defect, excused)" if failure[1] else "FAILED"
            print(f"{label} {job_id}: {failure[0]}", file=sys.stderr)
        records.append(outcome)
    return records


def pass_metrics(records) -> dict:
    wall, cpu, wall_ref, cpu_ref = [], [], [], []
    for r in records:
        if r["failed"] and not r["excused"]:
            w = c = w_ref = c_ref = JOB_LIMIT_S
        else:
            w, c = r["wall_s"], r["cpu_s"]
            scale = speed.NOMINAL_S / statistics.mean(r["probes_s"])
            w_ref, c_ref = w * scale, c * scale
        wall.append(w)
        cpu.append(c)
        wall_ref.append(w_ref)
        cpu_ref.append(c_ref)
    ran = [r for r in records if "setup_s" in r]
    return {
        "wall_ref_s": sum(wall_ref),
        "cpu_ref_s": sum(cpu_ref),
        "max_job_s": max(wall),
        "setup_s": statistics.median(r["setup_s"] for r in ran) if ran else JOB_LIMIT_S,
        "peak_rss_mib": max((r["rss_mib"] for r in ran), default=0.0),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
    }


def layer_metrics(records, untraced_wall: float) -> dict:
    totals = {}
    for r in records:
        for name, stat in r.get("layers", {}).items():
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
            entry["calls"] += stat["calls"]
            entry["self_s"] += stat["self_s"]
            entry["distinct"] += stat.get("distinct", 0)
    metrics = {}
    modules = {module: 0.0 for module in spans.TARGETS}
    for name in spans.function_names():
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        if name in spans.DISTINCT:
            # No calls means no recomputation: the ratio is then 1.
            metrics[f"{name}.distinct_ratio"] = (entry["distinct"] / entry["calls"]
                                                 if entry["calls"] else 1.0)
        modules[name.split(".")[0]] += entry["self_s"]
    for module, value in modules.items():
        metrics[f"{module}.self_s"] = value
    metrics["cli.self_s"] = totals.get(spans.ROOT, {"self_s": 0.0})["self_s"]
    metrics["tracing_overhead"] = pass_metrics(records)["wall_ref_s"] / untraced_wall
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{workload}-seed{seed}"
    jobs = prepare(workload, seed, workdir)
    if not GOLDEN.exists():
        raise SetupError(f"missing {GOLDEN.relative_to(ROOT)}")
    golden = json.loads(GOLDEN.read_text())["jobs"]
    start = time.monotonic()
    deadline = start + seconds + RUN_LIMIT_S
    passes = []
    while True:
        pass_start = time.monotonic()
        passes.append(run_pass(jobs, golden, seed, deadline))
        now = time.monotonic()
        elapsed, last = now - start, now - pass_start
        if trace or elapsed + last > seconds:
            break
    records = [r for p in passes for r in p]
    if trace:
        untraced = pass_metrics(passes[0])["wall_ref_s"]
        traced = run_pass(jobs, golden, seed, deadline, spans_dir=workdir / "spans")
        records += traced
        metrics = layer_metrics(traced, untraced)
        units = per_layer_units()
    else:
        per_pass = [pass_metrics(p) for p in passes]
        units = END_TO_END | RAW
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in units}
    return {"workload": workload, "passes": len(passes), "traced": trace,
            "attempted": len(records),
            "failed": sum(r["failed"] for r in records),
            "excused": sum(r["excused"] for r in records), "metrics": metrics, "units": units}


def shares(metrics: dict) -> dict:
    total = sum(metrics[f"{module}.self_s"] for module in list(spans.TARGETS) + ["cli"])
    return {group: sum(metrics[f"{name}.self_s"] for name in names) / total
            for group, names in GROUPS.items()}


def print_result(result: dict):
    w = result["workload"]
    passes = "1 untraced and 1 traced pass" if result["traced"] else f"{result['passes']} pass(es)"
    print(f"{w}: {passes}, {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, {result['excused']} of them excused as the known defect")
    print(f"{w} failed_ratio {result['failed'] / result['attempted']:.4f} ratio")
    for name, value in result["metrics"].items():
        print(f"{w} {name} {value:.6g} {result['units'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_result(result)
    if args.trace and len(results) > 1:
        by_workload = {r["workload"]: shares(r["metrics"]) for r in results}
        for group, larger, smaller in PREDICTIONS:
            a, b = by_workload[larger][group], by_workload[smaller][group]
            print(f"prediction {group} share {larger} {a:.4f} > {smaller} {b:.4f}: "
                  f"{'holds' if a > b else 'FAILS'}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    excused = sum(r["excused"] for r in results)
    prefix = len(results) > 1
    metrics = {f"{r['workload']}.{name}" if prefix else name:
               {"value": value, "unit": r["units"][name]}
               for r in results for name, value in r["metrics"].items() if name not in RAW}
    print(json.dumps({"correct": failed == excused, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
