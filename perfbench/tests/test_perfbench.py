"""Tests of the benchmark itself: span arithmetic, wrapper installation and
removal, the correctness gate, ladder generators and seeded relabeling.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from orbimirror import cli, cohomology, fan  # noqa: E402


def test_self_times_of_nested_spans():
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.child", 6.0, 7.0, 3),
        ("b.child", 6.5, 8.0, 3),    # overlaps its sibling: covered once
        ("c", 9.5, 12.0, 0),         # runs past its parent: clipped
    ]
    assert spans.self_times(synthetic) == pytest.approx(
        [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 4.0 - 2.0, 1.0, 1.5, 2.5])


def test_wrappers_see_calls_through_imported_names(capsys):
    original = cohomology.presentation
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.presentation is cohomology.presentation is not original
        assert cli.presentation.__wrapped__ is original
        code = tracer.wrap(spans.ROOT, cli.main)(
            ["cohomology", str(BENCH.parent / "tests" / "data" / "p112.json")])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert code == 0
    stats = tracer.summary()
    assert stats[spans.ROOT]["calls"] == 1
    # cli imported these by name; cohomology imports the GP collections by name
    assert stats["cohomology.presentation"]["calls"] == 1
    assert stats["fandoc.parse_fan"]["calls"] == 1
    assert stats["fan.generalized_primitive_collections"]["calls"] >= 1
    assert stats["cohomology.groebner_basis"]["calls"] >= 1
    assert stats["cohomology.presentation"]["distinct"] == 1
    total = sum(s["self_s"] for s in stats.values())
    root = next(s for s in tracer.spans if s[0] == spans.ROOT)
    assert 0 < total <= root[2] - root[1]


def test_wrappers_are_removed():
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("orbimirror")}
    l_basis = vars(fan.ExtendedStackyFan)["l_basis"]
    tracer = spans.Tracer()
    tracer.install()
    assert vars(fan.ExtendedStackyFan)["l_basis"] is not l_basis
    tracer.remove()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert all(after[name][k] is v for name in before for k, v in before[name].items())
    assert vars(fan.ExtendedStackyFan)["l_basis"] is l_basis
    assert not hasattr(cli.presentation, "__wrapped__")
    cohomology.presentation(fan.extend(fan.StackyFan(1, [(1,), (-1,)], [(0,), (1,)])))
    assert tracer.spans == []


def _validate_p1(tmp_path):
    jobs = dict(run.prepare("corpus", 0, tmp_path))
    return [("validate:p1", jobs["validate:p1"])]


def test_golden_record_passes(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())["jobs"]
    records = run.run_pass(_validate_p1(tmp_path), golden, 0, float("inf"))
    assert [(r["failed"], r["excused"]) for r in records] == [(False, False)]


def test_tampered_golden_digest_fails_the_job(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())["jobs"]
    golden["validate:p1"] = dict(golden["validate:p1"], sha256="0" * 64)
    records = run.run_pass(_validate_p1(tmp_path), golden, 0, float("inf"))
    assert [(r["failed"], r["excused"]) for r in records] == [(True, False)]


def test_only_the_known_refusal_at_a_nonzero_seed_is_excused():
    job = "global-moduli:p123+p123_resolution"
    golden = {job: {"exit": 0, "sha256": "x", "invariants": {}},
              "all:p123": {"exit": 0, "sha256": "x", "invariants": {}}}
    refused = {"code": 1, "refusal": gate.KNOWN_REFUSAL + "; supply q_basis",
               "sha256": "y", "invariants": {}}
    assert gate.verdict(job, refused, golden, 3)[1] is True
    assert gate.verdict(job, refused, golden, 0)[1] is False
    assert gate.verdict("all:p123", refused, golden, 3)[1] is False
    assert gate.verdict(job, dict(refused, code=3), golden, 3)[1] is False
    assert gate.verdict(job, dict(refused, refusal="CrepantError: other"), golden, 3)[1] is False
    for error in ("crash: RecursionError: deep", "ran past the 60 s job limit"):
        assert gate.verdict(job, dict(refused, error=error), golden, 3)[1] is False


def test_a_failed_job_counts_at_the_job_limit():
    ok = {"failed": False, "excused": False, "setup_s": 0.05, "rss_mib": 20.0,
          "wall_s": 1.0, "cpu_s": 1.0, "probes_s": [speed.NOMINAL_S] * 2}
    crashed = dict(ok, failed=True, wall_s=0.01, cpu_s=0.01)
    timed_out = {"failed": True, "excused": False, "probes_s": [speed.NOMINAL_S] * 2}
    metrics = run.pass_metrics([ok, crashed, timed_out])
    for name in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s"):
        assert metrics[name] == pytest.approx(1.0 + 2 * run.JOB_LIMIT_S)
    assert metrics["max_job_s"] == run.JOB_LIMIT_S
    excused = dict(crashed, excused=True)
    assert run.pass_metrics([ok, excused])["wall_ref_s"] == pytest.approx(1.01)


def test_ladder_documents_validate_and_satisfy_the_rank_identity(capsys, tmp_path):
    for name, doc in workloads.ladder_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["valid"]
        if name.startswith("smooth"):
            continue     # not nef: the identity does not apply
        assert cli.main(["cohomology", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["nef"] and results["dimension"] == results["normalized_volume"]
    assert len(workloads.smooth_polygon(12)["rays"]) == 12


def test_seeded_relabeling():
    base = {**workloads.corpus_documents(run.DATA), **workloads.ladder_documents()}
    assert workloads.seeded_documents(base, 0) == {
        k: {"rank": v["rank"], "rays": v["rays"], "max_cones": v["max_cones"]}
        for k, v in base.items()}
    seeded = workloads.seeded_documents(base, 7)
    assert seeded == workloads.seeded_documents(base, 7)
    assert seeded != workloads.seeded_documents(base, 8)
    for x, z in workloads.RESOLUTION_PAIRS:
        n = len(seeded[x]["rays"])
        assert seeded[z]["rays"][:n] == seeded[x]["rays"]
        assert sorted(map(tuple, seeded[z]["rays"])) == sorted(map(tuple, base[z]["rays"]))
    for name, doc in seeded.items():
        cones = {frozenset(tuple(doc["rays"][i - 1]) for i in c) for c in doc["max_cones"]}
        assert cones == {frozenset(tuple(base[name]["rays"][i - 1]) for i in c)
                         for c in base[name]["max_cones"]}


def test_scaled_times_use_each_jobs_own_probes():
    job = {"failed": False, "excused": False, "setup_s": 0.05, "rss_mib": 20.0}
    records = [dict(job, wall_s=2.0, cpu_s=1.5, probes_s=[2 * speed.NOMINAL_S] * 2),
               dict(job, wall_s=1.0, cpu_s=1.0, probes_s=[speed.NOMINAL_S] * 2)]
    metrics = run.pass_metrics(records)
    assert metrics["wall_s"] == 3.0 and metrics["max_job_s"] == 2.0
    assert metrics["wall_ref_s"] == pytest.approx(2.0)
    assert metrics["cpu_ref_s"] == pytest.approx(1.75)
    assert speed.probe() > 0
