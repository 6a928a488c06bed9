"""Byte-identity contract: the commands reproduce the exit code and report
digest that the benchmark's golden file records for seed 0 (the documents as
written) on every corpus job of the benchmark (every command on every
document in tests/data, both resolution pairs, and the certificates), on the
series jobs (high orders), and on the generated ladder fans."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from orbimirror.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT))

from perfbench.gate import digest  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    LADDER_JOBS,
    SERIES_JOBS,
    corpus_jobs,
    ladder_documents,
)

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["jobs"]
COMMANDS = ("cohomology", "picard", "gkz", "ifunction", "mirror-map", "all")
DOCUMENTS = sorted(p.stem for p in DATA.glob("*.json"))
# Corpus jobs of the commands outside COMMANDS: validate, box and
# superpotential on every document, crepant and global-moduli on both
# resolution pairs, and the global-moduli certificates.
OTHER_JOBS = [(job, argv) for job, argv in corpus_jobs(DOCUMENTS) if argv[0] not in COMMANDS]


def _check(job_id, argv):
    record = GOLDEN[job_id]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    sha256, _ = digest(out.getvalue(), err.getvalue())
    assert (code, sha256) == (record["exit"], record["sha256"])


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", DOCUMENTS)
def test_report_matches_golden_digest(command, name):
    _check(f"{command}:{name}", [command, str(DATA / f"{name}.json")])


def test_groebner_certificate_matches_golden_digest():
    _check("cohomology:p123:certificates",
           ["cohomology", str(DATA / "p123.json"), "--emit-certificates"])


@pytest.mark.parametrize("job_id, argv", OTHER_JOBS, ids=[job for job, _ in OTHER_JOBS])
def test_other_corpus_report_matches_golden_digest(job_id, argv):
    _check(job_id, [str(DATA / f"{a}.json") if a in DOCUMENTS else a for a in argv])


@pytest.mark.parametrize("job_id, argv", SERIES_JOBS, ids=[job for job, _ in SERIES_JOBS])
def test_series_report_matches_golden_digest(job_id, argv):
    _check(job_id, [str(DATA / f"{a}.json") if a in DOCUMENTS else a for a in argv])


@pytest.mark.parametrize("job_id, argv", LADDER_JOBS, ids=[job for job, _ in LADDER_JOBS])
def test_ladder_report_matches_golden_digest(job_id, argv, tmp_path):
    command, name = argv
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ladder_documents()[name]))
    _check(job_id, [command, str(path)])
