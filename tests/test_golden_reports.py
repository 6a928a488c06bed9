"""Byte-identity contract: the operator and series commands reproduce, on
every document in tests/data, the exit code and report digest that the
benchmark's golden file records for seed 0 (the documents as written)."""

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

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["jobs"]
COMMANDS = ("gkz", "ifunction", "mirror-map", "all")
DOCUMENTS = sorted(p.stem for p in DATA.glob("*.json"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", DOCUMENTS)
def test_report_matches_golden_digest(command, name):
    record = GOLDEN[f"{command}:{name}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, str(DATA / f"{name}.json")])
    sha256, _ = digest(out.getvalue(), err.getvalue())
    assert (code, sha256) == (record["exit"], record["sha256"])
