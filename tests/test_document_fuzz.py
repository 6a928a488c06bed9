"""Mutated fan documents end in a clean exit, never a traceback.

Each example takes a document of `tests/data`, applies one or two mutations
(a value of the wrong type anywhere, a boolean or a huge int for an int, a
zero or non-primitive ray, a rank off by one, an out-of-range or repeated cone
index, or an `extra_generators`, `p_basis` or `q_basis` of any shape) and runs one single-document command on
it at `--order 2`. The exit code must be 0, 1, 2 or 3; exits 0 and 2 print a
report, and exits 1 and 3 a JSON error with a `kind`, except that `validate`
prints its own report when it exits 1 on an invalid fan.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbimirror import cli

DATA = Path(__file__).parent / "data"
DOCS = {path.name: path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.json"))}
COMMANDS = sorted(set(cli.COMMANDS) - {"crepant", "global-moduli"})  # the two-fan commands

JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}),
                 st.floats(-4, 4, allow_nan=False), st.lists(st.integers(-3, 3), max_size=3))
HUGE = st.sampled_from([1, -1]).flatmap(
    lambda sign: st.integers(18, 400).map(lambda k: sign * 10 ** k))
SHAPED = st.recursive(st.one_of(st.integers(-3, 3), JUNK),
                      lambda inner: st.lists(inner, max_size=4), max_leaves=12)


def _slots(value):
    """(container, key) of every value nested in the document, the document's
    own fields first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def mutated_documents(draw):
    doc = json.loads(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 2))):
        if not isinstance(doc, dict) or not all(
                isinstance(doc.get(k), list) and doc[k] for k in ("rays", "max_cones")):
            break
        rays, cones = doc["rays"], doc["max_cones"]
        slots = list(_slots(doc))
        ints = [(c, k) for c, k in slots if type(c[k]) is int]
        kind = draw(st.sampled_from(["junk", "bool", "huge", "zero-ray", "scaled-ray",
                                     "rank", "cone-index", "option"]))
        if kind == "junk":
            container, key = draw(st.sampled_from(slots + [(None, None)]))
            if container is None:
                doc = draw(JUNK)
            else:
                container[key] = draw(JUNK)
        elif kind in ("bool", "huge") and ints:
            container, key = draw(st.sampled_from(ints))
            container[key] = draw(st.booleans() if kind == "bool" else HUGE)
        elif kind == "zero-ray":
            i = draw(st.integers(0, len(rays) - 1))
            rays[i] = [0] * (len(rays[i]) if isinstance(rays[i], list) else 2)
        elif kind == "scaled-ray":
            i = draw(st.integers(0, len(rays) - 1))
            if isinstance(rays[i], list) and all(type(x) is int for x in rays[i]):
                rays[i] = [x * draw(st.integers(2, 3)) for x in rays[i]]
        elif kind == "rank" and type(doc.get("rank")) is int:
            doc["rank"] += draw(st.sampled_from([-1, 1]))
        elif kind == "cone-index":
            cone = draw(st.sampled_from(cones))
            if isinstance(cone, list) and cone:
                k = draw(st.integers(0, len(cone) - 1))
                cone[k] = draw(st.sampled_from([0, -1, len(rays) + 1, *cone]))
        elif kind == "option":
            doc[draw(st.sampled_from(["extra_generators", "p_basis", "q_basis"]))] = \
                draw(SHAPED)
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fan.json"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_exit_cleanly(doc_path, doc, command):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(doc_path), "--order", "2"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (code, out, err)
    if code in (0, 2) or (command == "validate" and code == 1 and out):
        report = json.loads(out)
        assert err == "" and report["command"] == command
        if code == 1:
            assert report["results"]["valid"] is False
    else:
        assert out == ""
        assert isinstance(json.loads(err)["error"]["kind"], str), err
