import argparse
from collections import Counter
import fractions
from fractions import Fraction
import json
from math import gcd
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbimirror
from corpus import (
    _dump_report_oracle,
    cube_boundary_fans,
    ext_of_doc,
    gorenstein_wps3,
    to_jsonable,
    weighted_projective_space,
)
from orbimirror import cli, cohomology, cones, crepant, fan, ifunction, linalg, operators, picard
from orbimirror.cli import main
from orbimirror.cones import RationalCone
from orbimirror.fan import StackyFan
from orbimirror.fandoc import (
    DocumentError,
    dump_report,
    input_digest,
    parse_fan,
    serialize_fan,
)
from orbimirror.linalg import det
from orbimirror.operators import LogDiffOp
from perfbench.workloads import (
    LADDER_JOBS,
    SERIES_JOBS,
    corpus_documents,
    corpus_jobs,
    ladder_documents,
    seeded_documents,
    smooth_polygon,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "p112.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["valid"] is True
    assert report["timing"] is None


def test_validate_broken_wall_exit_code(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "broken_wall.json"))
    assert code == 1
    report = json.loads(out)
    assert any("wall" in issue["detail"] for issue in report["results"]["issues"])


def test_schema_error_pointer():
    with pytest.raises(DocumentError, match="/rays/0"):
        parse_fan({"rank": 2, "rays": [[1]], "max_cones": [[1]]})
    with pytest.raises(DocumentError, match="/max_cones/0/0"):
        parse_fan({"rank": 1, "rays": [[1], [-1]], "max_cones": [[7]]})
    with pytest.raises(DocumentError, match="unknown field"):
        parse_fan({"rank": 1, "rays": [[1], [-1]], "max_cones": [[1], [2]],
                            "surplus": 1})


@pytest.mark.parametrize("doc, pointer", [
    ({"rank": True, "rays": [[1], [-1]], "max_cones": [[True], [2]]}, "/rank"),
    ({"rank": 1, "rays": [[1], [-1]], "max_cones": [[True], [2]]}, "/max_cones/0/0"),
])
def test_boolean_rank_and_cone_index_exit_1(capsys, tmp_path, doc, pointer):
    # JSON true parses as a bool, which Python counts as the int 1
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "DocumentError"
    assert error["message"].startswith(f"{pointer}: ")


def test_extra_generator_must_be_box_element():
    doc = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
           "max_cones": [[1, 2], [2, 3], [1, 3]],
           "extra_generators": [[5, 5]]}
    with pytest.raises(Exception, match="not a primitive Box element"):
        ext_of_doc(doc)


def test_round_trip_corpus():
    for name in ("p1", "p2", "p112", "f2", "p1113"):
        doc = json.loads((DATA / f"{name}.json").read_text())
        ext = ext_of_doc(doc)
        doc2 = serialize_fan(ext)
        ext2 = ext_of_doc(doc2)
        assert serialize_fan(ext2) == doc2


def test_to_jsonable_fractions():
    assert to_jsonable({"x": Fraction(1, 2), "v": (1, Fraction(3))}) == {
        "x": "1/2", "v": [1, "3/1"],
    }


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.fractions() | st.floats(allow_nan=False, allow_infinity=False))
# small domains, so that keys collide after _key_str: 1 and "1", (1, 2) and
# "1,2", True and "True", Fraction(-1, 2) and "-1/2"
_KEYS = (st.integers(-2, 2) | st.booleans() | st.fractions(-2, 2, max_denominator=3)
         | st.tuples(st.integers(-2, 2), st.integers(-2, 2))
         | st.sampled_from(["1", "-1", "True", "1,2", "-1/2", "1/1", "é", "\\", '"', "\n"])
         | st.text(max_size=3))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_report_writer_matches_json_dumps_oracle(value):
    """Negative Fractions, colliding int, bool, tuple and Fraction keys,
    non-ASCII and escaped strings, empty containers and floats."""
    for report in (value, {"results": value, "timing": None}):
        assert dump_report(report) == _dump_report_oracle(report)


def test_report_writer_examples():
    report = {1: "a", "1": "b", (1, 2): Fraction(-1, 2), "x": [[], {}, ()], "é\n": 0.25}
    assert dump_report(report) == _dump_report_oracle(report) == (
        '{\n  "1": "b",\n  "1,2": "-1/2",\n  "x": [\n    [],\n    {},\n    []\n  ],\n'
        '  "\\u00e9\\n": 0.25\n}\n')
    with pytest.raises(TypeError, match="cannot serialize set"):
        dump_report({"x": {1}})


def test_every_seed0_report_matches_the_oracle(capsys, monkeypatch, tmp_path):
    """Every report of the benchmark's seed-0 corpus, series and ladder jobs
    is written byte for byte as json.dumps writes its jsonable value."""
    docs = seeded_documents({**corpus_documents(DATA), **ladder_documents()}, 0)
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    reports = []
    monkeypatch.setattr(cli, "dump_report",
                        lambda report: reports.append(report) or dump_report(report))
    jobs = corpus_jobs(list(corpus_documents(DATA))) + SERIES_JOBS + LADDER_JOBS
    for _, argv in jobs:
        main([str(paths[a]) if a in paths else a for a in argv])
    capsys.readouterr()
    assert len(reports) > 100
    for report in reports:
        assert dump_report(report) == _dump_report_oracle(report)


def test_timing_report_is_json_with_a_float(capsys):
    """--timing adds the one float a report holds; the rest is unchanged."""
    code, out, _ = run_cli(capsys, "all", str(DATA / "p123.json"), "--timing")
    assert code == 0
    report = json.loads(out)
    assert type(report["timing"]) is float
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    code, plain, _ = run_cli(capsys, "all", str(DATA / "p123.json"))
    assert code == 0
    assert {**report, "timing": None} == json.loads(plain)


def test_cohomology_command(capsys):
    code, out, _ = run_cli(capsys, "cohomology", str(DATA / "p112.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dimension"] == 4
    assert results["normalized_volume"] == 4
    assert results["graded_dimensions"] == {"0/1": 1, "1/1": 2, "2/1": 1}


def test_ifunction_command_matches_direct_call(capsys):
    code, out, _ = run_cli(capsys, "ifunction", str(DATA / "p2.json"),
                           "--order", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["order"] == 2
    assert any(t["chi_exponents"] == [2] for t in results["terms"])


def test_crepant_command(capsys):
    code, out, _ = run_cli(capsys, "crepant", str(DATA / "p112.json"),
                           "--resolution", str(DATA / "f2.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["crepant"] is True
    assert results["sl_orbifold"] is True
    assert results["gen_equals_new_rays"] is True
    assert results["exceptional_outside_kahler"] is True


def test_crepant_noncrepant_resolution(capsys):
    code, out, _ = run_cli(capsys, "crepant", str(DATA / "p112.json"),
                           "--resolution", str(DATA / "p112_noncrepant_resolution.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["crepant"] is False
    discrepancies = {tuple(w["ray"]): w["discrepancy"] for w in results["witnesses"]}
    assert discrepancies[(-1, -1)] == "1/1"


def test_global_moduli_command(capsys):
    code, out, _ = run_cli(capsys, "global-moduli", str(DATA / "p112.json"),
                           "--resolution", str(DATA / "f2.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["q_basis"] == [[0, 1], [2, 0]]
    assert results["transition_matrix"] == [[1, 0], [1, -1]]


def test_missing_resolution_flag(capsys):
    code, _, err = run_cli(capsys, "crepant", str(DATA / "p112.json"))
    assert code == 1
    assert "resolution" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("bogus", "p1.json"),
    ("ifunction", "p123.json", "--order", "x"),
    ("ifunction", "p123.json", "--order", "-1"),
    ("all", "p123.json", "--order", "-1"),
    ("validate",),
    ("validate", "p1.json", "--no-such-flag"),
])
def test_usage_errors_exit_1_with_a_json_error(capsys, argv):
    # exit 2 is kept for invariant failures, so a usage error must not use it
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "usage" and error["message"]


def test_order_zero_is_valid(capsys):
    code, out, _ = run_cli(capsys, "ifunction", str(DATA / "p123.json"), "--order", "0")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["order"] == 0 and [d["beta"] for d in results["degrees"]] == [[0] * 4]
    code, out, _ = run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "0")
    assert code == 0 and json.loads(out)["results"]["failed"] == []


def test_a_run_imports_no_terminal_or_compression_module():
    # argparse asked the terminal for its width (shutil, and through it zlib,
    # bz2 and lzma) and translated its messages (gettext, which imports locale);
    # frozen dataclasses compiled their methods at import, through dataclasses
    # (which imports inspect, and through it ast, dis and tokenize)
    src = str(Path(orbimirror.__file__).resolve().parents[1])
    absent = ("shutil", "bz2", "lzma", "argparse", "gettext", "locale",
              "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (f"import sys; sys.path.insert(0, {src!r}); import io, contextlib\n"
            "from orbimirror.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['validate', {str(DATA / 'p1.json')!r}]) == 0\n"
            f"print(sorted(m for m in {absent!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class _Rejected(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(message)


def _oracle_order(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"order must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before `cli.parse_args`: the oracle."""
    parser = _OracleParser(prog="orbimirror")
    parser.add_argument("command", choices=sorted(cli.COMMANDS))
    parser.add_argument("fan")
    parser.add_argument("--order", type=_oracle_order, default=3)
    parser.add_argument("--resolution")
    parser.add_argument("--basis-file")
    parser.add_argument("--emit-certificates", action="store_true")
    parser.add_argument("--timing", action="store_true")
    return parser


VALID_ARGVS = [
    ["validate", "x.json"],
    ["ifunction", "x.json", "--order", "5"],
    ["--order", "5", "ifunction", "x.json"],
    ["ifunction", "--order", "5", "x.json"],
    ["ifunction", "x.json", "--order=5"],
    ["ifunction", "x.json", "--order", "5", "--order=0", "--order", "2"],
    ["ifunction", "x.json", "--order", "+4"],
    ["ifunction", "x.json", "--order", "-0"],
    ["ifunction", "x.json", "--order=007"],
    ["crepant", "x.json", "--resolution", "z.json", "--basis-file", "b.json",
     "--emit-certificates", "--timing"],
    ["--timing", "--emit-certificates", "--timing", "all", "x.json"],
    ["crepant", "--resolution=z.json", "x.json", "--resolution", "y.json"],
    ["global-moduli", "x.json", "--resolution", "-", "--basis-file="],
    ["validate", "-"],
    ["validate", "-5"],
    ["validate", "--", "x.json"],
    ["--", "validate", "--timing"],
]

INVALID_ARGVS = [
    [],
    ["validate"],
    ["--timing"],
    ["bogus", "x.json"],
    ["validate", "x.json", "y.json"],
    ["validate", "x.json", "--no-such-flag"],
    ["validate", "x.json", "-x"],
    ["validate", "x.json", "--order"],
    ["validate", "x.json", "--resolution"],
    ["validate", "x.json", "--resolution", "--timing"],
    ["validate", "x.json", "--basis-file", "-x"],
    ["validate", "x.json", "--timing=x"],
    ["validate", "x.json", "--emit-certificates=1"],
    ["ifunction", "x.json", "--order", "x"],
    ["ifunction", "x.json", "--order", ""],
    ["ifunction", "x.json", "--order", "-1"],
    ["ifunction", "x.json", "--order=-1"],
    ["ifunction", "x.json", "--order", "1.5"],
    ["ifunction", "x.json", "--order", "-1.5"],
    ["ifunction", "x.json", "--order", "x", "--order", "3"],
    ["validate", "--", "x.json", "--timing"],
]

# The one intended divergence: argparse took a unique prefix of a flag.
ABBREVIATED_ARGVS = [
    ["ifunction", "x.json", "--ord", "5"],
    ["ifunction", "x.json", "--ord=5"],
    ["crepant", "x.json", "--res", "z.json"],
    ["picard", "x.json", "--basis", "b.json"],
    ["validate", "x.json", "--tim"],
    ["validate", "x.json", "--emit"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS)
def test_parse_args_matches_argparse_on_valid_lines(argv):
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", INVALID_ARGVS)
def test_parse_args_rejects_what_argparse_rejects(argv):
    with pytest.raises(_Rejected):
        build_parser().parse_args(argv)
    with pytest.raises(cli.UsageError):
        cli.parse_args(argv)


@pytest.mark.parametrize("argv", ABBREVIATED_ARGVS)
def test_abbreviated_flags_are_usage_errors(argv):
    build_parser().parse_args(argv)
    with pytest.raises(cli.UsageError, match=repr(argv[2])):
        cli.parse_args(argv)


def _flag_like_oracle(arg):
    """The replaced regex test: `\\d` reads any Unicode decimal digit (Nd)."""
    return arg[:1] == "-" and arg != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", arg)


FLAG_LIKE_CASES = ["-", "-1", "-1.5", "-.5", "-1.", "-.", "--5", "-1.2.3", "-\u0661\u0662",
                   "-\u00b2", "-x", "", "x", "1", "-007", "-1\n", "-\u0661.\u0665", "-1.x"]


@pytest.mark.parametrize("arg", FLAG_LIKE_CASES)
def test_flag_like_matches_the_regex(arg):
    assert cli._flag_like(arg) == _flag_like_oracle(arg)


def test_flag_like_reads_negative_numbers_as_values():
    # Arabic-Indic digits are decimal (Nd); a superscript two is not
    assert [cli._flag_like(arg) for arg in FLAG_LIKE_CASES[:11]] == [
        False, False, False, False, True, True, True, True, False, True, True]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from("-.1\u0662\u00b2\u2155x \n"), max_size=6)
       | st.text(max_size=6).map(lambda t: "-" + t))
def test_flag_like_matches_the_regex_on_random_text(arg):
    assert cli._flag_like(arg) == _flag_like_oracle(arg)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["validate", "--help"],
                                  ["validate", "x.json", "--order", "3", "-h"]])
def test_help_is_not_a_command_line(argv):
    assert cli.parse_args(argv) is None


@pytest.mark.parametrize("argv, code, stream, expected", [
    (["validate", str(DATA / "p1.json")], 0, "stdout", '"valid": true'),
    (["validate", str(DATA / "p1.json"), "--no-such-flag"], 1, "stderr",
     '{"error": {"kind": "usage", "message": "unrecognized argument \'--no-such-flag\'"}}'),
    (["--help"], 0, "stdout", "orbimirror COMMAND FAN.json [--order N]"),
])
def test_module_run_reads_sys_argv(argv, code, stream, expected):
    # `python -m orbimirror.cli ARGV` and the `orbimirror` console script both
    # call main() with no argument, so it reads sys.argv
    src = str(Path(orbimirror.__file__).resolve().parents[1])
    run = (f"import runpy, sys; sys.path.insert(0, {src!r}); "
           "runpy.run_module('orbimirror.cli', run_name='__main__', alter_sys=True)")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", run, *argv],
                            capture_output=True, text=True)
    assert result.returncode == code
    assert expected in getattr(result, stream)
    assert (result.stderr if stream == "stdout" else result.stdout) == ""


def test_nonnef_fan_downstream_commands_fail_cleanly(capsys):
    code, _, err = run_cli(capsys, "gkz", str(DATA / "f3.json"))
    assert code == 1
    assert "Kahler" in json.loads(err)["error"]["message"]
    code, out, _ = run_cli(capsys, "picard", str(DATA / "f3.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rho_in_extended_kahler"] == {"lp": False, "degree_criterion": False}
    assert results["p_basis"] is None


def test_all_command_passes_on_corpus_small(capsys):
    for name in ("p1", "p2"):
        code, out, _ = run_cli(capsys, "all", str(DATA / f"{name}.json"),
                               "--order", "2")
        assert code == 0
        assert json.loads(out)["results"]["failed"] == []


def test_all_exits_1_when_a_factorization_fails(capsys, monkeypatch):
    """A wrong z-term in `_times_linear` on ray polynomials with theta
    variables (r > 0), which only the family relations' are: the per-half
    check of the first family operator with an extension derivation fails,
    naming its relation."""
    real = operators._times_linear
    monkeypatch.setattr(operators, "_times_linear",
                        lambda poly, r, row, shift: real(poly, r, row, shift + (r > 0)))
    built = []
    real_box_x = cli.box_x
    monkeypatch.setattr(cli, "box_x", lambda data, l: built.append(l) or real_box_x(data, l))
    code, out, err = run_cli(capsys, "all", str(DATA / "p112.json"), "--order", "2")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "OperatorError"
    assert error["message"].startswith("factorization identity failed for relation [")
    assert error["message"].endswith(f"relation {list(built[-1])}")


def test_all_exits_1_when_a_reduced_factorization_identity_fails(capsys, monkeypatch):
    """A `_del_past` whose z-term is wrong at del power t = 3, above every
    family relation's on p123 (e = 3): box_x's full residual passes on the
    families, and the reduced check of the random relations fails, naming the
    first of them that needs the failing (b, 3, j)."""
    real = operators._del_past

    def del_past(poly, pos, t):
        out = real(poly, pos, t)
        for key, c in poly.items():
            if t == 3 and key[pos]:  # the term C(3, 1) (j)_1 z chi^(j-1) del^(j+2)
                out[(key[0] + 1,) + key[1:pos] + (key[pos] - 1,) + key[pos + 1:]] += c
        return out

    seen = []
    real_check = cli.check_factorizations
    monkeypatch.setattr(operators, "_del_past", del_past)
    monkeypatch.setattr(cli, "check_factorizations",
                        lambda data, rels: seen.append((data, rels)) or real_check(data, rels))
    code, out, err = run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "2")
    assert code == 1 and out == ""
    [(data, relations)] = seen
    needs = [operators.factorization_needs(data, l) for l in relations]
    # j = 1 is the first degree with a z-term; the failure names the first b that needs it
    b = min(b for need in needs for b, (t, bound) in enumerate(need) if t >= 3 and bound >= 1)
    first = next(l for l, need in zip(relations, needs) if need[b][0] >= 3 and need[b][1] >= 1)
    assert json.loads(err)["error"] == {
        "kind": "OperatorError",
        "message": f"factorization identity failed for relation {list(first)}"}


def test_all_passes_on_the_gorenstein_weighted_projective_3_spaces(capsys, tmp_path):
    """`all` exits 0 with every check passing on each Gorenstein P(1,w1,w2,w3)
    of `corpus.gorenstein_wps3` but P(1,6,14,21), whose run (about 20 s in
    process) stays out of tier-1."""
    for w in gorenstein_wps3():
        if w == (1, 6, 14, 21):
            continue
        path = tmp_path / "wps.json"
        path.write_text(json.dumps(weighted_projective_space(*w[1:])))
        code, out, _ = run_cli(capsys, "all", str(path))
        assert code == 0 and json.loads(out)["results"]["failed"] == [], w


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: cmd_all computes the series to N + 2 for every operator, so "
    "one with del-order 3 is checked only to N - 1 while the report says order N"))
@pytest.mark.parametrize("name, order", [("p123", 5), ("p113", 7), ("p1113", 7)])
def test_all_checks_every_operator_to_the_reported_order(capsys, monkeypatch, name, order):
    checked = []
    real = cli.annihilation_check

    def recording(*args):
        report = real(*args)
        checked.append(report.checked_order)
        return report

    monkeypatch.setattr(cli, "annihilation_check", recording)
    code, out, _ = run_cli(capsys, "all", str(DATA / f"{name}.json"), "--order", str(order))
    assert code == 0
    assert json.loads(out)["results"]["checks"]["annihilation"]["detail"]["order"] == order
    assert checked and min(checked) >= order, sorted(set(checked))


def _counting(calls, name, fn, fan_of_arg=None):
    """Count the calls of `fn` under `name`, or, given `fan_of_arg`, under
    (name, number of rays of the fan it reads off the first argument)."""
    def wrapper(*args, **kwargs):
        key = name if fan_of_arg is None else (name, fan_of_arg(args[0]).n_rays)
        calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_commands_derive_each_stage_once(capsys, monkeypatch):
    calls = {}
    for name in ("parse_fan", "rho_membership", "choose_basis_p", "mori_lattices",
                 "presentation", "operator_families", "residue_algebra", "is_crepant",
                 "check_sl", "check_gen_equals_new_rays"):
        monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))
    monkeypatch.setattr(cohomology, "cone_lattice_groebner", _counting(
        calls, "cone_lattice_groebner", cohomology.cone_lattice_groebner))
    # per fan, keyed by its number of rays: p123 has 3, its resolution 6
    monkeypatch.setattr(cli, "extend", _counting(calls, "extend", cli.extend, lambda f: f))
    monkeypatch.setattr(cli, "extended_pl_and_pic", _counting(
        calls, "extended_pl_and_pic", cli.extended_pl_and_pic, lambda ext: ext.fan))
    monkeypatch.setattr(fan, "box_elements", _counting(
        calls, "box_elements", fan.box_elements, lambda f: f))
    validation = vars(StackyFan)["validation"]
    monkeypatch.setattr(validation, "func", _counting(
        calls, "validation", validation.func, lambda f: f))
    # the cached computations behind StackyFan.wall_relations and
    # RationalCone.extremal_rays (only the Kaehler cones' rays are asked for)
    for owner, attr in ((StackyFan, "wall_relations"), (RationalCone, "_extremal_rays")):
        prop = vars(owner)[attr]
        monkeypatch.setattr(prop, "func", _counting(calls, attr, prop.func))
    n_cones = len(parse_fan(json.loads((DATA / "p123.json").read_text()))[0].max_cones)
    x_stages = {("validation", 3): 1, ("box_elements", 3): 1, ("extend", 3): 1,
                ("extended_pl_and_pic", 3): 1}

    assert run_cli(capsys, "all", str(DATA / "p123.json"))[0] == 0
    assert calls == {"parse_fan": 1, **x_stages, "rho_membership": 1,
                     "choose_basis_p": 1, "mori_lattices": 1, "presentation": 1,
                     "operator_families": 1, "residue_algebra": 1,
                     "cone_lattice_groebner": n_cones, "wall_relations": 1,
                     "_extremal_rays": 1}
    calls.clear()
    assert run_cli(capsys, "picard", str(DATA / "p123.json"))[0] == 0
    assert calls == {"parse_fan": 1, **x_stages, "rho_membership": 1,
                     "choose_basis_p": 1, "mori_lattices": 1, "wall_relations": 1,
                     "_extremal_rays": 1}

    # a resolution pair: each fan document is parsed, validated, Box-enumerated
    # and extended (X by the new rays) once, and each check of the pair runs once
    pair_stages = {"parse_fan": 2, "is_crepant": 1, "check_sl": 1,
                   "check_gen_equals_new_rays": 1}
    for name in ("validation", "box_elements", "extend"):
        pair_stages[(name, 3)] = pair_stages[(name, 6)] = 1
    argv = (str(DATA / "p123.json"), "--resolution", str(DATA / "p123_resolution.json"))
    calls.clear()
    assert run_cli(capsys, "crepant", *argv)[0] == 0
    assert calls == {**pair_stages, ("extended_pl_and_pic", 6): 1, "wall_relations": 1,
                     "_extremal_rays": 1}
    calls.clear()
    assert run_cli(capsys, "global-moduli", *argv)[0] == 0
    assert calls == {**pair_stages, ("extended_pl_and_pic", 3): 1,
                     ("extended_pl_and_pic", 6): 1, "choose_basis_p": 1,
                     "wall_relations": 2, "_extremal_rays": 2}

    # the series: one enumerate_degrees per i_function call (the ifunction
    # report and the series read the one Job stage), and one sector class per
    # distinct sector per call; `all` computes its order - 1 series apart
    sectors = []  # per i_function call, the sectors whose class was made
    calls = {}
    real_i_function = cli.i_function

    def i_function(*args, **kwargs):
        calls["i_function"] = calls.get("i_function", 0) + 1
        sectors.append([])
        return real_i_function(*args, **kwargs)

    monkeypatch.setattr(cli, "i_function", i_function)
    for owner in (cli, ifunction):
        monkeypatch.setattr(owner, "enumerate_degrees", _counting(
            calls, "enumerate_degrees", ifunction.enumerate_degrees))
    real_sector_class = ifunction.sector_class
    monkeypatch.setattr(ifunction, "sector_class",
                        lambda data, ring, v: sectors[-1].append(v)
                        or real_sector_class(data, ring, v))
    for command, n_series in (("ifunction", 1), ("mirror-map", 1), ("all", 2)):
        calls.clear()
        sectors.clear()
        assert run_cli(capsys, command, str(DATA / "p123.json"), "--order", "3")[0] == 0
        assert calls == {"i_function": n_series, "enumerate_degrees": n_series}, command
        assert all(len(made) == len(set(made)) for made in sectors), command
        assert len(sectors[0]) > 1, command  # p123 has twisted sectors

    # the checks of `all` form only what their verdicts read: the annihilation
    # residual only up to its bound (every product of an operator term and a
    # derivative term that apply_operator forms is one it could not skip;
    # a product is counted as the derivative term is read off its layer),
    # and one ray-polynomial pair per box operator, shared with its
    # factorization check
    formed = within = 0
    real_apply = ifunction.apply_operator
    real_derivative = ifunction.LogSeries.derivative
    real_rays, real_residual = operators.ray_products, operators.factorization_residual
    pairs, checked = [], []

    class CountedLayer(dict):
        def items(self):
            nonlocal formed
            for item in super().items():
                formed += 1
                yield item

    def derivative(series, s, t, u, zden, depth):
        layers, den = real_derivative(series, s, t, u, zden, depth)
        return [CountedLayer(layer) for layer in layers], den

    def apply_operator(op, series, ring, cap):
        nonlocal within
        out = real_apply(op, series, ring, cap)
        within += sum(1 for (obeta, _, s, t, u) in op.terms
                      for layer in real_derivative(series, s, t, u, ring.int_degrees[1], cap)[0]
                      for beta, *_ in layer if sum(beta) + sum(obeta) <= cap)
        return out

    def ray_products(data, l):
        pairs.append(real_rays(data, l))
        return pairs[-1]

    def factorization_residual(poly, r, powers):
        checked.append((poly, r))
        return real_residual(poly, r, powers)

    monkeypatch.setattr(ifunction, "apply_operator", apply_operator)
    monkeypatch.setattr(ifunction.LogSeries, "derivative", derivative)
    monkeypatch.setattr(operators, "ray_products", ray_products)
    monkeypatch.setattr(operators, "factorization_residual", factorization_residual)
    monkeypatch.setattr(cli, "box_x", _counting(calls, "box_x", cli.box_x))
    calls.clear()
    assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    # an unbounded residual forms 6,047 products here, and applying the
    # repeated family entries' box operators again forms 2,547
    assert formed == within == 2304
    # p123 has e = 3, so every box operator is checked, half by half: one
    # per distinct family relation, 12, each on the two ray polynomials it
    # was built on; the 10 random relations build none, and
    # `check_factorizations` passes single terms x_b^(j) with r = 0
    assert calls["box_x"] == len(pairs) == 12
    halves = [poly for pair in pairs for poly, _den in pair]
    assert len(halves) == 24 and all(
        poly is half and r == 1 for (poly, r), half in zip(checked, halves))
    assert all(r == 0 and len(poly) == 1 for poly, r in checked[24:])


def _derivative_prefix(key):
    """(prefix key, layer shift) of a derivative key (s, t, u), by the rule of
    `operators.chained_action`: the last theta factor, else the last del
    factor (which reads one layer deeper of its prefix), else one E."""
    s, t, u = key
    for powers, shift in ((s, 0), (t, 1)):
        if any(powers):
            i = max(i for i, x in enumerate(powers) if x)
            lowered = powers[:i] + (powers[i] - 1,) + powers[i + 1:]
            return ((lowered, t, u) if shift == 0 else (s, lowered, u)), shift
    return (s, t, u - 1), 0


def test_derivative_layers_are_built_only_as_deep_as_read(capsys, monkeypatch):
    """On p123 `all --order 5` no derivative term is made in a layer past
    the deepest one that an operator reads, where a block that a del step
    reads counts one layer deeper. Built whole, the blocks would hold 817
    such terms."""
    reads = {}  # id(series) -> (series, {derivative key: deepest chi-degree read})
    real_apply = ifunction.apply_operator

    def apply_operator(op, series, ring, cap):
        deepest = reads.setdefault(id(series), (series, {}))[1]
        for (obeta, _, s, t, u) in op.terms:
            if cap >= sum(obeta):
                deepest[s, t, u] = max(deepest.get((s, t, u), -1), cap - sum(obeta))
        return real_apply(op, series, ring, cap)

    monkeypatch.setattr(ifunction, "apply_operator", apply_operator)
    assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    assert reads
    past = made = shallow = 0
    for series, deepest in reads.values():
        blocks = series._derivatives
        needed = dict(deepest)
        for key in sorted(blocks, key=lambda k: sum(k[0]) + sum(k[1]) + k[2], reverse=True):
            if any(key[0]) or any(key[1]) or key[2]:
                prefix, shift = _derivative_prefix(key)
                needed[prefix] = max(needed.get(prefix, -1), needed[key] + shift)
                layers = blocks[key].layers
                made += sum(map(len, layers))
                past += sum(map(len, layers[needed[key] + 1:]))
                shallow += len(layers) < blocks[key].size
    assert made and shallow
    assert past == 0


def test_l_coordinates_are_read_off_one_splitting(capsys, monkeypatch):
    """On p123 `all` the L-coordinates, p-pairings and p-bar classes make no
    elimination: each is read off the fan's one splitting s and the N matrix.
    Not counted: the eliminations that compute s, on first use, and the
    N-decompositions under box_coset_map, which solve in cone coordinates."""
    watched = {f.__code__: f.__name__ for f in (picard._l_coords, operators.p_pairings,
                                                operators.pbar_class, picard.box_coset_map)}
    exempt = {picard.min_decomposition.__code__, linalg.splitting_maps.__code__}
    solved_under = Counter()
    real_reduce = linalg._reduce

    def reduce(rows, width):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in exempt:
            if frame.f_code in watched:
                solved_under[watched[frame.f_code]] += 1
                break
            frame = frame.f_back
        return real_reduce(rows, width)

    splittings = []
    real_splitting = linalg.splitting_maps
    monkeypatch.setattr(linalg, "_reduce", reduce)
    for module in (linalg, fan, picard):
        if "splitting_maps" in vars(module):
            monkeypatch.setattr(module, "splitting_maps",
                                lambda a, snf, ker: splittings.append(a)
                                or real_splitting(a, snf, ker))
    doc = DATA / "p123.json"
    assert run_cli(capsys, "all", str(doc), "--order", "3")[0] == 0
    assert solved_under == Counter()
    assert splittings == [ext_of_doc(json.loads(doc.read_text())).a_matrix]


def test_one_smith_normal_form_per_extended_fan(capsys, monkeypatch):
    """On p123 `all` the surjectivity check of `extend`, the L basis and the
    splitting read one Smith normal form of the a-matrix, held on the fan."""
    doc = DATA / "p123.json"
    a_matrix = ext_of_doc(json.loads(doc.read_text())).a_matrix
    factored = []
    real_snf = linalg.smith_normal_form
    for module in (linalg, fan, cohomology, picard):
        if "smith_normal_form" in vars(module):
            monkeypatch.setattr(module, "smith_normal_form",
                                lambda m: factored.append(m) or real_snf(m))
    assert run_cli(capsys, "all", str(doc), "--order", "3")[0] == 0
    assert factored.count(a_matrix) == 1


@pytest.mark.parametrize("argv", [("all", "p123.json", "--order", "3"),
                                  ("global-moduli", "p123.json", "--resolution",
                                   "p123_resolution.json")])
def test_each_maximal_cone_is_inverted_once(capsys, monkeypatch, argv):
    """Cone coordinates are read off one integer inverse per maximal cone and
    fan, and no longer solved per call."""
    inverted, solved = [], []
    real_inverse, real_solve = fan.integer_inverse, linalg.solve_unique
    monkeypatch.setattr(fan, "integer_inverse",
                        lambda rows: inverted.append(rows) or real_inverse(rows))
    monkeypatch.setattr(linalg, "solve_unique",
                        lambda *args: solved.append(args) or real_solve(*args))
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert run_cli(capsys, *argv)[0] == 0
    assert inverted and solved == []
    fans = [parse_fan(json.loads(Path(a).read_text()))[0] for a in argv if a.endswith(".json")]
    # X and its resolution share the cone of rays 1, 2, so that matrix may come twice
    cones = Counter(f.cone_matrix(c) for f in fans for c in f.max_cones)
    assert all(n <= cones[m] for m, n in Counter(inverted).items())


def test_one_hermite_basis_per_extended_fan_kernel(capsys, monkeypatch):
    """On p123 `all` the L basis and the splitting read one HNF of the
    a-matrix's kernel, held on the fan: 6 HNFs in all, the kernel's once (the
    p-basis is tested in theta(Pic) coordinates, with no HNF)."""
    doc = DATA / "p123.json"
    l_basis = list(ext_of_doc(json.loads(doc.read_text())).l_basis)
    bases = []
    real_hnf = linalg.hermite_row_basis
    for module in (linalg, fan, cohomology, picard):
        if "hermite_row_basis" in vars(module):
            monkeypatch.setattr(module, "hermite_row_basis",
                                lambda vectors: bases.append(real_hnf(vectors)) or bases[-1])
    assert run_cli(capsys, "all", str(doc), "--order", "3")[0] == 0
    assert len(bases) == 6
    assert bases.count(l_basis) == 1


@pytest.mark.parametrize("command", ("box", "crepant"))
def test_gen_is_found_once_per_fan(capsys, monkeypatch, command):
    """`box` (p123) and `crepant` (p123 and its resolution) call gen_elements
    once per fan: StackyFan.gen holds it for extend, cmd_box and
    check_gen_equals_new_rays."""
    calls = Counter()
    real = fan.gen_elements
    for module in (fan, cli, crepant):
        if "gen_elements" in vars(module):
            monkeypatch.setattr(module, "gen_elements",
                                lambda f: calls.update([f.n_rays]) or real(f))
    argv = {"box": [], "crepant": ["--resolution", str(DATA / "p123_resolution.json")]}
    assert run_cli(capsys, command, str(DATA / "p123.json"), *argv[command])[0] == 0
    assert calls == ({3: 1} if command == "box" else {3: 1, 6: 1})


def test_series_engine_makes_no_fraction_from_classes_or_coefficients(capsys, monkeypatch):
    """On p123 `all --order 5` the ring product makes no Fraction (the ring's
    first product builds its table through class_of, whose normal forms are
    Fraction polynomials; a Fraction made there counts for class_of), and no
    operator product runs. The series steps make no Fraction at all: the
    degree enumeration, the hypergeometric factors, I-tilde, the exponential
    chains of one int operator (the log prefactor and z^{-rho-bar}), the
    operator action and the derivative steps. Their classes and coefficients are ints over one denominator, and so are the
    z-exponents of their term keys and the degree pairings. The unit, sector
    and anticanonical classes they read are made from Fraction polynomials,
    like class_of, and count for themselves."""
    made, calls, inside = Counter(), Counter(), []
    real_new = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        if inside:
            caller = sys._getframe(1).f_code
            kind = caller.co_name if caller.co_filename == fractions.__file__ else "Fraction()"
            made[inside[-1], kind] += 1
        return real_new(cls, *args, **kwargs)

    def tracked(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    ring_class = cohomology.GradedQuotientRing
    monkeypatch.setattr(ring_class, "mul", tracked("mul", ring_class.mul))
    monkeypatch.setattr(ring_class, "class_of", tracked("class_of", ring_class.class_of))
    monkeypatch.setattr(ring_class, "one", tracked("one", ring_class.one))
    monkeypatch.setattr(LogDiffOp, "__mul__", tracked("LogDiffOp.__mul__", LogDiffOp.__mul__))
    for name in ("sector_class", "rho_bar_class"):
        monkeypatch.setattr(ifunction, name, tracked(name, getattr(ifunction, name)))
    builders = ("one", "sector_class", "rho_bar_class")
    series_steps = ("enumerate_degrees", "hypergeometric_factor", "tilde_i", "_exp_chain",
                    "apply_operator", "_theta_step", "_del_step", "_e_step")
    for name in series_steps:
        tracked_step = tracked(name, getattr(ifunction, name))
        for module in (ifunction, cli):
            if name in vars(module):
                monkeypatch.setattr(module, name, tracked_step)
    # the blocks run the derivative steps layer by layer, as they are read
    monkeypatch.setattr(ifunction._Block, "upto", tracked("upto", ifunction._Block.upto))
    series_steps += ("upto",)
    Fraction.__new__ = staticmethod(counting_new)
    try:
        assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    finally:
        Fraction.__new__ = real_new
    assert all(calls[name] for name in ("mul", *builders, *series_steps))
    assert calls["LogDiffOp.__mul__"] == 0  # no CLI path multiplies two operators
    series_made = {kind for name, kind in made if name in series_steps}
    assert {name for name, _ in made} <= {"class_of", *builders, *series_steps}
    assert series_made == set()


def test_factor_classes_are_built_once_and_multiplied_once_per_ray(capsys, monkeypatch):
    """On p123 `all --order 5` each i_function call builds the class of each
    (ray, reduced pairing) factor once (one `factor_scalars` per distinct
    pair it looks up), and each hypergeometric factor makes at most one ring
    product per ray whose pairing has a nonzero ceiling, each an unreduced
    `product`: no reducing `mul` runs there."""
    calls, lookups, built, products, reduced = [], [], [], [], []
    inside = []
    real = {name: getattr(ifunction, name)
            for name in ("i_function", "hypergeometric_factor", "factor_scalars")}
    real_factor = ifunction.FactorTables.factor
    real_product = cohomology.GradedQuotientRing.product
    real_mul = cohomology.GradedQuotientRing.mul

    def i_function(*args, **kwargs):
        calls.append(len(calls))
        return real["i_function"](*args, **kwargs)

    def hypergeometric_factor(data, ring, degree, tables):
        mden = data.m_ints[1]
        rays = sum(1 for n in degree["pairings"][:data.ext.m] if -((-n) // mden))
        products.append([rays, 0])
        inside.append(True)
        try:
            return real["hypergeometric_factor"](data, ring, degree, tables)
        finally:
            inside.pop()

    def factor(self, i, n, d):
        lookups.append((calls[-1], i, n, d))
        return real_factor(self, i, n, d)

    def factor_scalars(c, length):
        built.append(calls[-1])
        return real["factor_scalars"](c, length)

    def product(self, u, v):
        if inside:
            products[-1][1] += 1
        return real_product(self, u, v)

    def mul(self, u, v):
        if inside:
            reduced.append((u, v))
        return real_mul(self, u, v)

    for name, fn in (("i_function", i_function), ("factor_scalars", factor_scalars),
                     ("hypergeometric_factor", hypergeometric_factor)):
        for module in (ifunction, cli):
            if name in vars(module):
                monkeypatch.setattr(module, name, fn)
    monkeypatch.setattr(ifunction.FactorTables, "factor", factor)
    monkeypatch.setattr(cohomology.GradedQuotientRing, "product", product)
    monkeypatch.setattr(cohomology.GradedQuotientRing, "mul", mul)
    assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    assert len(calls) == 2 and len(built) > len(calls)
    assert Counter(built) == Counter(call for call, *_ in set(lookups))
    assert len(lookups) > len(set(lookups))
    assert products and all(made <= rays for rays, made in products)
    assert sum(made for _, made in products) > 0
    assert reduced == []


def test_box_x_makes_no_commutation_step_and_no_fraction(capsys, monkeypatch):
    """On p123 `all --order 5` each box operator is built from commutative
    ray polynomials of ints: no one-step commutation (`_mul_theta`,
    `_mul_del`) runs under box_x, its factorization check included, and no
    Fraction is made there; nor under `check_factorizations`, which checks
    the random relations with no operator built."""
    made, steps, inside, built, reduced = Counter(), Counter(), [], [], []
    real_new = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        if inside:
            made[sys._getframe(1).f_code.co_name] += 1
        return real_new(cls, *args, **kwargs)

    def counted_step(name, fn):
        def wrapper(*args):
            if inside:
                steps[name] += 1
            return fn(*args)
        return wrapper

    real_box_x = cli.box_x

    def box_x(data, l):
        inside.append(l)
        built.append(l)
        try:
            return real_box_x(data, l)
        finally:
            inside.pop()

    real_check = cli.check_factorizations

    def check_factorizations(data, relations):
        inside.append(relations)
        reduced.append(relations)
        try:
            return real_check(data, relations)
        finally:
            inside.pop()

    monkeypatch.setattr(cli, "box_x", box_x)
    monkeypatch.setattr(cli, "check_factorizations", check_factorizations)
    for name in ("_mul_theta", "_mul_del"):
        monkeypatch.setattr(operators, name, counted_step(name, getattr(operators, name)))
    Fraction.__new__ = staticmethod(counting_new)
    try:
        assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    finally:
        Fraction.__new__ = real_new
    # one box_x per distinct family relation; one reduced check of 10 relations
    assert len(built) == 12 and [len(rels) for rels in reduced] == [10]
    assert made == Counter() and steps == Counter()


def test_reports_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(3):
        _, out, _ = run_cli(capsys, "all", str(DATA / "p112.json"), "--order", "2")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_subprocess_entry_point():
    # The child imports the same orbimirror as this process, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting.
    env = dict(os.environ, PYTHONPATH=str(Path(orbimirror.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "orbimirror.cli", "validate", str(DATA / "p1.json")],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["valid"] is True


def test_input_digest_stable():
    doc = json.loads((DATA / "p112.json").read_text())
    assert input_digest(doc) == input_digest(json.loads(json.dumps(doc)))


def test_all_command_fractional_age_fan(capsys):
    code, out, _ = run_cli(capsys, "all", str(DATA / "p113.json"))
    assert code == 0
    assert json.loads(out)["results"]["failed"] == []


def test_resource_limit_exit_code(capsys, monkeypatch):
    import orbimirror.cohomology as coh

    monkeypatch.setattr(coh, "STD_MONOMIAL_CAP", 1)
    code, _, err = run_cli(capsys, "cohomology", str(DATA / "p112.json"))
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "resource-limit"


def test_groebner_pair_budget_exit_code(capsys, monkeypatch):
    import orbimirror.cohomology as coh

    monkeypatch.setattr(coh, "GROEBNER_PAIR_CAP", 2)
    code, out, err = run_cli(capsys, "cohomology", str(DATA / "p123.json"))
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error == {"kind": "resource-limit",
                     "message": "Groebner basis: more than 2 S-pairs"}


def test_box_budget_exit_code(capsys, tmp_path):
    # the cone on (0,1), (-10^40,-3) has 10^40 Box elements; none is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1], [-10 ** 40, -3]],
                                "max_cones": [[1, 2], [2, 3], [1, 3]]}))
    code, out, err = run_cli(capsys, "box", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "resource-limit",
        "message": f"Box: cone [2, 3] has {10 ** 40} elements, more than {fan.BOX_CAP}"}


@pytest.mark.parametrize("error", (MemoryError, RecursionError))
def test_bare_resource_errors_name_their_class(capsys, monkeypatch, error):
    def exhausted(ext):
        raise error()

    monkeypatch.setattr(cli, "presentation", exhausted)
    code, out, err = run_cli(capsys, "cohomology", str(DATA / "p112.json"))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"kind": "resource-limit", "message": error.__name__}


@pytest.mark.parametrize("command", ("crepant", "global-moduli"))
def test_unreadable_resolution_is_an_input_error(capsys, tmp_path, command):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"rank": 2, "rays": [')
    missing = tmp_path / "missing.json"
    # an OSError's own text names the file; a parse error gets the name prefixed
    messages = {missing: f"[Errno 2] No such file or directory: '{missing}'",
                malformed: f"{malformed}: Expecting value: line 1 column 22 (char 21)"}
    for path, message in messages.items():
        code, out, err = run_cli(capsys, command, str(DATA / "p123.json"),
                                 "--resolution", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {"kind": "input", "message": message}


@pytest.mark.parametrize("where", ("fan", "--basis-file", "--resolution"))
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, where):
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(bytes.fromhex("fffe7b7d"))  # a UTF-16 BOM and "{}"
    argv = {"fan": ["picard", str(garbled)],
            "--basis-file": ["picard", str(DATA / "p112.json"), "--basis-file", str(garbled)],
            "--resolution": ["crepant", str(DATA / "p123.json"), "--resolution", str(garbled)]}
    code, out, err = run_cli(capsys, *argv[where])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert "utf-8" in error["message"]


@pytest.mark.parametrize("where", ("fan", "--basis-file", "--resolution"))
@pytest.mark.parametrize("content, reason", (
    (b'{"rank": 2, "rays": [', "Expecting value"),
    (bytes.fromhex("fffe7b7d"), "utf-8"),  # a UTF-16 BOM and "{}"
    (b'{"rank": ' + b"9" * 5000 + b"}", "Exceeds the limit"),  # int digit limit
), ids=("malformed", "non-utf8", "oversized-int"))
def test_undecodable_input_error_names_the_file(capsys, tmp_path, where, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {"fan": ["crepant", str(bad), "--resolution", str(DATA / "p123_resolution.json")],
            "--basis-file": ["picard", str(DATA / "p112.json"), "--basis-file", str(bad)],
            "--resolution": ["crepant", str(DATA / "p123.json"), "--resolution", str(bad)]}
    code, out, err = run_cli(capsys, *argv[where])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(f"{bad}: ")
    assert reason in error["message"]


def test_no_q_basis_refusal_lists_integer_rays(capsys, monkeypatch):
    monkeypatch.setattr(crepant, "_complete_q_basis", lambda *args, **kwargs: None)
    code, out, err = run_cli(capsys, "global-moduli", str(DATA / "p123.json"),
                             "--resolution", str(DATA / "p123_resolution.json"))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "CrepantError"
    assert error["message"].startswith("no q-basis found by the bounded search")
    assert "Fraction(" not in error["message"]
    assert "(K_Z extremal rays: [[0, 1, 0, 0], " in error["message"]


def test_build_global_fan_solves_one_lp_on_p123(capsys, monkeypatch):
    """Every verdict is a sign test except the functional separating the two
    charts, which the global moduli report prints: one LP per `global-moduli`
    run on the p123 pair, inside build_global_fan, and none in any other
    command."""
    lps, inside = [], []
    real_lp, real_build = cones._simplex_phase1, cli.build_global_fan
    monkeypatch.setattr(cones, "_simplex_phase1",
                        lambda *args: lps.append(bool(inside)) or real_lp(*args))

    def build_global_fan(*args, **kwargs):
        inside.append(True)
        try:
            return real_build(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(cli, "build_global_fan", build_global_fan)
    pair = (str(DATA / "p123.json"), "--resolution", str(DATA / "p123_resolution.json"))
    for argv, expected in ((("picard", str(DATA / "p123.json")), []),
                           (("ifunction", str(DATA / "p123.json")), []),
                           (("all", str(DATA / "p123.json")), []),
                           (("crepant", *pair), []),
                           (("global-moduli", *pair), [True])):
        lps.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert lps == expected, argv[0]


# a cube boundary fan (`corpus.cube_boundary_fans`) that is not projective
NOT_PROJECTIVE_CUBE = {
    "rank": 3,
    "rays": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1], [1, -1, -1], [-1, 1, -1],
             [-1, -1, 1], [-1, -1, -1]],
    "max_cones": [[1, 2, 3], [2, 5, 3], [4, 6, 8], [4, 8, 7], [1, 2, 4], [2, 6, 4],
                  [3, 5, 7], [5, 8, 7], [1, 3, 7], [1, 7, 4], [2, 5, 6], [5, 8, 6]],
}


def test_not_projective_cube_is_a_generated_fan():
    def key(doc):
        return doc["rays"], sorted(sorted(cone) for cone in doc["max_cones"])

    assert key(NOT_PROJECTIVE_CUBE) in [key(doc) for _, doc in cube_boundary_fans()]


@pytest.mark.parametrize("command", ("picard", "superpotential", "all"))
def test_not_projective_fan_exits_1(capsys, tmp_path, command):
    doc = tmp_path / "cube.json"
    doc.write_text(json.dumps(NOT_PROJECTIVE_CUBE))
    code, out, err = run_cli(capsys, command, str(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "PicardError",
        "message": "Kaehler cone has empty interior; fan is not projective"}


def test_cube_picard_ends_on_the_p_basis_budget(capsys, monkeypatch, tmp_path):
    """cube111-000000 (r = 5, e = 18): the search refuses over its budget,
    and each candidate costs one r x r determinant, and no (r+e)-square
    inverse."""
    doc = tmp_path / "cube.json"
    doc.write_text(json.dumps(dict(cube_boundary_fans())["cube111-000000"]))
    sizes = Counter()
    for name in ("det", "integer_inverse"):
        real = getattr(picard, name)
        monkeypatch.setattr(picard, name,
                            lambda rows, real=real, name=name: sizes.update([(name, len(rows))])
                            or real(rows))
    code, out, err = run_cli(capsys, "picard", str(doc))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"kind": "resource-limit",
                                        "message": "p-basis search: more than 50000 candidates"}
    # 3^6 - 1 combinations of the 6 ray points built, one determinant for each
    # subset tried, and none of them +-1, so no inverse
    assert sizes == {("det", 5): 50_000 - (3 ** 6 - 1)}


def test_extremal_ray_budget_exit_code(capsys, monkeypatch, tmp_path):
    doc = tmp_path / "smooth12.json"
    doc.write_text(json.dumps(ladder_documents()["smooth12"]))
    monkeypatch.setattr(cones, "EXTREMAL_RAY_CAP", 5)
    code, out, err = run_cli(capsys, "picard", str(doc))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"kind": "resource-limit",
                                        "message": "extremal_rays: more than 5 rays"}


def test_smooth_32_ray_picard_rays_carry_certificates(capsys, tmp_path):
    """Each reported extremal ray of the smooth 32-ray fan's Kaehler cone lies
    in the cone, and the inequalities tight on it, with the equalities, have
    rank dim - 1; Fraction arithmetic, apart from the code under test."""
    doc = tmp_path / "smooth32.json"
    doc.write_text(json.dumps(smooth_polygon(32)))
    code, out, _ = run_cli(capsys, "picard", str(doc))
    assert code == 0
    rays = json.loads(out)["results"]["kahler_extremal_rays"]
    kahler = picard.extended_pl_and_pic(ext_of_doc(smooth_polygon(32))).kahler
    ineqs, eqs = kahler.inequalities, kahler.equalities or ()
    assert len(rays) == len(set(map(tuple, rays))) == kahler.dim == 30

    def pairing(f, ray):
        return sum((Fraction(a) * b for a, b in zip(f, ray)), Fraction(0))

    for ray in rays:
        assert all(type(x) is int for x in ray) and gcd(*ray) == 1
        assert all(pairing(f, ray) == 0 for f in eqs)
        assert all(pairing(f, ray) >= 0 for f in ineqs)
        tight = [f for f in ineqs if pairing(f, ray) == 0]
        assert linalg.rank(tight + list(eqs)) == kahler.dim - 1


def test_basis_file_override(capsys, tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"p_basis": [[0, 1]]}))
    code, out, _ = run_cli(capsys, "picard", str(DATA / "p112.json"),
                           "--basis-file", str(basis))
    assert code == 0
    assert json.loads(out)["results"]["p_basis"][0] == ["0/1", "1/1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_basis": [[0, -1]]}))
    code, _, err = run_cli(capsys, "picard", str(DATA / "p112.json"),
                           "--basis-file", str(bad))
    assert code == 1
    assert "basis conditions" in json.loads(err)["error"]["message"]


def test_non_object_fan_document_with_a_basis_file_is_a_document_error(capsys, tmp_path):
    # the overrides merge only into an object; any other document fails in
    # parse_fan as it does without a basis file, with no traceback
    doc = tmp_path / "list.json"
    doc.write_text(json.dumps([1, 2]))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"p_basis": [[0, 1]], "q_basis": [[1, 0], [0, 1]]}))
    without = run_cli(capsys, "picard", str(doc))
    assert run_cli(capsys, "picard", str(doc), "--basis-file", str(basis)) == without
    code, out, err = without
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {"kind": "DocumentError", "message": "/: expected an object"}


@pytest.mark.parametrize("overrides", [[[0, 1]], "p_basis", 3, None])
def test_non_object_basis_file_is_an_input_error(capsys, tmp_path, overrides):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(overrides))
    code, out, err = run_cli(capsys, "picard", str(DATA / "p112.json"),
                             "--basis-file", str(basis))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(f"{basis}: expected an object")


@pytest.mark.parametrize("command, basis, pointer", [
    ("picard", {"p_basis": [[1, 2, 3, 4, 5]]}, "/p_basis/0"),
    ("picard", {"p_basis": [[0, 1], [1, 0]]}, "/p_basis"),
    ("global-moduli", {"p_basis": [[0, 1, 0]]}, "/p_basis/0"),
    ("global-moduli", {"q_basis": [[0, 1], [2, 0, 1]]}, "/q_basis/1"),
    ("global-moduli", {"q_basis": [[0, 1]]}, "/q_basis"),
])
def test_wrong_shape_basis_override_points_to_it(capsys, tmp_path, command, basis, pointer):
    # p112 (r = e = 1): a p_basis is 1 row of length 2, a q_basis 2 rows of length 2
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    resolution = ["--resolution", str(DATA / "f2.json")] if command == "global-moduli" else []
    code, out, err = run_cli(capsys, command, str(DATA / "p112.json"), *resolution,
                             "--basis-file", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "DocumentError"
    assert error["message"].startswith(pointer + ": needs ")


def test_all_command_e3_fan(capsys):
    code, out, _ = run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "2")
    assert code == 0
    assert json.loads(out)["results"]["failed"] == []


@pytest.mark.parametrize("seed", range(31))
def test_global_moduli_p123_pair_at_every_seed(capsys, tmp_path, seed):
    # the pair as the benchmark relabels it at each seed; the q-basis test
    # must accept any Z-basis of Pic^e(X), however its rows are written
    docs = seeded_documents({**corpus_documents(DATA), **ladder_documents()}, seed)
    for name in ("p123", "p123_resolution"):
        (tmp_path / f"{name}.json").write_text(json.dumps(docs[name]))
    code, out, err = run_cli(capsys, "global-moduli", str(tmp_path / "p123.json"),
                             "--resolution", str(tmp_path / "p123_resolution.json"))
    assert code == 0, err
    transition = json.loads(out)["results"]["transition_matrix"]
    assert det(transition) in (1, -1)


def test_global_moduli_e3_pair(capsys):
    code, out, _ = run_cli(capsys, "global-moduli", str(DATA / "p123.json"),
                           "--resolution", str(DATA / "p123_resolution.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["q_basis"]) == 4
