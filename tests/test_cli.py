from collections import Counter
import fractions
from fractions import Fraction
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbimirror
from corpus import ext_of_doc
from orbimirror import cli, cohomology, fan, ifunction, linalg, operators, picard
from orbimirror.cli import main
from orbimirror.cones import RationalCone
from orbimirror.fan import StackyFan
from orbimirror.fandoc import (
    DocumentError,
    input_digest,
    parse_fan,
    serialize_fan,
    to_jsonable,
)
from orbimirror.linalg import det
from orbimirror.operators import LogDiffOp
from perfbench.workloads import corpus_documents, ladder_documents, seeded_documents

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
    from fractions import Fraction

    assert to_jsonable({"x": Fraction(1, 2), "v": (1, Fraction(3))}) == {
        "x": "1/2", "v": [1, "3/1"],
    }


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
    # the default argparse formatter asks the terminal for its width, which
    # imports shutil and, through it, zlib, bz2 and lzma on every run
    src = str(Path(orbimirror.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import io, contextlib\n"
            "from orbimirror.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['validate', {str(DATA / 'p1.json')!r}]) == 0\n"
            "print(sorted(m for m in ('shutil', 'bz2', 'lzma') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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
    real = operators.box_tilde
    monkeypatch.setattr(operators, "box_tilde",
                        lambda d, rel, rays: real(d, rel, rays) + LogDiffOp.z(d.r, d.e))
    code, out, err = run_cli(capsys, "all", str(DATA / "p112.json"), "--order", "2")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "OperatorError"
    assert error["message"].startswith("factorization identity failed for relation [")


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
    assert calls == {**pair_stages, ("extended_pl_and_pic", 6): 1, "wall_relations": 1}
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
    # derivative term that apply_operator forms is one it could not skip),
    # and each ray falling product of a box operator once, shared with its
    # factorization check
    formed = within = falling = 0
    real_apply = ifunction.apply_operator
    real_acc = ifunction._acc
    real_falling = operators._falling_product

    def apply_operator(op, series, ring, cap):
        nonlocal within
        out = real_apply(op, series, ring, cap)
        within += sum(1 for (obeta, _, s, t, u) in op.terms
                      for beta, *_ in series.derivative(s, t, u, ring.int_degrees[1])
                      if sum(beta) + sum(obeta) <= cap)
        return out

    def acc(out, key, vec):
        nonlocal formed
        formed += sys._getframe(1).f_code is real_apply.__code__
        return real_acc(out, key, vec)

    def falling_product(base, count):
        nonlocal falling
        falling += 1
        return real_falling(base, count)

    monkeypatch.setattr(ifunction, "apply_operator", apply_operator)
    monkeypatch.setattr(ifunction, "_acc", acc)
    monkeypatch.setattr(operators, "_falling_product", falling_product)
    assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    # an unbounded residual forms 6,047 products here, applying the repeated
    # family entries' box operators again forms 2,547, and building each ray's
    # falling products twice makes 132 of them
    assert formed == within == 2304
    assert falling == 90


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


def test_one_hermite_basis_per_extended_fan_kernel(capsys, monkeypatch):
    """On p123 `all` the L basis and the splitting read one HNF of the
    a-matrix's kernel, held on the fan: 7 HNFs in all, the kernel's once."""
    doc = DATA / "p123.json"
    l_basis = list(ext_of_doc(json.loads(doc.read_text())).l_basis)
    bases = []
    real_hnf = linalg.hermite_row_basis
    for module in (linalg, fan, cohomology, picard):
        if "hermite_row_basis" in vars(module):
            monkeypatch.setattr(module, "hermite_row_basis",
                                lambda vectors: bases.append(real_hnf(vectors)) or bases[-1])
    assert run_cli(capsys, "all", str(doc), "--order", "3")[0] == 0
    assert len(bases) == 7
    assert bases.count(l_basis) == 1


def test_series_engine_makes_no_fraction_from_classes_or_coefficients(capsys, monkeypatch):
    """On p123 `all --order 5` the ring product and the operator product make
    no Fraction (the ring's first product builds its table through class_of,
    whose normal forms are Fraction polynomials; a Fraction made there counts
    for class_of). The series steps make no Fraction at all: the degree
    enumeration, the hypergeometric factors, their Laurent products, I-tilde,
    the series product, the operator action and the derivative steps. Their
    classes and coefficients are ints over one denominator, and so are the
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
    series_steps = ("enumerate_degrees", "hypergeometric_factor", "_laurent_mul", "tilde_i",
                    "series_mul", "apply_operator", "_act_theta", "_act_del", "_act_e")
    for name in series_steps:
        tracked_step = tracked(name, getattr(ifunction, name))
        for module in (ifunction, cli):
            if name in vars(module):
                monkeypatch.setattr(module, name, tracked_step)
    Fraction.__new__ = staticmethod(counting_new)
    try:
        assert run_cli(capsys, "all", str(DATA / "p123.json"), "--order", "5")[0] == 0
    finally:
        Fraction.__new__ = real_new
    assert all(calls[name] for name in ("mul", "LogDiffOp.__mul__", *builders, *series_steps))
    series_made = {kind for name, kind in made if name in series_steps}
    assert {name for name, _ in made} <= {"class_of", *builders, *series_steps}
    assert series_made == set()


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


@pytest.mark.parametrize("command", ("crepant", "global-moduli"))
def test_unreadable_resolution_is_an_input_error(capsys, tmp_path, command):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"rank": 2, "rays": [')
    for path in (tmp_path / "missing.json", malformed):
        code, out, err = run_cli(capsys, command, str(DATA / "p123.json"),
                                 "--resolution", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "input"
        assert error["message"]


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
