"""Crepant pairs from the 16 reflexive polygons: X is the fan over a
polygon's vertices, Z the fan over all its boundary points (`corpus.reflexive_pairs`).

Every pair is checked; none is filtered out. A pair that fails today is a
strict xfail whose reason names the ROADMAP item that owns it.
"""

import hashlib
import json

import pytest

from corpus import ext_of_doc, reflexive_pairs
from orbimirror import linalg, picard
from orbimirror.cli import main
from orbimirror.cohomology import presentation
from orbimirror.linalg import ResourceLimitError

PAIRS = {name: (x, z) for name, x, z in reflexive_pairs()}

# SHA-256 of the `global-moduli` report on each pair that passes
GLOBAL_MODULI_DIGESTS = {
    "b3(-2,-1)(1,0)(1,1)": "d246dd6213ece4eaaecac4951521fd79844c975cd6783938ee30eeec630bc3b7",
    "b4(-2,-1)(0,-1)(1,1)": "c5afc982d79a4df1efa9508f09a5302e20715d3b6e42426838b202256ef0129e",
    "b4(-2,-1)(-1,-1)(2,1)(-1,0)":
        "85a9b97d64717613c8c8d1a8485ea23a92e8f3bb67f265a671149d3d9e5f47a3",
    "b4(-2,-1)(-1,-1)(2,1)(1,1)":
        "685a935897a11bf2f8bc39190c18c4303116afebcd6de53ece7167da88057541",
    "b5(-2,-1)(-1,-1)(1,0)(0,1)":
        "0bff8ef6538ff61ce8742720ed6daa61e9fe25211a5735beb8c2995aa3523097",
    "b5(-2,-1)(-1,-1)(1,0)(1,1)(-1,0)":
        "f57c742826c3b12fc807c4a4755d0fc17797597074991853e759425d1322166e",
    "b6(-2,-1)(0,-1)(1,2)": "12df63b988fda584cc0c794e387f695d4bc75f6d7b6217a67f9d88dfd4b2e7ff",
    "b6(-2,-1)(-1,-1)(2,1)(0,1)":
        "810092c9883d9cc0e4c79a865e695dc306f85e531864dcf35b78c568007071a8",
    "b8(-2,-1)(2,-1)(0,1)": "c2c33a9bb99cd3fb0c70d56951eb737724f2bc1666b84c5e402fbd3af9d11648",
    "b8(-2,-1)(0,-1)(2,1)(0,1)":
        "46ac9454b4b249e4df4c1cc5db6a71544fbf5793895a0f0ed7fdcd300c786449",
    "b9(-2,-1)(1,-1)(1,2)": "1827c7772035da188f8892508a4a250069267a46bfd973757d39abdada2353bb",
}

NOT_SIMPLICIAL = ("ROADMAP item 15: K_X has r + 1 extremal rays",
                  "K_X is not contained in the shared face region")
NO_P_BASIS = ("ROADMAP item 8: no p-basis of X by the bounded search",
              "no p-basis found by the bounded search")
GLOBAL_MODULI_XFAILS = {
    "b6(-2,-1)(-1,-1)(1,0)(1,1)(0,1)": NOT_SIMPLICIAL,
    "b6(-2,-1)(-1,-1)(1,0)(2,1)(1,1)(-1,0)": NOT_SIMPLICIAL,  # dP6, Z = X
    "b7(-2,-1)(-1,-1)(1,0)(2,1)(0,1)": NOT_SIMPLICIAL,
    "b7(-2,-1)(-1,-1)(1,0)(1,2)": NO_P_BASIS,
    "b8(-2,-1)(0,-1)(1,0)(1,2)": NO_P_BASIS,
}


class KnownRefusal(Exception):
    """The refusal an xfail names; any other failure is a real one."""


def test_sixteen_classes_with_their_boundary_counts():
    # Poonen & Rodriguez-Villegas, Amer. Math. Monthly 107 (2000)
    assert [len(z["rays"]) for z in (z for _, z in PAIRS.values())] == [
        3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]
    for x, z in PAIRS.values():
        assert z["rays"][:len(x["rays"])] == x["rays"]
    assert set(GLOBAL_MODULI_DIGESTS) | set(GLOBAL_MODULI_XFAILS) == set(PAIRS)
    assert not set(GLOBAL_MODULI_DIGESTS) & set(GLOBAL_MODULI_XFAILS)


def _run(capsys, tmp_path, command, name):
    x, z = PAIRS[name]
    paths = [tmp_path / "x.json", tmp_path / "z.json"]
    for path, doc in zip(paths, (x, z)):
        path.write_text(json.dumps(doc))
    code = main([command, str(paths[0]), "--resolution", str(paths[1])])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", PAIRS)
def test_validate_and_crepant_pass(capsys, tmp_path, name):
    x, z = PAIRS[name]
    for doc in (x, z):
        (tmp_path / "fan.json").write_text(json.dumps(doc))
        assert main(["validate", str(tmp_path / "fan.json")]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is True
    code, out, err = _run(capsys, tmp_path, "crepant", name)
    assert code == 0, err
    assert json.loads(out)["results"]["crepant"] is True


@pytest.mark.parametrize("name", PAIRS)
def test_mckay_graded_dimensions_agree(name):
    # the toric McKay correspondence (Batyrev & Dais, Topology 35, 1996):
    # X's graded orbifold Betti numbers are the Betti numbers of Z
    x, z = PAIRS[name]
    dims_x = presentation(ext_of_doc(x)).graded_dims()
    assert dims_x == presentation(ext_of_doc(z)).graded_dims()
    assert sum(dims_x.values()) == len(z["rays"])  # the Euler number of Z


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=KnownRefusal, reason=GLOBAL_MODULI_XFAILS[name][0]))
    if name in GLOBAL_MODULI_XFAILS else name for name in PAIRS])
def test_global_moduli_report(capsys, tmp_path, name):
    code, out, err = _run(capsys, tmp_path, "global-moduli", name)
    if name in GLOBAL_MODULI_XFAILS and code == 1:
        if json.loads(err)["error"]["message"].startswith(GLOBAL_MODULI_XFAILS[name][1]):
            raise KnownRefusal(err)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GLOBAL_MODULI_DIGESTS[name]


# -- the p-basis search budget ----------------------------------------------------

DP6 = "b6(-2,-1)(-1,-1)(1,0)(2,1)(1,1)(-1,0)"
# SHA-256 of dP6's `picard` report, recorded before the search had a budget
DP6_PICARD_DIGEST = "9099729b429a7b77dacba0b01a28987ec99e9ead481631a6a4883de6af3cb499"


def _picard(capsys, tmp_path, doc):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code = main(["picard", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dp6_picard_report_within_the_p_basis_budget(capsys, tmp_path):
    # the largest search that succeeds on these fans: 242 combinations built
    # and 22,566 subsets tried
    code, out, err = _picard(capsys, tmp_path, PAIRS[DP6][0])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DP6_PICARD_DIGEST


@pytest.mark.parametrize("cap", (241, 1000))  # over on the combinations, on the subsets
def test_dp6_p_basis_search_raises_over_a_smaller_budget(monkeypatch, cap):
    data = picard.extended_pl_and_pic(ext_of_doc(PAIRS[DP6][0]))
    monkeypatch.setattr(picard, "P_BASIS_SEARCH_CAP", cap)
    with pytest.raises(ResourceLimitError, match=f"^p-basis search: more than {cap} candidates$"):
        picard.choose_basis_p(data)


def test_dp6_p_basis_search_makes_no_hermite_basis(monkeypatch):
    """The search tests its 22,566 subsets in theta(Pic) coordinates, by an
    r x r determinant: no subset costs an HNF."""
    data = picard.extended_pl_and_pic(ext_of_doc(PAIRS[DP6][0]))
    tried, hnfs, inside = [], [], []
    real_search, real_hnf = picard._search_combinations, linalg.hermite_row_basis

    def search(prim, r, validate):
        inside.append(True)
        try:
            return real_search(prim, r, lambda cand: tried.append(cand) or validate(cand))
        finally:
            inside.pop()

    def hnf(vectors):
        if inside:
            hnfs.append(vectors)
        return real_hnf(vectors)

    monkeypatch.setattr(picard, "_search_combinations", search)
    for module in (linalg, picard):
        monkeypatch.setattr(module, "hermite_row_basis", hnf)
    picard.choose_basis_p(data)
    assert len(tried) == 22_566 and all(len(cand) == data.r == 4 for cand in tried)
    assert hnfs == []


def test_picard_on_the_nine_point_z_ends_on_the_p_basis_budget(capsys, tmp_path):
    code, out, err = _picard(capsys, tmp_path, PAIRS["b9(-2,-1)(1,-1)(1,2)"][1])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"kind": "resource-limit",
                                        "message": "p-basis search: more than 50000 candidates"}
