from fractions import Fraction
from itertools import product
import json

import pytest

from corpus import (
    DATA,
    F2,
    P112,
    P113,
    P2,
    data_z,
    fan_of,
    global_fan,
    is_basis_of,
    is_unimodular,
    pipeline,
)
from orbimirror.cohomology import presentation
from orbimirror.cones import in_basis_cone
from orbimirror.crepant import (
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
from orbimirror.fan import FanError, StackyFan, extend
from orbimirror.fandoc import parse_fan
from orbimirror.linalg import coordinates, det, integer_inverse
from orbimirror.picard import choose_basis_p, extended_pl_and_pic
from perfbench.workloads import RESOLUTION_PAIRS, corpus_documents, seeded_documents


PAIR = ResolutionPair(fan_of(P112), fan_of(F2))

NONCREPANT = ResolutionPair(
    fan_of(P112),
    StackyFan(2, [(1, 0), (0, 1), (-1, -2), (0, -1), (-1, -1)],
              [(0, 1), (1, 4), (4, 2), (2, 3), (3, 0)]),
)


def test_is_crepant_f2_over_p112():
    ok, witnesses = is_crepant(PAIR)
    assert ok
    (w,) = witnesses
    assert w["ray"] == (0, -1)
    assert w["coordinates"] == (Fraction(1, 2), Fraction(1, 2))
    assert w["discrepancy"] == 0


def test_noncrepant_subdivision_detected_with_discrepancy_one():
    ok, witnesses = is_crepant(NONCREPANT)
    assert not ok
    bad = next(w for w in witnesses if w["ray"] == (-1, -1))
    assert bad["degree"] == 2 and bad["discrepancy"] == 1
    good = next(w for w in witnesses if w["ray"] == (0, -1))
    assert good["discrepancy"] == 0


def test_trivial_refinement_vacuously_crepant():
    pair = ResolutionPair(fan_of(F2), fan_of(F2))
    ok, witnesses = is_crepant(pair)
    assert ok and witnesses == []


def test_resolution_pair_rejects_nonsmooth():
    with pytest.raises(CrepantError, match="not smooth"):
        ResolutionPair(fan_of(P112), fan_of(P112))


def test_resolution_pair_rejects_non_refinement():
    # smooth complete fan whose cone ((0,-1),(1,1)) crosses the wall ray (1,0)
    other = StackyFan(2, [(1, 0), (0, 1), (-1, -2), (1, 1), (0, -1)],
                      [(3, 1), (1, 2), (2, 4), (4, 3)])
    with pytest.raises(CrepantError, match="refinement|contained"):
        ResolutionPair(fan_of(P112), other)


def test_check_sl():
    assert check_sl(fan_of(P112))
    assert not check_sl(fan_of(P113))
    assert check_sl(fan_of(F2))
    assert check_sl(fan_of(P2))


def test_gen_equals_new_rays():
    ok, diff = check_gen_equals_new_rays(PAIR)
    assert ok and diff == {"gen_only": [], "rays_only": []}
    pair = ResolutionPair(fan_of(F2), fan_of(F2))
    ok, _ = check_gen_equals_new_rays(pair)
    assert ok  # both sides empty


def test_exceptional_not_in_kahler():
    ok, verdicts = exceptional_not_in_kahler(PAIR, data_z(PAIR))
    assert ok and verdicts == [True]


def test_kahler_generator_is_in_kahler_cone():
    # sanity inverse: an actual nef class of Z does lie in K_Z
    from orbimirror.picard import extended_pl_and_pic

    kz = extended_pl_and_pic(extend(fan_of(F2))).kahler
    for ray in kz.extremal_rays():
        assert kz.contains(ray)


def test_dimension_match_across_resolution():
    ring_x = pipeline("P112")[2]
    ring_z = pipeline("F2")[2]
    assert ring_x.dim == ring_z.dim == 4


def test_sequences_agree():
    ext_x = extend(PAIR.stacky, extra_vectors=PAIR.new_rays)
    assert sequences_agree(ext_x, PAIR.resolution)


def test_build_global_fan_p112_f2():
    gm = global_fan(PAIR)
    assert gm.p_basis == ((0, 1), (-2, 1))
    assert gm.q_basis[0] == (0, 1)  # q_i = p_i for i <= r
    assert gm.q_basis == ((0, 1), (2, 0))
    assert gm.shared_face == ((Fraction(0), Fraction(1)),)
    assert is_unimodular(gm.transition)
    # the shared face contains K_X = the ray through p_1, and C_X meets C_Z
    # only there: q_2 lies outside C_X and p_2 outside C_Z
    in_cx = lambda x: in_basis_cone(x, integer_inverse(gm.p_basis))  # noqa: E731
    in_cz = lambda x: in_basis_cone(x, integer_inverse(gm.q_basis))  # noqa: E731
    assert in_cx((0, 1)) and in_cz((0, 1))
    assert not in_cx(gm.q_basis[1]) and not in_cz(gm.p_basis[1])


def test_build_global_fan_trivial_pair():
    pair = ResolutionPair(fan_of(F2), fan_of(F2))
    gm = global_fan(pair)
    assert set(gm.p_basis) == set(gm.q_basis)
    assert is_unimodular(gm.transition)


def test_build_global_fan_accepts_explicit_q():
    gm = global_fan(PAIR, q_override=[(0, 1), (2, 0)])
    assert gm.q_basis == ((0, 1), (2, 0))
    with pytest.raises(CrepantError, match="q-basis"):
        global_fan(PAIR, q_override=[(0, 1), (0, 2)])


def test_q_override_verdicts_match_hnf_oracle():
    """A q_basis override is tested through its transition matrix q P^{-1}
    (integral and unimodular). Its verdict equals the former one, an HNF of q
    against Pic^e(X)'s, on every override that keeps the searched q but for
    its last row, which runs over [-2, 2]^2 on p112/F2 and [-1, 1]^4 on the
    weighted p123 pair."""
    docs = [json.loads((DATA / f"{name}.json").read_text())
            for name in ("p123", "p123_resolution")]
    pairs = {"p112": (PAIR, 2), "p123": (ResolutionPair(*(parse_fan(d)[0] for d in docs)), 1)}
    verdicts = []
    for name, (pair, bound) in pairs.items():
        data_x = choose_basis_p(extended_pl_and_pic(
            extend(pair.stacky, extra_vectors=pair.new_rays)))
        dz = data_z(pair)
        p_rows = [tuple(int(x) for x in row) for row in data_x.p_basis]
        searched = global_fan(pair).q_basis
        for last in product(range(-bound, bound + 1), repeat=data_x.rank):
            q = list(searched[:-1]) + [last]
            expected = (q[:data_x.r] == p_rows[:data_x.r]
                        and all(dz.kahler.contains(row) for row in q)
                        and is_basis_of(q, data_x.pic_basis))
            try:
                build_global_fan(data_x, dz, q)
                refused = False
            except CrepantError as exc:
                refused = str(exc) == "supplied q-basis fails the two conditions"
            assert refused != expected, (name, q)
            verdicts.append(expected)
    assert len(verdicts) == 25 + 81 and 1 < sum(verdicts) < 20


def test_build_global_fan_rejects_noncrepant():
    # refused before build_global_fan: X cannot be extended by the ray
    # (-1,-1), which is no Box element, and the crepant verdict names it
    with pytest.raises(FanError, match="not a primitive Box element"):
        global_fan(NONCREPANT)
    verdicts = (is_crepant(NONCREPANT), check_sl(NONCREPANT.stacky),
                check_gen_equals_new_rays(NONCREPANT))
    with pytest.raises(CrepantError, match=r"not crepant: .*'discrepancy': Fraction\(1, 1\)"):
        check_gluing_hypotheses(*verdicts)


def test_gluing_hypotheses_refuse_sl_and_gen():
    verdicts = (is_crepant(NONCREPANT), check_sl(NONCREPANT.stacky),
                check_gen_equals_new_rays(NONCREPANT))
    with pytest.raises(CrepantError, match="not an SL orbifold"):
        check_gluing_hypotheses((True, []), check_sl(fan_of(P113)), verdicts[2])
    with pytest.raises(CrepantError, match=r"differs from the new rays: .*\(-1, -1\)"):
        check_gluing_hypotheses((True, []), True, verdicts[2])
    check_gluing_hypotheses(is_crepant(PAIR), True, check_gen_equals_new_rays(PAIR))


def test_weighted_p123_crepant_suite():
    # e = 3: three exceptional rays, all discrepancy zero; the q-completion
    # needs a Hilbert-basis point of K_Z that is not an N-combination of the
    # extremal primitives.
    x = StackyFan(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (0, 2)])
    z = StackyFan(2, [(1, 0), (0, 1), (-2, -3), (0, -1), (-1, -2), (-1, -1)],
                  [(0, 1), (1, 5), (5, 2), (2, 4), (4, 3), (3, 0)])
    pair = ResolutionPair(x, z)
    ok, witnesses = is_crepant(pair)
    assert ok and all(w["discrepancy"] == 0 for w in witnesses)
    assert check_sl(x)
    assert check_gen_equals_new_rays(pair)[0]
    assert exceptional_not_in_kahler(pair, data_z(pair))[0]
    assert sequences_agree(extend(x, extra_vectors=pair.new_rays), z)
    # Gen in Box order lists the same new rays in another order
    assert not sequences_agree(extend(x), z)
    ring_x = presentation(extend(x))
    ring_z = presentation(extend(z))
    assert ring_x.dim == ring_z.dim == 6
    gm = global_fan(pair)
    assert is_unimodular(gm.transition)
    assert gm.q_basis[0] == gm.p_basis[0]


def _on_hull_boundary_2d(point, vertices):
    """Independent oracle: point lies on the boundary of conv(vertices) in 2D."""
    from fractions import Fraction
    from itertools import combinations

    for a, b in combinations(vertices, 2):
        # point on segment [a, b]?
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        if cross != 0:
            continue
        dot_ab = (point[0] - a[0]) * (b[0] - a[0]) + (point[1] - a[1]) * (b[1] - a[1])
        len_ab = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
        if not (0 <= dot_ab <= len_ab):
            continue
        # all other vertices strictly on one side -> [a, b] is a hull edge
        sides = [
            (b[0] - a[0]) * (v[1] - a[1]) - (b[1] - a[1]) * (v[0] - a[0])
            for v in vertices if v not in (a, b)
        ]
        if all(s >= 0 for s in sides) or all(s <= 0 for s in sides):
            return True
    return False


def test_crepancy_matches_hull_boundary_oracle():
    # degree-1 fractional coordinates iff the new ray is on the boundary of
    # the convex hull of the old rays (checked by an independent 2D hull test)
    cases = [(PAIR, True), (NONCREPANT, None)]
    for pair, _ in cases:
        _, witnesses = is_crepant(pair)
        vertices = list(pair.stacky.rays)
        for w in witnesses:
            expected = _on_hull_boundary_2d(w["ray"], vertices)
            assert (w["discrepancy"] == 0) == expected, w


def _transition_oracle(q_rows, p_rows):
    """The former transition route of build_global_fan: one coordinate solve
    per q-row."""
    transition = []
    for q in q_rows:
        coords = coordinates(q, p_rows)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise CrepantError("transition matrix is not integral")
        transition.append(tuple(int(c) for c in coords))
    if det(transition) not in (1, -1):
        raise CrepantError("transition matrix is not unimodular")
    return tuple(transition)


@pytest.mark.parametrize("seed", range(6))
def test_transition_matrix_matches_per_row_solves(seed):
    # both corpus pairs as the benchmark relabels them; the noncrepant one is
    # refused before any transition matrix is formed
    docs = seeded_documents(corpus_documents(DATA), seed)
    outcomes = {}
    for x, z in RESOLUTION_PAIRS:
        pair = ResolutionPair(parse_fan(docs[x])[0], parse_fan(docs[z])[0])
        try:
            gm = global_fan(pair)
        except FanError:
            outcomes[x] = "refused"
            continue
        assert gm.transition == _transition_oracle(gm.q_basis, gm.p_basis)
        outcomes[x] = "built"
    gm = global_fan(PAIR)
    assert gm.transition == _transition_oracle(gm.q_basis, gm.p_basis)
    assert outcomes == {"p112": "refused", "p123": "built"}
