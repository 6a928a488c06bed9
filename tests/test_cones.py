from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import differential_fans
from orbimirror.cones import (
    ConeError,
    RationalCone,
    common_face_witness,
    is_face,
    lp_feasible,
    nonneg_combination,
)
from orbimirror.linalg import clear_denominators, solve_general
from orbimirror.picard import extended_pl_and_pic

QUADRANT = RationalCone.from_generators(2, [(1, 0), (0, 1)])


def test_contains_quadrant():
    assert QUADRANT.contains((1, 1))
    assert not QUADRANT.contains((-1, 0))


def test_contains_skew_cone():
    cone = RationalCone.from_generators(2, [(1, 0), (1, 2)])
    assert cone.contains((1, 1))
    assert not cone.contains((0, 1))
    lam = nonneg_combination([(1, 0), (1, 2)], (1, 1))
    assert lam == (Fraction(1, 2), Fraction(1, 2))


def test_contains_dimension_mismatch():
    with pytest.raises(ConeError):
        QUADRANT.contains((1, 1, 1))


def _oracle_2d(g1, g2, x):
    """Determinant-based membership oracle for 2D V-cones."""
    det = g1[0] * g2[1] - g1[1] * g2[0]
    if det:
        l1 = Fraction(x[0] * g2[1] - x[1] * g2[0], det)
        l2 = Fraction(g1[0] * x[1] - g1[1] * x[0], det)
        return l1 >= 0 and l2 >= 0
    if not any(x):
        return True
    for g in (g1, g2):
        if any(g) and g[0] * x[1] == g[1] * x[0]:
            t = next(Fraction(xi, gi) for gi, xi in zip(g, x) if gi)
            if t >= 0 and all(Fraction(xi) == t * gi for gi, xi in zip(g, x)):
                return True
    # opposite parallel generators span the whole line
    if any(g1) and any(g2) and g1[0] * x[1] == g1[1] * x[0]:
        if g1[0] * g2[0] < 0 or g1[1] * g2[1] < 0:
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.integers(1, 3))
def test_membership_matches_grid_oracle(g1, g2, num, den):
    x = (Fraction(num[0], den), Fraction(num[1], den))
    cone = RationalCone.from_generators(2, [g1, g2])
    assert cone.contains(x) == _oracle_2d(g1, g2, x)


def test_is_face_examples():
    assert is_face(RationalCone.from_generators(2, [(1, 0)]), QUADRANT)
    assert not is_face(RationalCone.from_generators(2, [(1, 1)]), QUADRANT)
    assert is_face(QUADRANT, QUADRANT)


def test_is_face_rejects_non_subcone():
    with pytest.raises(ConeError):
        is_face(RationalCone.from_generators(2, [(-1, 0)]), QUADRANT)


def test_extremal_rays_h_cone():
    cone = RationalCone.from_inequalities(2, [(1, 0), (0, 1), (1, 3)])
    assert cone.extremal_rays() == [(0, 1), (1, 0)]


def test_extremal_rays_with_equality():
    cone = RationalCone.from_inequalities(
        3, [(1, 0, 0), (0, 1, 0)], eqs=[(0, 0, 1)]
    )
    assert cone.extremal_rays() == [(0, 1, 0), (1, 0, 0)]


def test_extremal_rays_not_pointed():
    cone = RationalCone.from_inequalities(2, [(1, 0)])
    with pytest.raises(ConeError):
        cone.extremal_rays()


def test_lp_feasible_infeasible():
    assert lp_feasible(1, eqs=[((1,), -1)], ineqs=[((1,), 0)]) is None
    sol = lp_feasible(2, eqs=[((1, 1), 3)], ineqs=[((1, 0), 0), ((0, 1), 0)])
    assert sol is not None and sol[0] + sol[1] == 3


def test_common_face_witness():
    cx = RationalCone.from_generators(2, [(0, 1), (-2, 1)])
    cz = RationalCone.from_generators(2, [(0, 1), (2, 0)])
    witness = common_face_witness(cx, cz)
    assert witness is not None
    functional, shared = witness
    assert shared == [(Fraction(0), Fraction(1))]
    # overlapping cones have no separating functional
    c_over = RationalCone.from_generators(2, [(1, 1), (-1, 1)])
    assert common_face_witness(c_over, QUADRANT) is None


def test_membership_on_literal_rational_grid():
    # quarter-step grid sweep against the determinant oracle
    cones = [((1, 0), (1, 2)), ((1, 1), (-1, 1)), ((0, 1), (2, -1))]
    steps = [Fraction(k, 2) for k in range(-4, 5)]
    for g1, g2 in cones:
        cone = RationalCone.from_generators(2, [g1, g2])
        for x0 in steps:
            for x1 in steps:
                assert cone.contains((x0, x1)) == _oracle_2d(g1, g2, (x0, x1))


# -- extremal rays: the all-subsets enumeration as the oracle -------------------


def _extremal_rays_oracle(cone):
    """The former RationalCone.extremal_rays: every subset of inequalities."""
    if cone.inequalities is None and cone.equalities is None:
        raise ConeError("extremal_rays needs an H-description")
    ineqs = list(cone.inequalities or ())
    eqs = list(cone.equalities or ())
    if not ineqs and not eqs:
        raise ConeError("cone is not pointed")
    rays = {}
    for k in range(len(ineqs) + 1):
        for subset in combinations(range(len(ineqs)), k):
            rows = eqs + [ineqs[i] for i in subset]
            if not rows:
                # Empty active set has corank dim; only dim 1 qualifies.
                if cone.dim != 1:
                    continue
                null = [(Fraction(1),)]
            else:
                sol = solve_general(rows, [0] * len(rows))
                if sol is None:
                    continue
                _, null = sol
            if len(null) != 1:
                continue
            v = clear_denominators(null[0])
            for cand in (v, tuple(-x for x in v)):
                if cone.contains(cand):
                    if cone.contains(tuple(-x for x in cand)) and any(cand):
                        raise ConeError("cone is not pointed")
                    rays[cand] = True
    return sorted(rays)


def _outcome(rays_of, cone):
    try:
        return rays_of(cone)
    except ConeError as exc:
        return f"ConeError: {exc}"


def test_extremal_rays_match_all_subsets_oracle_on_kahler_cones():
    # the Kaehler cones of the data documents, the corpus specs and the
    # smooth m-ray polygon fans for m = 5..10
    checked = 0
    for name, ext in differential_fans(range(5, 11)):
        cone = extended_pl_and_pic(ext).kahler
        assert cone.extremal_rays() == _extremal_rays_oracle(cone), name
        checked += 1
    assert checked == 23


_functional = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(_functional, max_size=5), st.lists(_functional, max_size=1))
@example(2, [[1, 0, 0]], [])  # a half-plane: not pointed
@example(3, [[1, 0, 0]], [[0, 0, 1]])  # a half-plane inside z = 0: not pointed
@example(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0]], [[0, 0, 1]])  # a ray; x = 0 from two inequalities
@example(1, [], [[0, 0, 0]])  # the whole line, cut by a zero equality: not pointed
def test_extremal_rays_match_all_subsets_oracle_on_h_cones(dim, ineqs, eqs):
    cone = RationalCone.from_inequalities(dim, [f[:dim] for f in ineqs],
                                          [f[:dim] for f in eqs])
    assert _outcome(RationalCone.extremal_rays, cone) == _outcome(_extremal_rays_oracle, cone)
