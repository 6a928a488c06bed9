from fractions import Fraction
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import differential_fans, ext_of_doc, smooth_polygon
from orbimirror import cones, linalg
from orbimirror.cones import (
    ConeError,
    RationalCone,
    _simplex_phase1,
    common_face_witness,
    is_face,
    lp_feasible,
    nonneg_combination,
)
from orbimirror.linalg import clear_denominators, qvec, solve_general
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


def _contains_oracle(cone, x):
    """The former H-data RationalCone.contains: Fraction dot products."""
    x = qvec(x)
    if len(x) != cone.dim:
        raise ConeError("point dimension mismatch")

    def dot(f):
        return sum((Fraction(a) * Fraction(b) for a, b in zip(f, x)), Fraction(0))

    return (all(dot(f) >= 0 for f in cone.inequalities or ())
            and all(dot(f) == 0 for f in cone.equalities or ()))


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
                if _contains_oracle(cone, cand):
                    if _contains_oracle(cone, tuple(-x for x in cand)) and any(cand):
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


# -- membership: the Fraction dot test as the oracle ----------------------------

_rational = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def h_cones_and_points(draw):
    """An H-cone with rational functionals, at most one equality, and a point
    with integer or rational entries."""
    dim = draw(st.integers(1, 3))
    functional = st.lists(_rational, min_size=dim, max_size=dim)
    ineqs = draw(st.lists(functional, max_size=4))
    eqs = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
                        .map(lambda f: [Fraction(x, 2) for x in f]), max_size=1))
    point = draw(st.one_of(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                           st.lists(_rational, min_size=dim, max_size=dim)))
    return RationalCone.from_inequalities(dim, ineqs, eqs), point


@settings(max_examples=200, deadline=None)
@given(h_cones_and_points())
@example((RationalCone.from_inequalities(2, [(Fraction(1, 3), Fraction(-1, 2))],
                                         [(Fraction(1, 2), Fraction(1, 2))]), (3, -3)))
@example((RationalCone.from_inequalities(2, [(Fraction(1, 3), 0)]), (Fraction(-1, 5), 7)))
def test_contains_matches_fraction_dot_oracle(cone_and_point):
    cone, point = cone_and_point
    assert cone.contains(point) == _contains_oracle(cone, point)
    assert cone.contains(tuple(point)) == cone.contains(list(point))
    with pytest.raises(ConeError, match="dimension"):
        cone.contains(tuple(point) + (0,))


# -- the phase-I simplex: the Fraction tableau as the oracle --------------------


def _simplex_phase1_oracle(a_rows, b):
    """The former cones._simplex_phase1: the same Bland's-rule simplex on a
    Fraction tableau, normalizing the pivot row at each step."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = []
    for row, rhs in zip(a_rows, b):
        r = [Fraction(x) for x in row]
        rhs = Fraction(rhs)
        if rhs < 0:
            r = [-x for x in r]
            rhs = -rhs
        rows.append((r, rhs))
    tab = [r + [Fraction(int(i == j)) for j in range(m)] + [rhs]
           for i, (r, rhs) in enumerate(rows)]
    basis = [n + i for i in range(m)]
    width = n + m
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        cost = [c - t for c, t in zip(cost, tab[i])]
    for j in range(n, width):
        cost[j] += 1
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ConeError("unbounded phase-I objective (cannot happen)")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if -cost[width] != 0:
        return None
    y = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = tab[i][width]
    return tuple(y)


_lp_entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


@st.composite
def phase1_systems(draw):
    """(A, b) with integer and rational rows, sometimes a zero row and a
    repeated row; b is either A y for an integer y >= 0 (feasible, with
    repeated rows tying the ratio test) or drawn freely (often infeasible,
    often with negative entries)."""
    n = draw(st.integers(1, 4))
    row = st.lists(_lp_entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append([0] * n)
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        y = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum((Fraction(a) * c for a, c in zip(r, y)), Fraction(0)) for r in rows]
    else:
        b = draw(st.lists(_lp_entry, min_size=len(rows), max_size=len(rows)))
    return rows, b


@settings(max_examples=300, deadline=None)
@given(phase1_systems())
@example(([[1, 1], [1, 1]], [2, 2]))  # tied ratios, the least basic index leaves
# tied ratios where the leaving row decides the vertex Bland's rule ends at
@example(([[-1, 2, 2, -1, 2], [0, 3, 1, -1, 1], [0, 2, -1, 2, 2], [-1, 2, 2, -1, 2]],
          [6, 3, 4, 6]))
@example(([[0, 0], [1, -1]], [1, 0]))  # a zero row with nonzero right-hand side
@example(([[Fraction(1, 2), 1], [Fraction(-1, 3), 0]], [-1, Fraction(-2, 3)]))
def test_simplex_matches_fraction_tableau(system):
    a_rows, b = system
    y = _simplex_phase1(a_rows, b)
    assert y == _simplex_phase1_oracle(a_rows, b)
    assert y is None or all(type(x) is Fraction for x in y)


def _result(fn):
    try:
        return fn()
    except ConeError as exc:
        return f"ConeError: {exc}"


_small_vector = st.lists(st.integers(-2, 2), min_size=2, max_size=2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(_lp_entry, min_size=2, max_size=2), _lp_entry), max_size=2),
       st.lists(st.tuples(st.lists(_lp_entry, min_size=2, max_size=2), _lp_entry), max_size=3),
       st.lists(_small_vector, min_size=1, max_size=3),
       st.lists(_small_vector, min_size=1, max_size=3),
       st.integers(0, 2))
def test_lp_verdicts_and_witnesses_match_fraction_tableau(eqs, ineqs, gens_p, gens_q, face_size):
    # the face candidate is a prefix of the cone's generators, so is_face
    # reaches its LP; lp_feasible and common_face_witness return the vertex
    face = RationalCone.from_generators(2, gens_q[:face_size])
    cone_p = RationalCone.from_generators(2, gens_p)
    cone_q = RationalCone.from_generators(2, gens_q)

    def results():
        return [_result(lambda: lp_feasible(2, eqs, ineqs)),
                _result(lambda: is_face(face, cone_q)),
                _result(lambda: common_face_witness(cone_p, cone_q))]

    integer = results()
    with patch.object(cones, "_simplex_phase1", _simplex_phase1_oracle):
        assert results() == integer


# -- work counts ----------------------------------------------------------------


def test_integer_cone_routes_do_no_fraction_solves_or_dots(monkeypatch):
    """extremal_rays reduces once per candidate active set (plus once for the
    rank of the equalities) and solves nothing in Fractions; H-data contains
    takes no Fraction dot products."""
    kahler = extended_pl_and_pic(ext_of_doc(smooth_polygon(8))).kahler
    with_eq = RationalCone.from_inequalities(
        3, [(1, 0, Fraction(1, 2)), (0, 1, 0), (-1, -1, 3), (Fraction(2, 3), -1, 1)],
        eqs=[(0, 0, 1)])
    expected = []
    for cone in (kahler, with_eq):
        k = cone.dim - 1 - linalg.rank(cone.equalities)
        expected.append(comb(len(cone.inequalities), k) + bool(cone.equalities))
    calls = {"solve_general": 0, "dot": 0}
    for name in calls:
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, _n=name, _f=real: (
            calls.__setitem__(_n, calls[_n] + 1) or _f(*a)))
    reductions = []
    real_reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda rows, width: reductions.append(width) or real_reduce(rows, width))
    for cone, count in zip((kahler, with_eq), expected):
        fresh = RationalCone.from_inequalities(cone.dim, cone.inequalities, cone.equalities)
        reductions.clear()
        fresh.extremal_rays()
        assert len(reductions) == count
        fresh.contains(tuple(Fraction(1, 3) for _ in range(fresh.dim)))
    assert calls == {"solve_general": 0, "dot": 0}
