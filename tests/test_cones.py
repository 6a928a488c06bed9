from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import differential_fans, ext_of_doc, reflexive_pairs, smooth_polygon
from orbimirror import cones, linalg
from orbimirror.cones import (
    ConeError,
    RationalCone,
    _simplex_phase1,
    common_face_witness,
    in_basis_cone,
    is_face,
    lp_feasible,
)
from orbimirror.fan import extend
from orbimirror.fandoc import parse_fan
from orbimirror.linalg import (
    ResourceLimitError,
    clear_denominators,
    det,
    integer_inverse,
    kernel_basis,
    null_vector,
    over_lcm,
    qvec,
    rank,
    solve_general,
)
from orbimirror.picard import PicardError, choose_basis_p, extended_pl_and_pic

QUADRANT = RationalCone.from_inequalities(2, [(1, 0), (0, 1)])


# -- V-descriptions: the former LP routines, kept as oracles ----------------------


def _nonneg_combination_oracle(generators, x):
    """The former cones.nonneg_combination: lambda >= 0 with
    sum(lambda_i * g_i) = x, or None, by one phase-I LP."""
    if not generators:
        return () if all(Fraction(c) == 0 for c in x) else None
    cols = [qvec(g) for g in generators]
    a_rows = [[col[i] for col in cols] for i in range(len(x))]
    return cones._simplex_phase1(a_rows, qvec(x))


def _v_contains(generators, x) -> bool:
    return _nonneg_combination_oracle(generators, x) is not None


def _is_face_oracle(dim, face_gens, cone_gens) -> bool:
    """The former cones.is_face on V-descriptions: an LP for a functional l
    vanishing on the face, >= 0 on the cone's generators in it and >= 1 on
    the others."""
    for g in face_gens:
        if not _v_contains(cone_gens, g):
            raise ConeError("face candidate is not contained in the cone")
    inside = [g for g in cone_gens if _v_contains(face_gens, g)]
    outside = [g for g in cone_gens if not _v_contains(face_gens, g)]
    return lp_feasible(dim, eqs=[(g, 0) for g in face_gens],
                       ineqs=[(g, 0) for g in inside] + [(g, 1) for g in outside]) is not None


def _common_face_witness_oracle(p_gens, q_gens):
    """The former cones.common_face_witness on V-descriptions: membership of
    each generator in the other cone by an LP, then the separating LP."""
    p_gens, q_gens = [qvec(g) for g in p_gens], [qvec(g) for g in q_gens]
    p_in = [g for g in p_gens if _v_contains(q_gens, g)]
    p_out = [g for g in p_gens if not _v_contains(q_gens, g)]
    q_out = [g for g in q_gens if not _v_contains(p_gens, g)]
    ineqs = [(g, 0) for g in p_in]
    ineqs += [(g, 1) for g in p_out]
    ineqs += [(tuple(-Fraction(x) for x in g), 0) for g in q_gens if _v_contains(p_gens, g)]
    ineqs += [(tuple(-Fraction(x) for x in g), 1) for g in q_out]
    witness = lp_feasible(len(p_gens[0]), ineqs=ineqs)
    if witness is None:
        return None
    return witness, p_in


def _h_cone_of(dim, generators) -> RationalCone:
    """The H-cone Cone(generators): its equalities span the annihilator of the
    generators, and its inequalities are the extremal rays of the dual cone
    inside their span."""
    gens = [g for g in generators if any(g)]
    eqs = kernel_basis(gens) if gens else [[int(i == j) for j in range(dim)] for i in range(dim)]
    dual = RationalCone.from_inequalities(dim, gens, eqs)
    return RationalCone.from_inequalities(dim, dual.extremal_rays() if gens else [], eqs)


def test_contains_quadrant():
    assert QUADRANT.contains((1, 1))
    assert not QUADRANT.contains((-1, 0))


def test_contains_skew_cone():
    cone = RationalCone.from_inequalities(2, [(0, 1), (2, -1)])  # Cone((1, 0), (1, 2))
    assert cone.contains((1, 1))
    assert not cone.contains((0, 1))
    basis = integer_inverse([(1, 0), (1, 2)])
    assert in_basis_cone((1, 1), basis) and not in_basis_cone((0, 1), basis)
    lam = _nonneg_combination_oracle([(1, 0), (1, 2)], (1, 1))
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


def _basis_membership(g1, g2, x):
    """V-membership by the LP oracle; for a basis also by `in_basis_cone`,
    which must agree."""
    verdict = _v_contains([g1, g2], x)
    if g1[0] * g2[1] != g1[1] * g2[0]:
        assert in_basis_cone(x, integer_inverse([g1, g2])) == verdict
    return verdict


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       st.integers(1, 3))
def test_membership_matches_grid_oracle(g1, g2, num, den):
    x = (Fraction(num[0], den), Fraction(num[1], den))
    assert _basis_membership(g1, g2, x) == _oracle_2d(g1, g2, x)


def test_is_face_examples():
    ray = lambda v: RationalCone.from_inequalities(2, [v], [(-v[1], v[0])])  # noqa: E731
    assert is_face(ray((1, 0)), QUADRANT)
    assert not is_face(ray((1, 1)), QUADRANT)
    assert is_face(QUADRANT, QUADRANT)
    assert is_face(RationalCone.from_inequalities(2, [], [(1, 0), (0, 1)]), QUADRANT)


def test_is_face_rejects_non_subcone():
    with pytest.raises(ConeError):
        is_face(RationalCone.from_inequalities(2, [(-1, 0)], [(0, 1)]), QUADRANT)


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
    witness = common_face_witness([(0, 1), (-2, 1)], [(0, 1), (2, 0)])
    assert witness is not None
    functional, shared = witness
    assert shared == [(Fraction(0), Fraction(1))]
    # overlapping cones have no separating functional
    assert common_face_witness([(1, 1), (-1, 1)], [(1, 0), (0, 1)]) is None


def test_membership_on_literal_rational_grid():
    # quarter-step grid sweep against the determinant oracle
    bases = [((1, 0), (1, 2)), ((1, 1), (-1, 1)), ((0, 1), (2, -1))]
    steps = [Fraction(k, 2) for k in range(-4, 5)]
    for g1, g2 in bases:
        for x0 in steps:
            for x1 in steps:
                assert _basis_membership(g1, g2, (x0, x1)) == _oracle_2d(g1, g2, (x0, x1))


# -- the H-only routines against the V-description oracles ----------------------

_entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@st.composite
def bases(draw, dim):
    rows = draw(st.lists(st.lists(_entry, min_size=dim, max_size=dim),
                         min_size=dim, max_size=dim))
    assume(rank(rows) == dim)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    bases(dim), st.lists(st.lists(_entry, min_size=dim, max_size=dim), min_size=1, max_size=4))))
@example(([[1, 0], [1, 2]], [[1, 1], [0, 1], [0, 0], [Fraction(-1, 2), 0]]))
@example(([[0, -1], [-1, 0]], [[Fraction(-1, 3), 0], [1, 1]]))  # d < 0: the signs flip
def test_in_basis_cone_matches_nonneg_combination_oracle(basis_and_points):
    basis, points = basis_and_points
    inverse = integer_inverse(basis)
    for x in points + basis:
        assert in_basis_cone(x, inverse) == _v_contains(basis, x)


@st.composite
def cones_and_face_candidates(draw):
    """A pointed H-cone (an orthant cut), its rays, and a face candidate
    spanned by some of those rays and, sometimes, one more vector: a small one
    (often outside the cone) or the sum of two rays (often no face)."""
    cone = draw(orthant_cuts())
    rays = cone.extremal_rays()
    gens = draw(st.lists(st.sampled_from(rays), max_size=3, unique=True)) if rays else []
    extra = draw(st.sampled_from(["none", "small", "sum"]))
    if extra == "small":
        gens.append(draw(st.lists(st.integers(-2, 2), min_size=cone.dim, max_size=cone.dim)))
    elif extra == "sum" and rays:
        u, v = draw(st.lists(st.sampled_from(rays), min_size=2, max_size=2))
        gens.append(tuple(a + b for a, b in zip(u, v)))
    return cone, rays, gens


@settings(max_examples=150, deadline=None)
@given(cones_and_face_candidates())
def test_is_face_matches_lp_oracle(cone_rays_gens):
    cone, rays, gens = cone_rays_gens
    face = _h_cone_of(cone.dim, gens)
    assume(rank(face.inequalities + face.equalities) == cone.dim)  # pointed
    face_rays = face.extremal_rays()
    assert all(_v_contains(gens, ray) for ray in face_rays)
    assert all(_v_contains(face_rays, g) for g in gens)
    assert _result(lambda: is_face(face, cone)) == _result(lambda: _is_face_oracle(cone.dim, face_rays, rays))


@st.composite
def chart_bases(draw):
    """Two bases p, q of Q^dim, dim <= 4, where q often starts with some of p's
    rows, as a q-basis starts with p_1..p_r."""
    dim = draw(st.integers(1, 4))
    p, q = draw(bases(dim)), draw(bases(dim))
    shared = draw(st.integers(0, dim - 1))
    if rank(p[:shared] + q[shared:]) == dim:
        q = p[:shared] + q[shared:]
    return p, q


@settings(max_examples=150, deadline=None)
@given(chart_bases())
@example(([[0, 1], [-2, 1]], [[0, 1], [2, 0]]))
@example(([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
# reversing the LP rows, or putting the p_a outside Cone(q) first, moves the
# vertex Bland's rule ends at
@example(([[-2, 0, 0, 1], [-2, 0, 1, 2], [2, -2, 0, 1], [2, -1, 1, -1]],
          [[-2, 0, 0, 1], [0, -2, -2, 1], [-1, 2, 2, 1], [1, 2, 0, -1]]))
@example(([[-1, 2, -2, -2, 1], [0, 2, -1, 2, 2], [1, 2, 2, 0, -2], [-1, -2, 1, 0, 2],
           [-2, 0, 2, -2, -2]],
          [[-1, 2, -2, -2, 1], [0, 2, -1, 2, 2], [1, -1, -1, 2, 1], [-1, -1, -1, 1, 0],
           [1, 0, -1, -1, -1]]))
def test_common_face_witness_matches_lp_oracle(bases_pq):
    p, q = bases_pq
    assert common_face_witness(p, q) == _common_face_witness_oracle(p, q)


def test_kahler_faces_of_reflexive_pairs_match_lp_oracles():
    # K_X is a face of K_Z on each of the 16 pairs, as both routes find; where
    # X has a p-basis, the sign test places K_X's rays as the LP does
    checked = 0
    for name, x, z in reflexive_pairs():
        stacky, resolution = parse_fan(x)[0], parse_fan(z)[0]
        data_x = extended_pl_and_pic(extend(stacky, extra_vectors=resolution.rays[stacky.n_rays:]))
        kx, kz = data_x.kahler, extended_pl_and_pic(extend(resolution)).kahler
        assert is_face(kx, kz), name
        assert _is_face_oracle(kx.dim, kx.extremal_rays(), kz.extremal_rays()), name
        try:
            p_rows = choose_basis_p(data_x).p_basis
        except PicardError:
            continue
        inverse = integer_inverse(p_rows)
        for ray in kx.extremal_rays() + kz.extremal_rays():
            assert in_basis_cone(ray, inverse) == _v_contains(p_rows, ray), name
        checked += 1
    assert checked == 14


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
    """An early RationalCone.extremal_rays: every subset of inequalities.
    A cone is pointed exactly when its functionals have rank dim."""
    if cone.inequalities is None and cone.equalities is None:
        raise ConeError("extremal_rays needs an H-description")
    ineqs = list(cone.inequalities or ())
    eqs = list(cone.equalities or ())
    if rank(ineqs + eqs) < cone.dim:
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
                    rays[cand] = True
    return sorted(rays)


def _extremal_rays_subsets_oracle(cone):
    """The former RationalCone._extremal_rays: one integer null vector per set
    of k = dim - 1 - rank(equalities) inequalities. Every row set of corank
    one contains such a set with the same null space, so no ray is missed."""
    if cone.inequalities is None and cone.equalities is None:
        raise ConeError("extremal_rays needs an H-description")
    ineqs = [over_lcm(f)[0] for f in cone.inequalities or ()]
    eqs = [over_lcm(f)[0] for f in cone.equalities or ()]
    if rank(ineqs + eqs) < cone.dim:
        raise ConeError("cone is not pointed")
    eq_rank = rank(eqs)
    if eq_rank == cone.dim:
        return []  # the equalities cut the cone down to the origin
    rays = {}
    for subset in combinations(range(len(ineqs)), cone.dim - 1 - eq_rank):
        rows = eqs + [ineqs[i] for i in subset]
        # An empty active set has corank dim, so there dim = 1.
        v = null_vector(rows) if rows else (1,)
        if v is None:
            continue
        for cand in (v, tuple(-x for x in v)):
            if _contains_oracle(cone, cand):
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


def _polygon_fan(vertices):
    """The complete fan over a polygon's vertices, listed counterclockwise."""
    m = len(vertices)
    return {"rank": 2, "rays": [list(v) for v in vertices],
            "max_cones": [[i + 1, (i + 1) % m + 1] for i in range(m)]}


# dP6, and the two reflexive X whose Kaehler cones have r + 1 extremal rays
NON_SIMPLICIAL_KAHLER = {
    "dP6": _polygon_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    "X(1,1)": _polygon_fan([(-2, -1), (-1, -1), (1, 0), (1, 1), (0, 1)]),
    "X(2,1)": _polygon_fan([(-2, -1), (-1, -1), (1, 0), (2, 1), (0, 1)]),
}


def test_double_description_matches_subsets_oracle_on_kahler_cones():
    # the Kaehler cones of the data documents, the corpus specs, the smooth
    # m-ray polygon fans for m = 5..14 and three non-simplicial ones
    fans = list(differential_fans(range(5, 15)))
    fans += [(name, ext_of_doc(doc)) for name, doc in NON_SIMPLICIAL_KAHLER.items()]
    for name, ext in fans:
        cone = extended_pl_and_pic(ext).kahler
        rays = cone.extremal_rays()
        assert rays == _extremal_rays_subsets_oracle(cone), name
        if name in NON_SIMPLICIAL_KAHLER:
            assert len(rays) == cone.dim - rank(cone.equalities) + 1, name
    assert len(fans) == 30


# the coordinate rows make pointed cones with rays common among the draws
_functional = st.one_of(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                        st.sampled_from([[int(i == j) for j in range(5)] for i in range(5)]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.lists(_functional, max_size=8), st.lists(_functional, max_size=2))
@example(2, [[1, 0, 0]], [])  # a half-plane: not pointed
@example(3, [[1, 0, 0]], [[0, 0, 1]])  # a half-plane inside z = 0: not pointed
@example(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0]], [[0, 0, 1]])  # a ray; x = 0 from two inequalities
@example(1, [], [[0, 0, 0]])  # the whole line, cut by a zero equality: not pointed
@example(3, [[1, 0, 0]], [])  # a half-space: not pointed
@example(4, [[1, 0, 0, 0], [0, 1, 0, 0]], [])  # a quadrant times a plane: not pointed
@example(2, [], [[0, 0]])  # the plane, cut by a zero equality: not pointed
def test_extremal_rays_match_all_subsets_oracle_on_h_cones(dim, ineqs, eqs):
    cone = RationalCone.from_inequalities(dim, [f[:dim] for f in ineqs],
                                          [f[:dim] for f in eqs])
    outcome = _outcome(RationalCone.extremal_rays, cone)
    assert outcome == _outcome(_extremal_rays_subsets_oracle, cone)
    if len(ineqs) <= 5:  # the Fraction oracle solves 2^len(ineqs) systems
        assert outcome == _outcome(_extremal_rays_oracle, cone)


@st.composite
def orthant_cuts(draw):
    """The positive orthant of Q^dim, dim <= 5, cut by random inequalities (8
    in all) and at most two equalities: pointed, and often not simplicial.
    The coordinate rows take random places among the cuts."""
    dim = draw(st.integers(2, 5))
    functional = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    cuts = draw(st.lists(functional, min_size=1, max_size=8 - dim))
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ineqs = draw(st.permutations(cuts + units))
    eqs = draw(st.lists(functional, max_size=2))
    return RationalCone.from_inequalities(dim, ineqs, eqs)


@settings(max_examples=150, deadline=None)
@given(orthant_cuts())
def test_double_description_matches_subsets_oracle_on_orthant_cuts(cone):
    assert cone.extremal_rays() == _extremal_rays_subsets_oracle(cone)


def test_extremal_ray_budget(monkeypatch):
    # extended_pl_and_pic has enumerated the rays of its K: each budget is
    # tried on a fresh copy
    kahler = extended_pl_and_pic(ext_of_doc(smooth_polygon(12))).kahler

    def fresh():
        return RationalCone.from_inequalities(kahler.dim, kahler.inequalities, kahler.equalities)

    monkeypatch.setattr(cones, "EXTREMAL_RAY_CAP", 5)
    with pytest.raises(ResourceLimitError, match="^extremal_rays: more than 5 rays$"):
        fresh().extremal_rays()
    monkeypatch.setattr(cones, "EXTREMAL_RAY_CAP", len(_extremal_rays_subsets_oracle(kahler)))
    assert fresh().extremal_rays() == _extremal_rays_subsets_oracle(kahler)


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
    # the face candidate is a prefix of the cone's generators, so the
    # V-description is_face reaches its LP; lp_feasible and both
    # common_face_witness routes return the vertex, the new one on bases
    def results():
        out = [_result(lambda: lp_feasible(2, eqs, ineqs)),
               _result(lambda: _is_face_oracle(2, gens_q[:face_size], gens_q)),
               _result(lambda: _common_face_witness_oracle(gens_p, gens_q))]
        if all(len(g) == 2 and det(g) for g in (gens_p, gens_q)):
            out.append(_result(lambda: common_face_witness(gens_p, gens_q)))
        return out

    integer = results()
    with patch.object(cones, "_simplex_phase1", _simplex_phase1_oracle):
        assert results() == integer


# -- work counts ----------------------------------------------------------------


def test_integer_cone_routes_do_no_fraction_solves_or_dots(monkeypatch):
    """extremal_rays makes two reductions, however many inequalities the cone
    has: one picks the start rows and one inverts them (the kernel of the
    equalities is an SNF). It solves nothing in Fractions, and H-data
    contains takes no Fraction dot products."""
    small, large = (extended_pl_and_pic(ext_of_doc(smooth_polygon(m))).kahler for m in (8, 32))
    with_eq = RationalCone.from_inequalities(
        3, [(1, 0, Fraction(1, 2)), (0, 1, 0), (-1, -1, 3), (Fraction(2, 3), -1, 1)],
        eqs=[(0, 0, 1)])
    calls = {"solve_general": 0, "dot": 0}
    for name in calls:
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, _n=name, _f=real: (
            calls.__setitem__(_n, calls[_n] + 1) or _f(*a)))
    reductions = []
    real_reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda rows, width: reductions.append(width) or real_reduce(rows, width))
    counts = []
    for cone in (small, large, with_eq):
        fresh = RationalCone.from_inequalities(cone.dim, cone.inequalities, cone.equalities)
        reductions.clear()
        fresh.extremal_rays()
        counts.append(len(reductions))
        fresh.contains(tuple(Fraction(1, 3) for _ in range(fresh.dim)))
    assert (len(small.inequalities), len(large.inequalities)) == (8, 32)
    assert counts == [2, 2, 2]
    assert calls == {"solve_general": 0, "dot": 0}
