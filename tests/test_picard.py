from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
import random

import pytest

from corpus import (
    CORPUS,
    F3,
    P1,
    P112,
    P2,
    cube_boundary_fans,
    differential_fans,
    ext_of,
    ext_of_doc,
    fan_of,
    in_k_eff,
    is_basis_of,
    l_coords_oracle,
    minimal_cone,
    pairing_p_oracle,
    pipeline,
    reflexive_pairs,
    saturate,
    series_fans,
    weighted_projective_space,
)
from orbimirror import picard
from orbimirror.cones import RationalCone, in_basis_cone, is_face, lp_feasible
from orbimirror.fan import generalized_primitive_collections
from orbimirror.linalg import ResourceLimitError, dot, hermite_row_basis, integer_inverse
from orbimirror.picard import (
    PicardError,
    _l_coords,
    _search_combinations,
    box_coset_map,
    choose_basis_p,
    extended_kahler_contains,
    extended_pl_and_pic,
    forced_split,
    distinguished_relations,
    min_decomposition,
    p_basis_test,
    pl_lattice,
    rho_membership,
)


def test_pl_lattice_p2_is_everything():
    ext = ext_of(P2)
    assert pl_lattice(ext) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_pl_lattice_p1():
    assert pl_lattice(ext_of(P1)) == [(1, 0), (0, 1)]


def test_pl_lattice_p112_rank3_saturated():
    ext = ext_of(P112)
    basis = pl_lattice(ext)
    assert len(basis) == 3
    # saturated: saturating changes nothing
    assert saturate(basis) == hermite_row_basis(basis)
    # every member kills the distinguished relation a4 - a1/2 - a3/2
    for x in basis:
        assert sum(Fraction(c) * v for c, v in zip((-1, 0, -1, 2), x)) == 0


def test_extended_pic_ranks():
    assert extended_pl_and_pic(ext_of(P112)).r == 1
    assert len(extended_pl_and_pic(ext_of(P112)).pic_basis) == 2
    assert extended_pl_and_pic(ext_of(P2)).r == 1
    f2 = pipeline("F2")[1]
    assert f2.r == 2


def test_theta_pl_lattice_is_saturated():
    # Theta(PL(Sigma)) is a saturated subgroup of (Z^n)*. The extended lattice
    # PL(Sigma^e) is the plain sum with the D_{m+k} and is NOT saturated in
    # general (P(1,1,2): [D_1] pairs -1/2 with the twisted representative, so
    # D_3 cannot lie in PL(Sigma^e)); K subset NE^e forces this reading.
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        assert saturate(data.pl_basis) == hermite_row_basis(data.pl_basis)
    ext, data, _, _ = pipeline("P112")
    rows = list(data.pl_basis) + [
        tuple(int(i == ext.m + k) for i in range(ext.n)) for k in range(ext.e)
    ]
    assert saturate(rows) != hermite_row_basis(rows)


def test_kahler_cone_p1_and_p2_are_rays():
    for name in ("P1", "P2"):
        _, data, _, _ = pipeline(name)
        cone = data.kahler
        assert cone.extremal_rays() == [(1,)]


def test_kahler_cone_f2_two_dimensional_with_p112_face():
    _, data_f2, _, _ = pipeline("F2")
    kz = data_f2.kahler
    rays_z = kz.extremal_rays()
    assert len(rays_z) == 2
    _, data_x, _, _ = pipeline("P112")
    kx = data_x.kahler
    rays_x = kx.extremal_rays()
    assert len(rays_x) == 1
    # both live in the same L* coordinates because the L bases coincide
    assert data_f2.ext.l_basis == data_x.ext.l_basis
    assert is_face(kx, kz)
    # the ray through the sum of K_Z's two rays lies inside K_Z but is no face
    mid = tuple(a + b for a, b in zip(*rays_z))
    assert not is_face(RationalCone.from_inequalities(2, [mid], [(-mid[1], mid[0])]), kz)


def test_rho_membership_corpus_and_counterexample():
    for name in CORPUS:
        _, data, _, _ = pipeline(name)
        lp, degree = rho_membership(data)
        assert lp is True and degree is True
    f3 = extended_pl_and_pic(ext_of(F3))
    assert rho_membership(f3) == (False, False)


def _kahler_cone_oracle(ext):
    """K from the fan's walls and distinguished relations, and whether it has
    interior by the former LP of picard.kahler_cone: a point of K at which
    every wall functional is >= 1."""
    walls = [_l_coords(ext, w + (0,) * ext.e) for w in ext.fan.wall_relations]
    dist = [_l_coords(ext, rel) for rel in distinguished_relations(ext)]
    interior = lp_feasible(ext.l_rank, eqs=[(g, 0) for g in dist],
                           ineqs=[(w, 1) for w in walls])
    return RationalCone.from_inequalities(ext.l_rank, walls, dist), interior is not None


def test_kahler_interior_matches_replaced_lp():
    """extended_pl_and_pic refuses exactly the fans whose K the former LP
    finds no interior point of, and otherwise builds that K: on the 128 cube
    boundary fans, 18 and 10 of them not projective, and the differential
    fans, all projective."""
    refused = Counter()
    fans = [(name, ext_of_doc(doc)) for name, doc in cube_boundary_fans()]
    for name, ext in fans + list(differential_fans()):
        cone, projective = _kahler_cone_oracle(ext)
        try:
            data = extended_pl_and_pic(ext)
        except PicardError as exc:
            assert str(exc) == "Kaehler cone has empty interior; fan is not projective"
            assert not projective, name
            refused[name.split("-")[0]] += 1
        else:
            assert projective, name
            assert data.kahler == cone, name
    assert refused == {"cube111": 18, "cube123": 10}


def _extended_kahler_contains_oracle(data, x) -> bool:
    """An earlier picard.extended_kahler_contains: an LP over dim + e free
    variables with x restated as dim equalities."""
    dim = data.ext.l_rank
    e = data.ext.e
    nvars = dim + e
    eqs = []
    for j in range(dim):
        coeff = [Fraction(0)] * nvars
        coeff[j] = Fraction(1)
        for k in range(e):
            coeff[dim + k] = Fraction(data.d_classes[data.ext.m + k][j])
        eqs.append((coeff, Fraction(x[j])))
    ineqs = []
    for w in data.kahler.inequalities or ():
        ineqs.append((list(w) + [Fraction(0)] * e, 0))
    for t in range(e):
        coeff = [Fraction(0)] * nvars
        coeff[dim + t] = Fraction(1)
        ineqs.append((coeff, 0))
    for eq in data.kahler.equalities or ():
        ineqs.append((list(eq) + [Fraction(0)] * e, 0))
        ineqs.append(([-v for v in eq] + [Fraction(0)] * e, 0))
    return lp_feasible(nvars, eqs=eqs, ineqs=ineqs) is not None


def _extended_kahler_contains_t_oracle(data, x) -> bool:
    """The former picard.extended_kahler_contains: is there a t >= 0 with
    x - sum_k t_k [D_{m+k}] in K? An LP over t only."""
    e = data.ext.e
    cols = [data.d_classes[data.ext.m + k] for k in range(e)]

    def constraint(f):
        # f.(x - sum_k t_k D_k) as (coefficients of t, constant) for lp_feasible
        return [-dot(f, c) for c in cols], -dot(f, x)

    ineqs = [constraint(w) for w in data.kahler.inequalities]
    ineqs += [([int(j == k) for j in range(e)], 0) for k in range(e)]
    eqs = [constraint(g) for g in data.kahler.equalities]
    return lp_feasible(e, eqs=eqs, ineqs=ineqs) is not None


def _rho_fans():
    """The 16 reflexive X, each extended by the new rays of its resolution Z,
    each Z, and P(1,1,1,3), P(1,1,2,4), P(1,2,3,6) and P(1,2,6,9) extended by
    their Gen sets."""
    for name, x, z in reflexive_pairs():
        yield f"X{name}", ext_of_doc({**x, "extra_generators": z["rays"][len(x["rays"]):]})
        yield f"Z{name}", ext_of_doc(z)
    for weights in ((1, 1, 3), (1, 2, 4), (2, 3, 6), (2, 6, 9)):
        yield f"P(1,{weights})", ext_of_doc(weighted_projective_space(*weights))


def test_extended_kahler_contains_matches_replaced_lp():
    """The closed form against both former LPs. On the differential fans: at
    rho, at rho - [D_{m+k}], and at the extremal rays of K, rho and each
    [D_{m+k}] moved by 1/100 along every coordinate axis, which puts many of
    them just outside K^e. On the reflexive X and Z and four weighted
    projective 3-spaces: at rho, at every [D_i] and at three random rational
    combinations of the [D_i]."""
    rng = random.Random(0)
    verdicts = []

    def check(name, data, x):
        verdict = extended_kahler_contains(data, x)
        assert verdict == _extended_kahler_contains_t_oracle(data, x), (name, x)
        assert verdict == _extended_kahler_contains_oracle(data, x), (name, x)
        verdicts.append((name, verdict))

    for name, ext in differential_fans():
        data = extended_pl_and_pic(ext)
        dim = ext.l_rank
        extensions = [data.d_classes[ext.m + k] for k in range(ext.e)]
        points = [data.rho] + [tuple(a - b for a, b in zip(data.rho, dk)) for dk in extensions]
        for base in data.kahler.extremal_rays() + [data.rho] + extensions:
            for j in range(dim):
                for step in (Fraction(1, 100), Fraction(-1, 100)):
                    points.append(tuple(Fraction(c) + step * (i == j) for i, c in enumerate(base)))
        for x in points:
            check(name, data, x)
    assert ("f3", False) in verdicts and ("p123", False) in verdicts
    assert sum(v for _, v in verdicts) > 50 and sum(not v for _, v in verdicts) > 50
    verdicts.clear()
    fans = list(_rho_fans())
    for name, ext in fans:
        data = extended_pl_and_pic(ext)
        points = [data.rho] + list(data.d_classes)
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-1, 3), rng.randint(1, 3)) for _ in data.d_classes]
            points.append(tuple(sum(c * d[j] for c, d in zip(coeffs, data.d_classes))
                                for j in range(ext.l_rank)))
        for x in points:
            check(name, data, x)
    assert len(fans) == 36 and max(ext.e for _, ext in fans) == 7
    assert sum(v for _, v in verdicts) > 100 and sum(not v for _, v in verdicts) > 20


def test_choose_basis_p_p1():
    _, data, _, _ = pipeline("P1")
    assert data.p_basis == ((Fraction(1),),)
    assert data.m_matrix == ((Fraction(1),), (Fraction(1),))


def test_choose_basis_p_p112():
    _, data, _, _ = pipeline("P112")
    assert data.p_basis[1] == (Fraction(-2), Fraction(1))  # p2 = [D4]
    cone = data.kahler
    assert cone.contains(data.p_basis[0])
    assert data.m_matrix[3] == (Fraction(0), Fraction(1))  # row m+1 = e_{r+1}


def test_m_matrix_last_rows_unit_vectors():
    for name in CORPUS:
        _, data, _, _ = pipeline(name)
        for k in range(data.e):
            expected = tuple(Fraction(int(a == data.r + k))
                             for a in range(data.rank))
            assert data.m_matrix[data.ext.m + k] == expected


def test_m_matrix_reproduces_d_classes():
    # [D_i] = sum_a m_{ia} p_a as functionals on L (x) Q
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        for i in range(ext.n):
            combo = tuple(
                sum(data.m_matrix[i][a] * data.p_basis[a][j]
                    for a in range(data.rank))
                for j in range(ext.l_rank)
            )
            assert combo == tuple(data.d_classes[i])


def test_rho_in_cone_of_p():
    for name in CORPUS:
        _, data, _, _ = pipeline(name)
        rho_coords = []
        mat = [[Fraction(data.p_basis[a][j]) for a in range(data.rank)]
               for j in range(data.ext.l_rank)]
        from orbimirror.linalg import solve_unique

        coords = solve_unique(mat, data.rho)
        assert all(c >= 0 for c in coords)


def _p_basis_oracle(data, rows) -> tuple[bool, bool]:
    """The former p-basis test in Pic^e, on r rows in L* coordinates: (the
    rows and the forced classes are a Z-basis of Pic^e, by one HNF of all r + e
    of them; and also rho lies in their cone, by their (r+e)-square inverse)."""
    full = [tuple(int(x) for x in row) for row in rows] + list(data.d_classes[data.ext.m:])
    basis = is_basis_of(full, data.pic_basis)
    return basis, basis and in_basis_cone(data.rho, integer_inverse(full))


def test_supplied_p_basis_validated():
    """An override outside K, and overrides in K that fail one of the other
    conditions each, are refused, as the Pic^e oracle refuses them; the row
    that mends each is accepted."""
    message = "supplied p-basis fails the three basis conditions"
    ext = ext_of(P112)
    data0 = extended_pl_and_pic(ext)  # r = e = 1, theta(Pic) = Z (0, 1)
    data = choose_basis_p(data0, override=[(0, 1)])
    assert data.p_basis[0] == (Fraction(0), Fraction(1))
    with pytest.raises(PicardError, match="basis conditions"):
        choose_basis_p(data0, override=[(0, -1)])
    # a row of K whose theta-coordinate is 2: determinant 2, rho' in the cone
    assert data0.kahler.contains((0, 2))
    assert _p_basis_oracle(data0, [(0, 2)]) == (False, False)
    with pytest.raises(PicardError, match=message):
        choose_basis_p(data0, override=[(0, 2)])
    # a row of K off the theta(Pic) lattice, with theta-coordinate 3/2: on
    # real fans theta(Pic) is saturated, so the lattice is taken to be
    # Z (0, 2), and Pic^e with it
    half = data0.replace(pic_theta_basis=((0, 2),),
                         pic_basis=tuple(hermite_row_basis([(0, 2), data0.d_classes[-1]])))
    assert _p_basis_oracle(half, [(0, 3)]) == (False, False)
    with pytest.raises(PicardError, match=message):
        choose_basis_p(half, override=[(0, 3)])
    assert _p_basis_oracle(half, [(0, 2)]) == (True, True)
    assert choose_basis_p(half, override=[(0, 2)]).p_basis[0] == (0, 2)
    # rho' outside Cone(p): a unimodular pair in K whose cone misses rho' =
    # (0, 1, 2), theta-coordinates (1, 2) = -(1, 3) + (2, 5); e = 1, t = (0)
    x = {name: x for name, x, _ in reflexive_pairs()}["b5(-2,-1)(-1,-1)(1,0)(0,1)"]
    data0 = extended_pl_and_pic(ext_of_doc(x))
    assert forced_split(data0, data0.rho) == ([0], [0, 1, 2])
    rows = [(0, 1, 3), (0, 2, 5)]
    assert all(data0.kahler.contains(row) for row in rows)
    assert _p_basis_oracle(data0, rows) == (True, False)
    with pytest.raises(PicardError, match=message):
        choose_basis_p(data0, override=rows)
    assert _p_basis_oracle(data0, [(0, 0, 1), (0, 1, 1)]) == (True, True)
    choose_basis_p(data0, override=[(0, 0, 1), (0, 1, 1)])


def _in_l_star(coords, theta):
    """The point of L* with the given coordinates on theta(Pic)'s basis."""
    return tuple(sum(c * row[j] for c, row in zip(coords, theta)) for j in range(len(theta[0])))


class _Capped(Exception):
    pass


def _theta_verdicts_against_oracle(name, data, cap):
    """Counter of the theta(Pic) verdicts on the first try (the primitive ray
    points, when there are r), the first `cap` subsets `_search_combinations`
    tries (all of them rejected, so it goes on past the one it would pick)
    and the first `cap` r-subsets of the ray points; each verdict is asserted
    equal to the Pic^e oracle's."""
    theta, r = data.pic_theta_basis, data.r
    validate = p_basis_test(data)
    prim = [picard._primitive_in_lattice(ray, theta) for ray in data.kahler.extremal_rays()]
    verdicts = Counter()

    def check(coords):
        verdict = validate(coords)
        assert verdict == _p_basis_oracle(data, [_in_l_star(c, theta) for c in coords])[1], (
            name, coords)
        verdicts[verdict] += 1

    def tried(coords):
        if verdicts.total() >= cap:
            raise _Capped
        check(coords)
        return False

    if len(prim) == r:
        check(prim)
    try:
        _search_combinations(prim, r, tried)
    except (_Capped, ResourceLimitError):
        pass
    for subset in islice(combinations(prim, r), cap):
        check(list(subset))
    return verdicts


def _p_basis_fans():
    """(name, Picard data) of the fans of `differential_fans()`, the 16
    reflexive X and Z, three cube boundary fans with e = 18 and 31, and
    P(1,1,2,5), whose rho lies outside K^e by a negative t_k; all are
    projective."""
    fans = list(differential_fans())
    for name, x, z in reflexive_pairs():
        fans += [(f"{name} X", ext_of_doc(x)), (f"{name} Z", ext_of_doc(z))]
    cubes = dict(cube_boundary_fans())
    fans += [(name, ext_of_doc(cubes[name]))
             for name in ("cube111-000000", "cube111-000001", "cube123-010000")]
    fans.append(("P(1,1,2,5)", ext_of_doc(weighted_projective_space(1, 2, 5))))
    for name, ext in fans:
        yield name, extended_pl_and_pic(ext)


def test_theta_pic_verdicts_match_pic_e_oracle():
    """The theta(Pic) test (one r x r determinant, then an r-square inverse)
    gives the Pic^e oracle's verdict (an HNF of r + e rows, then an
    (r+e)-square inverse) on every subset the search tries, up to a cap."""
    total, fans, forced = Counter(), 0, 0
    for name, data in _p_basis_fans():
        # theta(Pic) has rank r, and is all of L* ∩ span K: an integer row of K
        # always has integer theta-coordinates
        assert len(data.pic_theta_basis) == data.r, name
        assert saturate(data.pic_theta_basis) == list(data.pic_theta_basis), name
        verdicts = _theta_verdicts_against_oracle(name, data, 300)
        total += verdicts
        fans += 1
        forced += data.e > 0 and verdicts[True] > 0
    assert fans == 53
    assert total[True] > 50 and total[False] > 1000 and forced >= 10


def test_superpotential_contract():
    # n composed with the kernel inclusion equals the p-pairing: for every l in
    # the L basis, sum_i l_i n_{.i} = p(l).
    for name in CORPUS:
        ext, data, _, _ = pipeline(name)
        for j, l in enumerate(ext.l_basis):
            total = [sum(l[i] * data.n_matrix[i][a] for i in range(ext.n))
                     for a in range(data.rank)]
            expected = [int(data.p_basis[a][j]) for a in range(data.rank)]
            assert total == expected


def test_superpotential_p1_shape():
    _, data, _, _ = pipeline("P1")
    cols = data.n_matrix
    assert sorted(cols) == [(0,), (1,)]
    assert all(c == -1 for c, _chi, _y in data.superpotential)


def test_mori_membership_examples():
    _, data, _, mori = pipeline("P1")
    assert in_k_eff(mori, (1,)) and mori.in_k(mori.pairing_nums((1,)))
    assert mori.d_pairings(mori.pairing_nums((1,))) == (Fraction(1), Fraction(1))
    assert in_k_eff(mori, (0,))
    _, data, _, mori = pipeline("P112")
    twisted = (0, 1)  # p-pairings of d_v
    nums = mori.pairing_nums(twisted)
    assert mori.d_pairings(nums) == (Fraction(-1, 2), Fraction(0),
                                     Fraction(-1, 2), Fraction(1))
    assert mori.in_k(nums) and in_k_eff(mori, twisted)
    assert mori.integer_pattern(nums, nonneg=True) == (1, 3)


def test_box_coset_map_tables():
    for name, size in {"P1": 1, "P2": 1, "P112": 2, "P1113": 3}.items():
        _, data, _, mori = pipeline(name)
        table = box_coset_map(mori)
        assert len(table) == size
        zero_row = next(t for t in table if not any(t["box_element"]))
        assert not any(zero_row["d_p_pairings"])


def test_ceiling_map_example_p112():
    _, data, _, mori = pipeline("P112")
    nums = mori.pairing_nums((0, 1))
    assert mori.v_of(nums) == (0, -1)
    vals = mori.d_pairings(nums)
    ceils = [-((-v.numerator) // v.denominator) for v in vals]
    assert ceils == [0, 0, 0, 1]


def test_ceiling_constant_on_l_cosets():
    rng = random.Random(7)
    for name in CORPUS:
        ext, data, _, mori = pipeline(name)
        for entry in box_coset_map(mori):
            t = entry["d_p_pairings"]
            for _ in range(10):
                coeffs = [rng.randint(-4, 4) for _ in ext.l_basis]
                shift = [sum(c * data.p_basis[a][j] for j, c in enumerate(coeffs))
                         for a in range(data.rank)]
                t2 = tuple(x + y for x, y in zip(t, shift))
                assert mori.v_of(mori.pairing_nums(t2)) == tuple(entry["box_element"])


def test_lattice_inclusion_chain():
    # L subset K subset NE^e, testable on basis vectors and representatives
    for name in CORPUS:
        ext, data, _, mori = pipeline(name)
        for j in range(ext.l_rank):
            t = tuple(data.p_basis[a][j] for a in range(data.rank))
            assert mori.in_k(mori.pairing_nums(t))
            assert mori.in_ne(t)
        for entry in box_coset_map(mori):
            assert mori.in_ne(entry["d_p_pairings"])


# -- L-coordinates off the splitting, against the former solves ------------------


def _box_relations(ext):
    """For each box element with a decomposition, its N-decomposition less
    its fractional coordinates: the element of L (x) Q whose class is d_v."""
    for b in ext.box:
        n_vec = min_decomposition(ext, b.vector)
        if n_vec is None:
            continue
        rel = [Fraction(x) for x in n_vec]
        for i, rfrac in zip(b.min_cone, b.fractional):
            rel[i] -= rfrac
        yield tuple(rel)


def _l_vectors(ext):
    """Walls, distinguished relations and box-element relations of `ext`, in
    Q^n: every kind of vector whose L-coordinates the package reads."""
    walls = [w + (0,) * ext.e for w in ext.fan.wall_relations]
    return walls + distinguished_relations(ext) + list(_box_relations(ext))


def test_splitting_is_a_section_of_the_l_basis():
    for name, ext in differential_fans(smooth_rays=(5, 6, 7, 8)):
        s = ext.splitting
        assert s is ext.splitting, name  # once per extended fan
        for j, l in enumerate(ext.l_basis):
            assert _l_coords(ext, l) == tuple(int(k == j) for k in range(ext.l_rank)), name
        if not ext.l_rank:
            assert s is None, name


def test_l_coords_and_p_pairings_match_replaced_solves():
    fans = list(differential_fans(smooth_rays=(5, 6, 7, 8)))
    for name, ext in fans:
        for v in _l_vectors(ext):
            assert _l_coords(ext, v) == l_coords_oracle(ext, v), (name, v)
    # the p-pairings need a p-basis: the fans whose rho lies in K^e
    with_basis = list(series_fans(fans))
    assert len(with_basis) >= 15
    for name, data, _, _ in with_basis:
        for v in _l_vectors(data.ext):
            expected = pairing_p_oracle(data, l_coords_oracle(data.ext, v))
            assert data.pairing_p(v) == expected, (name, v)


def test_wall_relations_sum_to_anticanonical_degree():
    # distinct wall curve classes of F2; the -2-curve has degree 0 (nef, not Fano)
    sums = sorted(sum(w) for w in fan_of(CORPUS["F2"]).wall_relations)
    assert sums == [0, 2, 4]


# -- oracle: the enumeration min_decomposition replaced ---------------------------


def _nonneg_decompositions(ext, vector, cone):
    """All ways to write `vector` as an N-combination of the generators in `cone`."""
    support = ext.generators_in_cone(cone)
    gens = [ext.generators[i] for i in support]
    sols = []

    def rec(idx, remainder, acc):
        if idx == len(gens):
            if not any(remainder):
                sols.append(tuple(acc))
            return
        g = gens[idx]
        bound = 0
        # crude bound: coefficients cannot exceed total degree over this gen's degree
        deg_g = ext.degree(support[idx])
        total = sum(abs(x) for x in remainder)
        cap = total if deg_g <= 0 else int(Fraction(total) / min(deg_g, Fraction(1))) + 1
        c = 0
        while c <= cap:
            rem2 = tuple(x - c * y for x, y in zip(remainder, g)) if c else tuple(remainder)
            rec(idx + 1, rem2, acc + [c])
            c += 1

    rec(0, tuple(vector), [])
    out = []
    for sol in sorted(sols):
        full = [0] * ext.n
        for idx, c in zip(support, sol):
            full[idx] = c
        out.append(tuple(full))
    return out


def _oracle_on_ambient_cone(ext, vector):
    sigma = minimal_cone(ext.fan, vector)
    ambient = next(c for c in ext.fan.max_cones if set(sigma) <= set(c))
    return sigma, _nonneg_decompositions(ext, vector, ambient)


def test_min_decomposition_matches_enumeration_oracle():
    # Box elements, generalized-primitive-collection sums, and doubled Box
    # elements (the only ones here with several decompositions to order).
    checked = 0
    for name, ext in differential_fans():
        box = [b.vector for b in ext.box]
        sums = [tuple(sum(ext.generators[i][k] for i in c) for k in range(ext.d))
                for c in generalized_primitive_collections(ext)]
        for vector in box + sums + [tuple(2 * x for x in v) for v in box]:
            sigma, decomps = _oracle_on_ambient_cone(ext, vector)
            expected = decomps[0] if decomps else None
            assert min_decomposition(ext, vector) == expected, (name, vector)
            # every decomposition on the ambient cone lies on the minimal cone,
            # so primitive_relation's old support filter never removed one
            assert all(ext.generator_in_cone(i, sigma)
                       for dec in decomps for i, c in enumerate(dec) if c), (name, vector)
            checked += 1
    assert checked > 50


def test_min_decomposition_none_without_decomposition():
    # P(1,1,2) extended by nothing: the twisted box element (0,-1) is
    # (a_1 + a_3)/2, which no N-combination of a_1, a_3 reaches
    ext = ext_of_doc({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
                     "max_cones": [[1, 2], [2, 3], [1, 3]], "extra_generators": []})
    assert ext.e == 0
    assert min_decomposition(ext, (0, -1)) is None
    assert min_decomposition(ext, (0, -2)) == (1, 0, 1)
    assert min_decomposition(ext, (0, 0)) == (0, 0, 0)
