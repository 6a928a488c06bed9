from fractions import Fraction
import random

import pytest

from corpus import (
    CORPUS,
    F3,
    P1,
    P112,
    P2,
    differential_fans,
    ext_of,
    ext_of_doc,
    fan_of,
    in_k_eff,
    l_coords_oracle,
    minimal_cone,
    pairing_p_oracle,
    pipeline,
    saturate,
    series_fans,
)
from orbimirror.cones import RationalCone, is_face, lp_feasible
from orbimirror.fan import generalized_primitive_collections
from orbimirror.linalg import hermite_row_basis
from orbimirror.picard import (
    PicardError,
    _l_coords,
    box_coset_map,
    choose_basis_p,
    extended_kahler_contains,
    extended_pl_and_pic,
    distinguished_relations,
    kahler_cone,
    min_decomposition,
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
        cone = kahler_cone(data)
        assert cone.extremal_rays() == [(1,)]


def test_kahler_cone_f2_two_dimensional_with_p112_face():
    _, data_f2, _, _ = pipeline("F2")
    kz = kahler_cone(data_f2)
    rays_z = kz.extremal_rays()
    assert len(rays_z) == 2
    _, data_x, _, _ = pipeline("P112")
    kx = kahler_cone(data_x)
    rays_x = kx.extremal_rays()
    assert len(rays_x) == 1
    # both live in the same L* coordinates because the L bases coincide
    assert data_f2.ext.l_basis == data_x.ext.l_basis
    face = RationalCone.from_generators(2, rays_x)
    big = RationalCone.from_generators(2, rays_z)
    assert is_face(face, big)


def test_rho_membership_corpus_and_counterexample():
    for name in CORPUS:
        _, data, _, _ = pipeline(name)
        lp, degree = rho_membership(data)
        assert lp is True and degree is True
    f3 = extended_pl_and_pic(ext_of(F3))
    assert rho_membership(f3) == (False, False)


def _extended_kahler_contains_oracle(data, x) -> bool:
    """The former picard.extended_kahler_contains: an LP over dim + e free
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


def test_extended_kahler_contains_matches_replaced_lp():
    """At rho, at rho - [D_{m+k}], and at the extremal rays of K, rho and each
    [D_{m+k}] moved by 1/100 along every coordinate axis, which puts many of
    them just outside K^e."""
    verdicts = []
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
            verdict = extended_kahler_contains(data, x)
            assert verdict == _extended_kahler_contains_oracle(data, x), (name, x)
            verdicts.append((name, verdict))
    assert ("f3", False) in verdicts and ("p123", False) in verdicts
    assert sum(v for _, v in verdicts) > 50 and sum(not v for _, v in verdicts) > 50


def test_choose_basis_p_p1():
    _, data, _, _ = pipeline("P1")
    assert data.p_basis == ((Fraction(1),),)
    assert data.m_matrix == ((Fraction(1),), (Fraction(1),))


def test_choose_basis_p_p112():
    _, data, _, _ = pipeline("P112")
    assert data.p_basis[1] == (Fraction(-2), Fraction(1))  # p2 = [D4]
    cone = kahler_cone(data)
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


def test_supplied_p_basis_validated():
    ext = ext_of(P112)
    data0 = extended_pl_and_pic(ext)
    data = choose_basis_p(data0, override=[(0, 1)])
    assert data.p_basis[0] == (Fraction(0), Fraction(1))
    with pytest.raises(PicardError, match="basis conditions"):
        choose_basis_p(data0, override=[(0, -1)])


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
    assert in_k_eff(mori, (1,)) and mori.in_k((1,))
    assert mori.d_pairings((1,)) == (Fraction(1), Fraction(1))
    assert in_k_eff(mori, (0,))
    _, data, _, mori = pipeline("P112")
    twisted = (0, 1)  # p-pairings of d_v
    assert mori.d_pairings(twisted) == (Fraction(-1, 2), Fraction(0),
                                        Fraction(-1, 2), Fraction(1))
    assert mori.in_k(twisted) and in_k_eff(mori, twisted)
    assert mori.integer_pattern(twisted, nonneg=True) == (1, 3)


def test_box_coset_map_tables():
    for name, size in {"P1": 1, "P2": 1, "P112": 2, "P1113": 3}.items():
        _, data, _, mori = pipeline(name)
        table = box_coset_map(mori)
        assert len(table) == size
        zero_row = next(t for t in table if not any(t["box_element"]))
        assert not any(zero_row["d_p_pairings"])


def test_ceiling_map_example_p112():
    _, data, _, mori = pipeline("P112")
    assert mori.v_of((0, 1)) == (0, -1)
    vals = mori.d_pairings((0, 1))
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
                assert mori.v_of(t2) == tuple(entry["box_element"])


def test_lattice_inclusion_chain():
    # L subset K subset NE^e, testable on basis vectors and representatives
    for name in CORPUS:
        ext, data, _, mori = pipeline(name)
        for j in range(ext.l_rank):
            t = tuple(data.p_basis[a][j] for a in range(data.rank))
            assert mori.in_k(t)
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
