from fractions import Fraction

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import DATA, ext_of_doc, identity, is_unimodular, mat_product, saturate
from orbimirror import linalg, picard
from orbimirror.linalg import (
    LinAlgError,
    clear_denominators,
    coordinates,
    det,
    dot,
    hermite_row_basis,
    integer_inverse,
    kernel_basis,
    normalized_simplex_volume,
    null_vector,
    over_lcm,
    rank,
    reduce_mod_lattice,
    smith_normal_form,
    solve_general,
    solve_unique,
    splitting_maps,
    unimodular_inverse,
)
from orbimirror.picard import choose_basis_p, extended_pl_and_pic

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def test_snf_diag_2_3():
    m = ((2, 0), (0, 3))
    snf = smith_normal_form(m)
    assert snf.diagonal() == (1, 6)
    assert mat_product(snf.u, m, snf.v) == snf.s
    assert is_unimodular(snf.u) and is_unimodular(snf.v)


def test_snf_identity():
    m = identity(3)
    snf = smith_normal_form(m)
    assert snf.s == m and snf.u == m and snf.v == m


def test_snf_p112_ray_matrix():
    # the P(1,1,2) ray matrix, 2x3: S = [diag(1,1) | 0]
    m = ((1, 0, -1), (0, 1, -2))
    snf = smith_normal_form(m)
    assert snf.diagonal() == (1, 1)
    assert all(snf.s[i][2] == 0 for i in range(2))
    assert mat_product(snf.u, m, snf.v) == snf.s


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    snf = smith_normal_form(m)
    assert mat_product(snf.u, m, snf.v) == snf.s
    assert is_unimodular(snf.u) and is_unimodular(snf.v)
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal entries vanish
    for i in range(len(m)):
        for j in range(len(m[0])):
            if i != j:
                assert snf.s[i][j] == 0


def test_kernel_p1():
    assert kernel_basis([[1, -1]]) == [(1, 1)]


def test_kernel_p112_extended():
    a = ((1, 0, -1, 0), (0, 1, -2, -1))
    basis = kernel_basis(a)
    assert basis == [(1, 0, 1, -2), (0, 1, 0, 1)]
    for vec in basis:
        assert all(sum(a[i][j] * vec[j] for j in range(4)) == 0 for i in range(2))


def test_kernel_invertible_is_trivial():
    assert kernel_basis([[2, 1], [1, 1]]) == []


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_properties(m):
    basis = kernel_basis(m)
    snf = smith_normal_form(m)
    assert len(basis) == len(m[0]) - snf.rank()
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(len(row))) == 0 for row in m)


def _splitting(a):
    """splitting_maps(a, ...) on a's SNF and the HNF basis of its kernel."""
    snf = smith_normal_form(a)
    return splitting_maps(a, snf, snf.kernel())


def test_splitting_p1():
    s, g = _splitting(((1, -1),))
    t = (1, 1)
    assert sum(s[0][j] * t[j] for j in range(2)) == 1


def test_splitting_identity():
    a = identity(2)
    s, g = _splitting(a)
    assert s is None
    assert g == a


def test_splitting_p112_identities():
    a = ((1, 0, -1, 0), (0, 1, -2, -1))
    s, g = _splitting(a)  # raises internally if any identity fails
    t = tuple(zip(*kernel_basis(a)))
    assert mat_product(s, t) == identity(2)
    assert mat_product(a, g) == identity(2)


def test_splitting_rejects_non_surjective():
    with pytest.raises(LinAlgError, match="invariant factors"):
        _splitting(((2, 0), (0, 2)))


def test_saturate_examples():
    assert saturate([(2, 0), (0, 2)]) == [(1, 0), (0, 1)]
    assert saturate([(1, 1)]) == [(1, 1)]
    assert saturate([(0, 0)]) == []


def test_saturate_matches_kernel_characterization_p112():
    # Theta(PL) for P(1,1,2): kernel of pairing with the distinguished relation
    # (-1, 0, -1, 2); saturating the raw PL image must give the same lattice.
    k = kernel_basis([[-1, 0, -1, 2]])
    doubled = [tuple(2 * x for x in v) for v in k] + [k[0]]
    assert saturate(doubled + k) == k


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_saturate_idempotent(vectors):
    once = saturate(vectors)
    assert saturate(once) == once


def test_volume_examples():
    assert normalized_simplex_volume([(1, 0), (0, 1)]) == 1
    assert normalized_simplex_volume([(1, 0), (-1, -2)]) == 2
    assert normalized_simplex_volume([(1,)]) + normalized_simplex_volume([(-1,)]) == 2


def test_volume_requires_square():
    with pytest.raises(LinAlgError):
        normalized_simplex_volume([(1, 0)])


def test_hermite_reduce_mod_lattice():
    basis = hermite_row_basis([(2, 1), (0, 3)])
    rep = reduce_mod_lattice((5, 5), basis)
    assert reduce_mod_lattice(rep, basis) == rep


def test_hermite_basis_is_fully_reduced():
    # the second basis adds row 2 to row 3; both must give the one HNF, whose
    # entry above the pivot 3 lies in [0, 3)
    expected = [(1, 0, 1), (0, 1, 2), (0, 0, 3)]
    assert hermite_row_basis([(1, 1, 0), (0, 1, 2), (0, 0, 3)]) == expected
    assert hermite_row_basis([(1, 1, 0), (0, 1, 2), (0, 1, 5)]) == expected


@st.composite
def bases_and_unimodular(draw):
    """(B, U): k independent integer rows and a k x k unimodular matrix, a
    product of elementary row operations (i != j: add c * row j to row i;
    i == j: negate row i)."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 5))
    basis = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                          min_size=k, max_size=k))
    assume(rank(basis) == k)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    ops = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(ops, max_size=10)):
        u[i] = [-x for x in u[i]] if i == j else [x + c * y for x, y in zip(u[i], u[j])]
    return basis, u


@settings(max_examples=150, deadline=None)
@given(bases_and_unimodular())
def test_hermite_basis_is_canonical(case):
    basis, u = case
    hnf = hermite_row_basis(basis)
    ub = [[sum(c * row[j] for c, row in zip(urow, basis)) for j in range(len(basis[0]))]
          for urow in u]
    assert hermite_row_basis(ub) == hnf
    for i, row in enumerate(hnf):
        pcol = next(j for j, x in enumerate(row) if x)
        assert row[pcol] > 0
        assert all(0 <= hnf[q][pcol] < row[pcol] for q in range(i))
        assert all(hnf[q][j] == 0 for q in range(i + 1, len(hnf)) for j in range(pcol + 1))


def test_unimodular_inverse_rejects_singular():
    with pytest.raises(LinAlgError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_over_lcm_examples():
    assert over_lcm([Fraction(1, 2), 3, Fraction(-5, 6)]) == ([3, 18, -5], 6)
    assert over_lcm(x for x in (Fraction(2, 4), 1)) == ([1, 2], 2)
    assert over_lcm([]) == ([], 1)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert clear_denominators([0, 0]) == (0, 0)


# -- rank and coordinates against the routines they replaced --------------------


def _solve_general_oracle(a_rows, b):
    """The former linalg.solve_general: a Fraction Gauss-Jordan."""
    rows = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(a_rows, b)]
    ncols = len(rows[0]) - 1 if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][ncols] != 0:
            return None
    part = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        part[col] = rows[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    null = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][fc]
        null.append(tuple(vec))
    return tuple(part), null


def _unimodular_inverse_oracle(m):
    """The former linalg.unimodular_inverse: its own Fraction Gauss-Jordan."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise LinAlgError("inverse of a non-square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise LinAlgError("singular matrix")
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(x.denominator != 1 for x in vals):
            raise LinAlgError("matrix is not unimodular")
        out.append(tuple(int(x) for x in vals))
    return tuple(out)


def _det_bareiss_oracle(a: list[list[int]]) -> int:
    """The former linalg._det_bareiss: fraction-free Gaussian elimination."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _outcome(f, *args):
    """f(*args), or the type and message of the LinAlgError it raises."""
    try:
        return f(*args)
    except LinAlgError as exc:
        return type(exc), str(exc)


def _rank_oracle(rows) -> int:
    """The former cohomology._rank: its own Gauss-Jordan loop."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _coords_in_rows_oracle(vec, rows):
    """The former picard._coords_in_rows, on the former Fraction solver."""
    mat = [[Fraction(row[j]) for row in rows] for j in range(len(vec))]
    sol = _solve_general_oracle(mat, vec)
    if sol is None:
        return None
    coords, null = sol
    return None if null else coords


entries = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_systems(draw):
    """(rows, vec): 1-3 drawn rows of width 1-4 plus up to 2 rows combined
    from them (rank-deficient when any are added), shuffled; vec is drawn
    freely (often no solution) or combined from the rows (a solution, unique
    only when the rows are independent)."""
    width = draw(st.integers(1, 4))
    vectors = st.lists(entries, min_size=width, max_size=width)
    base = draw(st.lists(vectors, min_size=1, max_size=3))
    factors = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))

    def combine(cs, rows):
        return [sum((Fraction(c) * row[j] for c, row in zip(cs, rows)), Fraction(0))
                for j in range(width)]

    rows = base + [combine(cs, base) for cs in draw(st.lists(factors, max_size=2))]
    rows = draw(st.permutations(rows))
    vec = draw(st.one_of(vectors, factors.map(lambda cs: combine(cs, base))))
    return rows, vec


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_rank_and_coordinates_match_replaced_routines(system):
    rows, vec = system
    assert rank(rows) == _rank_oracle(rows)
    assert coordinates(vec, rows) == _coords_in_rows_oracle(vec, rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_matches_oracle_and_snf_on_integer_matrices(rows):
    assert rank(rows) == _rank_oracle(rows) == smith_normal_form(rows).rank()


def test_rank_and_coordinates_examples():
    assert rank([]) == _rank_oracle([]) == 0
    assert rank([(1, 2), (2, 4)]) == 1
    independent = [(1, 0), (0, 2)]
    assert coordinates((1, 1), independent) == (1, Fraction(1, 2))
    dependent = [(1, 2), (2, 4)]
    assert coordinates((1, 2), dependent) is None  # many solutions
    assert coordinates((1, 0), dependent) is None  # no solution
    for vec, rows in (((1, 1), independent), ((1, 2), dependent), ((1, 0), dependent)):
        assert coordinates(vec, rows) == _coords_in_rows_oracle(vec, rows)


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_solve_general_matches_fraction_oracle(system):
    rows, vec = system
    transposed = [[row[j] for row in rows] for j in range(len(vec))]
    consistent = [sum((Fraction(a) * b for a, b in zip(row, vec)), Fraction(0))
                  for row in rows]
    shifted = consistent[:-1] + [consistent[-1] + 1]
    for a_rows, b in ((transposed, vec), (rows, consistent), (rows, shifted)):
        assert solve_general(a_rows, b) == _solve_general_oracle(a_rows, b)


def _null_vector_oracle(rows):
    """The former extremal-ray and wall-relation route: a rational null basis,
    then its one vector cleared of denominators."""
    _, null = solve_general(rows, [0] * len(rows))
    return clear_denominators(null[0]) if len(null) == 1 else None


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices,
                 rational_systems().map(lambda s: [over_lcm(r)[0] for r in s[0]])))
def test_null_vector_matches_cleared_rational_null_basis(rows):
    assert null_vector(rows) == _null_vector_oracle(rows)


def test_null_vector_examples():
    assert null_vector([[1, 1, 0], [0, 2, 1]]) == (1, -1, 2)
    assert null_vector([[-2, 4, 0], [0, 0, 3]]) == (2, 1, 0)  # negative pivot
    assert null_vector([[1, 0], [0, 1]]) is None
    assert null_vector([[1, 2, 3]]) is None  # corank two


def _dot_oracle(u, v):
    """The former linalg.dot: every factor wrapped in a Fraction."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(entries, min_size=n, max_size=n), st.lists(entries, min_size=n, max_size=n))))
def test_dot_matches_former_body(vectors):
    u, v = vectors
    value = dot(u, v)
    assert type(value) is Fraction and value == _dot_oracle(u, v)


@st.composite
def square_integer_matrices(draw):
    """Square integer matrices of size 1-4: free draws (sometimes singular),
    singular ones (a row combined from the others), products of elementary
    row operations (unimodular), such products scaled in one row (not
    unimodular), each with its rows permuted so that pivots need swaps."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["free", "singular", "unimodular", "scaled"]))
    if kind in ("free", "singular"):
        rows = draw(st.lists(row, min_size=n, max_size=n))
        if kind == "singular":
            cs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
            rows[-1] = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)]
    else:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
        for i, j, c in draw(st.lists(ops, max_size=12)):
            if i == j:
                rows[i] = [-x for x in rows[i]]
            else:
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if kind == "scaled":
            k = draw(st.integers(0, n - 1))
            rows[k] = [draw(st.sampled_from([0, 2, 3])) * x for x in rows[k]]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_det_and_unimodular_inverse_match_replaced_routines(rows):
    assert det(rows) == _det_bareiss_oracle([list(r) for r in rows])
    assert _outcome(unimodular_inverse, rows) == _outcome(_unimodular_inverse_oracle, rows)


def test_unimodular_inverse_and_det_examples():
    swap = ((0, 1), (1, 0))
    assert det(swap) == -1 and unimodular_inverse(swap) == swap
    assert det([[0, 2], [3, 0]]) == -6
    with pytest.raises(LinAlgError, match="not unimodular"):
        unimodular_inverse([[0, 2], [3, 0]])
    with pytest.raises(LinAlgError, match="non-square"):
        unimodular_inverse([[1, 0]])
    with pytest.raises(LinAlgError, match="non-square"):
        det([[1, 0]])


@st.composite
def rational_square_matrices(draw):
    """Square rational matrices of size 1-4; one row in three is combined from
    the others, so singular matrices are drawn too."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        cs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * Fraction(r[j]) for c, r in zip(cs, rows)), Fraction(0))
                    for j in range(n)]
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_square_matrices())
def test_inverse_matches_columns_of_the_fraction_oracle(rows):
    """integer_inverse(P) = (D, d) against the former q-basis route of
    choose_basis_p: column a of D / d solves P x = e_a."""
    n = len(rows)
    cols = [_solve_general_oracle(rows, [int(b == a) for b in range(n)]) for a in range(n)]
    if any(sol is None or sol[1] for sol in cols):
        with pytest.raises(LinAlgError, match="singular"):
            integer_inverse(rows)
    else:
        adj, d = integer_inverse(rows)
        assert tuple(tuple(Fraction(x, d) for x in row) for row in adj) == tuple(
            zip(*(sol[0] for sol in cols)))


def test_each_exact_solve_is_one_reduction(monkeypatch):
    """One elimination under every view: a second one fails here."""
    p123 = extended_pl_and_pic(ext_of_doc(json.loads((DATA / "p123.json").read_text())))
    reductions, unique_solves, inverses = [], [], []
    real_reduce, real_inverse = linalg._reduce, picard.integer_inverse
    monkeypatch.setattr(linalg, "_reduce",
                        lambda rows, width: reductions.append(width) or real_reduce(rows, width))
    m = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    views = [
        lambda: solve_general(m, [1, 0, 2]),
        lambda: solve_unique(m, [1, 0, 2]),
        lambda: coordinates((1, 0, 2), m),
        lambda: rank(m),
        lambda: integer_inverse(m),
        lambda: unimodular_inverse(m),
        lambda: det(m),
    ]
    for view in views:
        reductions.clear()
        view()
        assert len(reductions) == 1
    monkeypatch.setattr(linalg, "solve_unique",
                        lambda *args: unique_solves.append(args) or solve_unique(*args))
    monkeypatch.setattr(picard, "integer_inverse",
                        lambda rows: inverses.append(rows) or real_inverse(rows))
    data = choose_basis_p(p123)
    # beside the r x r test of each candidate, one inverse: of P, for q and M
    p_rows = [tuple(int(x) for x in row) for row in data.p_basis]
    assert data.r < data.rank
    assert unique_solves == [] and [m for m in inverses if len(m) == data.rank] == [p_rows]
