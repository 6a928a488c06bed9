from fractions import Fraction
import heapq
from math import lcm
import random

import pytest

from itertools import chain

from corpus import (
    CORPUS,
    box_operators,
    differential_fans,
    ext_of,
    ext_of_doc,
    fraction_products,
    mul_oracle,
    pipeline,
    scale_class,
    series_fans,
    weighted_planes,
)
from orbimirror import cohomology, operators
from orbimirror.cohomology import (
    RingError,
    WeightedGrevlex,
    _mono_div,
    _mono_lcm,
    _mono_mul,
    _reducer,
    add_term,
    binomial_relation_vectors,
    class_pair,
    class_vector,
    groebner_basis,
    is_nef,
    lattice_ideal_groebner,
    normal_form,
    normalized_volume,
    poly_mul,
    presentation,
    quotient_ring,
)
from orbimirror.fan import StackyFan, extend
from orbimirror.linalg import kernel_basis, rank
from perfbench.workloads import smooth_polygon, weighted_projective_plane


def c1_class(ring, upto=None):
    """Class of D_1 + ... + D_upto (default: all variables)."""
    n = ring.nvars if upto is None else upto
    poly = {}
    for i in range(n):
        poly[tuple(int(j == i) for j in range(ring.nvars))] = Fraction(1)
    return ring.class_of(poly)


def test_presentation_p1():
    _, _, ring, _ = pipeline("P1")
    assert ring.dim == 2
    assert ring.graded_dims() == {Fraction(0): 1, Fraction(1): 1}


def test_presentation_p2():
    _, _, ring, _ = pipeline("P2")
    assert ring.dim == 3
    assert ring.graded_dims() == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1}


def test_presentation_p112():
    _, _, ring, _ = pipeline("P112")
    assert ring.dim == 4
    assert ring.graded_dims() == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}


def test_presentation_f2():
    _, _, ring, _ = pipeline("F2")
    assert ring.dim == 4
    assert ring.graded_dims() == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}


def test_vector_space_dim_and_volume():
    for name, expected in {"P1": 2, "P2": 3, "P112": 4, "F2": 4, "P1113": 6}.items():
        ext, _, ring, _ = pipeline(name)
        assert ring.dim == expected
        assert normalized_volume(ext) == expected


def test_volume_refuses_non_nef():
    f3 = extend(StackyFan(2, [(1, 0), (0, 1), (-1, -3), (0, -1)],
                          [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not is_nef(f3)
    with pytest.raises(RingError, match="nef"):
        normalized_volume(f3)


def test_infinite_dimensional_reported():
    ring = quotient_ring(("x", "y"), (1, 1), {"gens": [{(1, 1): Fraction(1)}]})
    assert not ring.finite
    with pytest.raises(RingError, match="infinite"):
        ring.dim


# -- members without a caller in the package, kept here for their tests ---------


def _poly_of_class(ring, cls):
    return {m: c for m, c in zip(ring.std_monomials, class_vector(cls)) if c}


def _a_infinity(ring):
    n = ring.dim
    return tuple(
        tuple(ring.mono_degree(ring.std_monomials[i]) if i == j else Fraction(0)
              for j in range(n))
        for i in range(n)
    )


def _pairing_nondegenerate(ring):
    basis = [ring.class_of({m: Fraction(1)}) for m in ring.std_monomials]
    gram = [[ring.top_pairing(u, v) for v in basis] for u in basis]
    return rank(gram) == len(basis)


def _a_zero(ring, upto=None):
    """Matrix of -c1 cup (the residue-connection constant part)."""
    return ring.multiplication_matrix(scale_class(c1_class(ring, upto), -1))


def test_multiplication_by_one_is_identity():
    _, _, ring, _ = pipeline("P112")
    mat = ring.multiplication_matrix(ring.one())
    n = ring.dim
    assert mat == tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def test_p1_hyperplane_squares_to_zero():
    _, _, ring, _ = pipeline("P1")
    h = ring.class_of_var(0)
    assert ring.mul(h, h) == ring.zero_class()


def test_a_infinity_p112():
    _, _, ring, _ = pipeline("P112")
    diag = [row[i] for i, row in enumerate(_a_infinity(ring))]
    assert sorted(diag) == [0, 1, 1, 2]


def test_multiplication_matrices_commute():
    _, _, ring, _ = pipeline("P112")
    mats = [ring.multiplication_matrix(ring.class_of_var(i)) for i in range(ring.nvars)]

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))

    for a in mats:
        for b in mats:
            assert matmul(a, b) == matmul(b, a)


def test_divisor_classes_nilpotent():
    for name in CORPUS:
        _, _, ring, _ = pipeline(name)
        for i in range(ring.nvars):
            v = ring.class_of_var(i)
            power = v
            for _ in range(ring.dim + 1):
                power = ring.mul(power, v)
            assert power == ring.zero_class()


def test_top_pairing_examples():
    _, _, ring1, _ = pipeline("P1")
    h = ring1.class_of_var(0)
    assert ring1.top_pairing(ring1.one(), h) == 1
    assert ring1.top_pairing(ring1.one(), ring1.one()) == 0
    _, _, ring2, _ = pipeline("P2")
    h2 = ring2.class_of_var(0)
    assert ring2.top_pairing(h2, h2) == 1


def test_pairing_nondegenerate_and_graded_symmetry():
    for name in CORPUS:
        _, _, ring, _ = pipeline(name)
        assert _pairing_nondegenerate(ring)
        dims = ring.graded_dims()
        top = ring.top_degree()
        for q, d in dims.items():
            assert dims.get(top - q) == d


def _staircase_oracle(ring):
    """Graded dimensions by naive linear algebra on the raw generators."""
    gens = [g for fam in ring.generators.values() for g in fam]
    weights = ring.order.weights
    top_w = max(sum(e * w for e, w in zip(m, weights)) for m in ring.std_monomials)
    bound = 2 * top_w + max(weights)
    monos = [()]
    by_weight = {}

    def rec(prefix, idx, left):
        if idx == ring.nvars:
            m = tuple(prefix)
            by_weight.setdefault(sum(e * w for e, w in zip(m, weights)), []).append(m)
            return
        w = weights[idx]
        for e in range(left // w + 1):
            rec(prefix + [e], idx + 1, left - e * w)

    rec([], 0, bound)
    dims = {}
    for w, monomials in sorted(by_weight.items()):
        monomials = sorted(monomials)
        index = {m: k for k, m in enumerate(monomials)}
        rows = []
        for g in gens:
            gw = sum(e * ww for e, ww in zip(next(iter(g)), weights))
            need = w - gw
            if need < 0:
                continue
            for m in by_weight.get(need, []):
                prod = poly_mul({m: Fraction(1)}, g)
                row = [Fraction(0)] * len(monomials)
                for mono, c in prod.items():
                    row[index[mono]] = c
                rows.append(row)
        dims[w] = len(monomials) - rank(rows)
    return dims


def test_staircase_oracle_matches_groebner():
    for name in ("P1", "P2", "P112", "F2"):
        _, _, ring, _ = pipeline(name)
        oracle = _staircase_oracle(ring)
        weights = ring.order.weights
        counted = {}
        for m in ring.std_monomials:
            w = sum(e * ww for e, ww in zip(m, weights))
            counted[w] = counted.get(w, 0) + 1
        for w, d in counted.items():
            assert oracle.get(w, 0) == d, (name, w)
        top_w = max(counted)
        for w, d in oracle.items():
            if w > top_w:
                assert d == 0, (name, w)


def test_lattice_ideal_saturation_adds_generators():
    # Twisted cubic: the basis binomials xz - y^2, yw - z^2 do not generate the
    # lattice ideal; saturation must find xw - yz (relation (1, -1, -1, 1)).
    gb = lattice_ideal_groebner([(1, -2, 1, 0), (0, 1, -2, 1)], (1, 1, 1, 1))
    vectors = {tuple(v) for v in binomial_relation_vectors(gb)}
    vectors |= {tuple(-x for x in v) for v in vectors}
    assert (1, -1, -1, 1) in vectors
    # and the basis relations are still present (possibly negated)
    assert (1, -2, 1, 0) in vectors and (0, 1, -2, 1) in vectors


def test_c1_and_a_zero_shapes():
    _, _, ring, _ = pipeline("P2")
    c1 = c1_class(ring)
    assert ring.class_degree(c1) == 1
    mat = _a_zero(ring)
    assert len(mat) == ring.dim
    # -c1 cup is nilpotent: cubing it must vanish on P2
    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))

    cube = matmul(mat, matmul(mat, mat))
    assert all(x == 0 for row in cube for x in row)


def test_groebner_reduced_basis_is_canonical():
    order = WeightedGrevlex((1, 1))
    gens = [{(1, 0): Fraction(1), (0, 1): Fraction(-1)},
            {(1, 1): Fraction(1)}]
    gb1 = groebner_basis(gens, order)
    gb2 = groebner_basis(list(reversed(gens)), order)
    assert gb1 == gb2
    rem = normal_form({(2, 0): Fraction(1)}, [_reducer(g, order) for g in gb1], order)
    assert rem == {}


# -- the algebra core against the former Buchberger engines ---------------------


def _lead(p, order):
    m = max(p, key=order.key)
    return m, p[m]


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _strict(basis):
    """A basis as lists of (monomial, type, coefficient) in term order: the
    form in which `--emit-certificates` tells 1 from Fraction(1)."""
    return [[(m, type(c), c) for m, c in g.items()] for g in basis]


def _normal_form_heap_oracle(p, triples, order):
    """The former normal_form: finds each lead by `max` and each reducer by
    scanning every (lead, lead coefficient, poly) triple."""
    rem = {}
    work = dict(p)
    while work:
        m, c = _lead(work, order)
        for lm, lc, g in triples:
            if _mono_divides(lm, m):
                factor = _mono_div(m, lm)
                ratio = c / lc
                for gm, gc in g.items():
                    add_term(work, _mono_mul(factor, gm), -gc * ratio)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def _groebner_basis_heap_oracle(gens, order):
    """The former groebner_basis: Buchberger over Fraction with the
    coprime-lead criterion only, pairs in a heap keyed by their lcm."""
    work = []
    for g in gens:
        g = {m: Fraction(c) for m, c in g.items() if c}
        if g:
            lm, lc = _lead(g, order)
            work.append((lm, lc, g))
    work.sort(key=lambda t: order.key(t[0]))
    pairs = []

    def push_pairs(j):
        lmj = work[j][0]
        for i in range(j):
            lmi = work[i][0]
            if any(a and b for a, b in zip(lmi, lmj)):
                heapq.heappush(pairs, (order.key(_mono_lcm(lmi, lmj)), i, j))

    for j in range(len(work)):
        push_pairs(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lmi, lci, gi = work[i]
        lmj, lcj, gj = work[j]
        lcm = _mono_lcm(lmi, lmj)
        s = {_mono_mul(_mono_div(lcm, lmi), m): c / lci for m, c in gi.items()}
        for m, c in gj.items():
            add_term(s, _mono_mul(_mono_div(lcm, lmj), m), -c / lcj)
        s = _normal_form_heap_oracle(s, work, order)
        if s:
            lm, lc = _lead(s, order)
            work.append((lm, lc, s))
            push_pairs(len(work) - 1)
    keep = []
    for idx, (lm, lc, g) in enumerate(work):
        if any(k != idx and _mono_divides(work[k][0], lm)
               and (work[k][0] != lm or k < idx) for k in range(len(work))):
            continue
        keep.append((lm, lc, g))
    reduced = []
    for idx, (lm, lc, g) in enumerate(keep):
        others = [t for k, t in enumerate(keep) if k != idx]
        nf = _normal_form_heap_oracle(g, others, order)
        if nf:
            m, c = _lead(nf, order)
            reduced.append({mm: cc / c for mm, cc in nf.items()})
    reduced.sort(key=lambda g: order.key(_lead(g, order)[0]))
    return reduced


def _normal_form_oracle(p, triples, order):
    """The normal_form before the heap oracle: copies `work` through a
    subtraction per step."""
    rem = {}
    work = dict(p)
    while work:
        m, c = _lead(work, order)
        for lm, lc, g in triples:
            if _mono_divides(lm, m):
                factor = _mono_div(m, lm)
                ratio = c / lc
                scaled = {_mono_mul(factor, gm): gc * ratio for gm, gc in g.items()}
                work = _poly_sub(work, scaled)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def _poly_sub(p, q):
    out = dict(p)
    for m, c in q.items():
        add_term(out, m, -c)
    return out


def _groebner_basis_oracle(gens, order):
    """The groebner_basis before the heap oracle: re-sorts the whole pair
    list on every pop."""
    work = []
    for g in gens:
        g = {m: Fraction(c) for m, c in g.items() if c}
        if g:
            lm, lc = _lead(g, order)
            work.append((lm, lc, g))
    work.sort(key=lambda t: order.key(t[0]))
    pairs = [(i, j) for j in range(len(work)) for i in range(j)]
    while pairs:
        pairs.sort(key=lambda ij: order.key(_mono_lcm(work[ij[0]][0], work[ij[1]][0])),
                   reverse=True)
        i, j = pairs.pop()
        lmi, lci, gi = work[i]
        lmj, lcj, gj = work[j]
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue
        lcm = _mono_lcm(lmi, lmj)
        s1 = {_mono_mul(_mono_div(lcm, lmi), m): c / lci for m, c in gi.items()}
        s2 = {_mono_mul(_mono_div(lcm, lmj), m): c / lcj for m, c in gj.items()}
        s = _normal_form_oracle(_poly_sub(s1, s2), work, order)
        if s:
            lm, lc = _lead(s, order)
            work.append((lm, lc, s))
            pairs.extend((k, len(work) - 1) for k in range(len(work) - 1))
    keep = []
    for idx, (lm, lc, g) in enumerate(work):
        if any(k != idx and _mono_divides(work[k][0], lm)
               and (work[k][0] != lm or k < idx) for k in range(len(work))):
            continue
        keep.append((lm, lc, g))
    reduced = []
    for idx, (lm, lc, g) in enumerate(keep):
        others = [t for k, t in enumerate(keep) if k != idx]
        nf = _normal_form_oracle(g, others, order)
        if nf:
            m, c = _lead(nf, order)
            reduced.append({mm: cc / c for mm, cc in nf.items()})
    reduced.sort(key=lambda g: order.key(_lead(g, order)[0]))
    return reduced


def _record_groebner_calls(monkeypatch):
    """Every later groebner_basis call as (gens, order, basis)."""
    calls = []

    def recording(gens, order):
        gens = list(gens)
        basis = groebner_basis(gens, order)
        calls.append((gens, order, basis))
        return basis

    monkeypatch.setattr(cohomology, "groebner_basis", recording)
    return calls


def test_groebner_bases_match_resorting_oracle(monkeypatch):
    # Every groebner_basis call a presentation makes: the Rabinowitsch
    # elimination of each per-cone lattice ideal and the global basis of the
    # generator families, on the data
    # documents, the corpus specs and the smooth m-ray fans for m = 5..10.
    calls = _record_groebner_calls(monkeypatch)
    eliminations = 0
    for name, ext in differential_fans(range(5, 11)):
        calls.clear()
        ring = presentation(ext)
        assert calls[-1][2] == list(ring.groebner), name
        for gens, order, basis in calls:
            assert _strict(basis) == _strict(_groebner_basis_oracle(gens, order)), name
        eliminations += sum(order.elim == 1 for _, order, _ in calls)
    assert eliminations == 8  # one per cone with more generators than its dimension


def _assert_nf_matches_heap_oracle(ring, name):
    """ring.nf against the heap oracle's normal form, strictly, on every
    variable and every product of two standard monomials."""
    triples = [(*_lead(g, ring.order), g) for g in ring.groebner]
    polys = [{tuple(int(j == i) for j in range(ring.nvars)): Fraction(1)}
             for i in range(ring.nvars)]
    std = ring.std_monomials
    polys += [{_mono_mul(a, b): Fraction(1), b: Fraction(-2, 3)}
              for k, a in enumerate(std) for b in std[k:]]
    for p in polys:
        assert _strict([ring.nf(p)]) == _strict(
            [_normal_form_heap_oracle(p, triples, ring.order)]), name


def test_groebner_bases_match_heap_oracle_on_large_rings(monkeypatch):
    """The Gebauer-Moeller engine against the former heap Buchberger, strictly:
    the presentations of the smooth 12- and 16-ray fans (with every call they
    make) and the lattice ideals of P(1,4,9) and P(1,5,11)."""
    calls = _record_groebner_calls(monkeypatch)
    docs = {"smooth12": smooth_polygon(12), "smooth16": smooth_polygon(16),
            "P(1,4,9)": weighted_projective_plane(4, 9),
            "P(1,5,11)": weighted_projective_plane(5, 11)}
    for name, doc in docs.items():
        calls.clear()
        ring = presentation(ext_of_doc(doc))
        for gens, order, basis in calls:
            assert _strict(basis) == _strict(_groebner_basis_heap_oracle(gens, order)), name
        assert any(order.elim == 1 for _, order, _ in calls) == name.startswith("P("), name
        _assert_nf_matches_heap_oracle(ring, name)


def test_residue_and_symbol_rings_match_heap_oracle(monkeypatch):
    """The residue and symbol rings of every series fan: each basis strictly
    as the heap oracle gives it, and ring.nf as the oracle's normal form."""
    calls = _record_groebner_calls(monkeypatch)
    compared = 0
    for name, data, ring, _ in series_fans():
        ops = box_operators(data, ring)
        calls.clear()
        rings = [operators.residue_algebra(data, ops)]
        operators.symbol_fiber_dimension(data, ops)
        assert len(calls) == 2, name
        for gens, order, basis in calls:
            assert _strict(basis) == _strict(_groebner_basis_heap_oracle(gens, order)), name
        names, degrees = operators._limit_variable_names_degrees(data)
        rings.append(quotient_ring(names, degrees, {"symbols": calls[1][0]}))
        for r in rings:
            if r.finite:
                _assert_nf_matches_heap_oracle(r, name)
                compared += 1
    assert compared >= 10


def test_groebner_reductions_on_smooth10_are_counted(monkeypatch):
    """The Gebauer-Moeller criteria keep the smooth 10-ray presentation to 107
    reductions (28 nonzero, 79 to zero); the coprime-lead criterion alone made
    418 (51 nonzero, 367 to zero)."""
    counted = {"calls": 0}
    inner = cohomology.normal_form

    def counting(*args):
        counted["calls"] += 1
        return inner(*args)

    monkeypatch.setattr(cohomology, "normal_form", counting)
    presentation(ext_of_doc(smooth_polygon(10)))
    assert counted["calls"] <= 107


@pytest.mark.parametrize("name", ["P2", "F2"] + [f"smooth{m}" for m in range(5, 11)])
def test_unit_weight_presentations_match_sympy(name):
    """The reduced basis of a unit-weight presentation equals sympy's grevlex
    basis (x0 > x1 > ...), as a set of expanded polynomials."""
    sympy = pytest.importorskip("sympy")
    ext = ext_of(CORPUS[name]) if name in CORPUS else ext_of_doc(smooth_polygon(int(name[6:])))
    ring = presentation(ext)
    assert ring.order.weights == (1,) * ring.nvars
    xs = sympy.symbols(f"x0:{ring.nvars}")

    def expr(p):
        return sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                                * sympy.Mul(*(x ** e for x, e in zip(xs, m)))
                                for m, c in p.items()))

    gens = [g for fam in ring.generators.values() for g in fam]
    expected = sympy.groebner([expr(g) for g in gens], *xs, order="grevlex", domain="QQ")
    assert {expr(g) for g in ring.groebner} == {sympy.expand(g) for g in expected.exprs}


def _lattice_ideal_groebner_oracle(relations, weights):
    """The former lattice_ideal_groebner: Buchberger again on the t-free part."""
    k = len(weights)
    rels = [tuple(int(x) for x in r) for r in relations if any(r)]
    if not rels:
        return []
    elim_order = WeightedGrevlex((1,) + tuple(weights), elim_block=1)
    gens = []
    for r in rels:
        plus = (0,) + tuple(max(x, 0) for x in r)
        minus = (0,) + tuple(max(-x, 0) for x in r)
        gens.append({plus: Fraction(1), minus: Fraction(-1)})
    gens.append({(1,) + tuple(1 for _ in range(k)): Fraction(1),
                 (0,) * (k + 1): Fraction(-1)})
    gb = groebner_basis(gens, elim_order)
    kept = [{m[1:]: c for m, c in g.items()} for g in gb if all(m[0] == 0 for m in g)]
    return groebner_basis(kept, WeightedGrevlex(weights))


def test_lattice_ideal_groebner_matches_double_buchberger_oracle():
    """On the lattice of every maximal cone, as cone_lattice_groebner poses it;
    the terms must come in the same order too."""
    compared = 0
    for name, ext in chain(differential_fans(), weighted_planes()):
        degrees = [ext.degree(i) for i in range(ext.n)]
        denom = lcm(*(x.denominator for x in degrees))
        for cone in ext.fan.max_cones:
            support = ext.generators_in_cone(cone)
            mat = [[ext.generators[i][k] for i in support] for k in range(ext.d)]
            rels = kernel_basis(mat)
            weights = [int(degrees[i] * denom) for i in support]
            basis = lattice_ideal_groebner(rels, weights)
            oracle = _lattice_ideal_groebner_oracle(rels, weights)
            assert [list(g.items()) for g in basis] == [list(g.items()) for g in oracle], (name, cone)
            compared += bool(rels)
    assert compared >= 10


def test_mul_matches_product_of_polynomials():
    rng = random.Random(0)
    for name, ext in differential_fans():
        ring = presentation(ext)
        basis = [ring.class_of({m: Fraction(1)}) for m in ring.std_monomials]
        randoms = [class_pair([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis])
                   for _ in range(4)]
        for u in basis + randoms:
            for v in basis + randoms:
                expected = ring.class_of(poly_mul(_poly_of_class(ring, u), _poly_of_class(ring, v)))
                assert ring.mul(u, v) == expected, name


def test_class_pairs_are_canonical():
    assert class_pair([Fraction(2, 4), 0, Fraction(-3, 2)]) == ((1, 0, -3), 2)
    assert class_pair([Fraction(0)] * 3) == ((0, 0, 0), 1)
    assert class_pair([6, -4]) == ((6, -4), 1)
    vec = (Fraction(5, 6), Fraction(-1, 4), Fraction(0))
    assert class_vector(class_pair(vec)) == vec


def test_mul_matches_fraction_oracle():
    rng = random.Random(3)
    for name, ext in chain(differential_fans(), weighted_planes()):
        ring = presentation(ext)
        table = fraction_products(ring)
        basis = [class_vector(ring.class_of({m: Fraction(1)})) for m in ring.std_monomials]
        randoms = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * rng.randint(0, 1)
                         for _ in basis) for _ in range(3)]
        vectors = basis + randoms + [tuple(Fraction(0) for _ in basis)]
        for u in vectors:
            for v in vectors:
                assert ring.mul(class_pair(u), class_pair(v)) == class_pair(
                    mul_oracle(table, u, v)), name
