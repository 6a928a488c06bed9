"""Shared corpus fixtures: the desk-scale fans every suite runs against."""

from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, product
import json
from math import gcd
from pathlib import Path
import sys

from orbimirror.cohomology import _mono_mul, class_pair, class_vector, presentation
from orbimirror.crepant import (
    build_global_fan,
    check_gen_equals_new_rays,
    check_gluing_hypotheses,
    check_sl,
    is_crepant,
)
from orbimirror.fan import StackyFan, extend
from orbimirror.fandoc import _key_str, parse_fan
from orbimirror.linalg import (
    det,
    dot,
    hermite_row_basis,
    smith_normal_form,
    solve_unique,
    unimodular_inverse,
)
from orbimirror.operators import (
    _family_union,
    box_x,
    factorization_residual,
    operator_families,
    ray_products,
)
from orbimirror.picard import (
    choose_basis_p,
    extended_pl_and_pic,
    mori_lattices,
    rho_membership,
)

P1 = dict(rank=1, rays=[(1,), (-1,)], cones=[(0,), (1,)])
P2 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -1)], cones=[(0, 1), (1, 2), (0, 2)])
P112 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -2)], cones=[(0, 1), (1, 2), (0, 2)])
P113 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -3)], cones=[(0, 1), (1, 2), (0, 2)])
F2 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -2), (0, -1)],
          cones=[(0, 1), (1, 2), (2, 3), (3, 0)])
F3 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -3), (0, -1)],
          cones=[(0, 1), (1, 2), (2, 3), (3, 0)])
P1113 = dict(rank=3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)],
             cones=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

CORPUS = {"P1": P1, "P2": P2, "P112": P112, "F2": F2, "P1113": P1113}

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT))

from perfbench.workloads import smooth_polygon, weighted_projective_plane  # noqa: E402


def fan_of(spec) -> StackyFan:
    return StackyFan(spec["rank"], spec["rays"], spec["cones"])


def ext_of(spec):
    return extend(fan_of(spec))


def ext_of_doc(doc):
    """A fan document parsed and extended as the CLI does."""
    fan, options = parse_fan(doc)
    return extend(fan, options.get("extra_generators"))


def data_z(pair):
    """Picard data of the resolution of `pair`."""
    return extended_pl_and_pic(extend(pair.resolution))


def global_fan(pair, q_override=None):
    """build_global_fan on the stages `global-moduli` derives for `pair`."""
    ext_x = extend(pair.stacky, extra_vectors=pair.new_rays)
    data_x = choose_basis_p(extended_pl_and_pic(ext_x))
    check_gluing_hypotheses(is_crepant(pair), check_sl(pair.stacky),
                            check_gen_equals_new_rays(pair))
    return build_global_fan(data_x, data_z(pair), q_override)


_cache = {}


def pipeline(name):
    """(ext, picard data with basis, cohomology ring, mori data) for a corpus fan."""
    if name not in _cache:
        ext = ext_of(CORPUS[name])
        data = choose_basis_p(extended_pl_and_pic(ext))
        ring = presentation(ext)
        mori = mori_lattices(data)
        _cache[name] = (ext, data, ring, mori)
    return _cache[name]


def box_operators(data, ring, drop=None):
    """box_x of each relation in the union of the operator families read off
    `ring`, in union order; `drop` names a family whose relations leave the
    union wherever they occur (the sensitivity experiment)."""
    families = operator_families(data, ring)
    union = _family_union(families)
    if drop is not None:
        union = [v for v in union if v not in families[drop]]
    return [box_x(data, l) for l in union]


def half_residuals(data, l):
    """The factorization residuals of box_x(l), one per half: each half's own
    ray polynomial with the del powers that half carries."""
    dels = [tuple(max(sign * -x, 0) for x in l[data.ext.m:]) for sign in (+1, -1)]
    return [factorization_residual(poly, data.r, t)[1]
            for (poly, _den), t in zip(ray_products(data, l), dels)]


def differential_fans(smooth_rays=()):
    """Every valid tests/data document and every corpus spec, extended, then
    the benchmark's smooth m-ray polygon fan for each m in `smooth_rays`."""
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        if parse_fan(doc)[0].validation.ok:
            yield path.stem, ext_of_doc(doc)
    for name, spec in {"P1": P1, "P2": P2, "P112": P112, "P113": P113, "F2": F2,
                       "F3": F3, "P1113": P1113}.items():
        yield name, ext_of(spec)
    for m in smooth_rays:
        yield f"smooth{m}", ext_of_doc(smooth_polygon(m))


def weighted_planes():
    """P(1,2,5), P(1,3,5) and P(1,4,9), extended: larger boxes and cone
    lattices than any corpus fan."""
    for a, b in ((2, 5), (3, 5), (4, 9)):
        yield f"P(1,{a},{b})", ext_of_doc(weighted_projective_plane(a, b))


def series_fans(fans=None):
    """(name, picard data with basis, cohomology ring, mori data) for each
    fan of `fans`, (name, extended fan) pairs, by default `differential_fans()`,
    whose rho lies in its extended Kaehler cone, so that the p-basis and the
    I-function exist."""
    for name, ext in differential_fans() if fans is None else fans:
        picard = extended_pl_and_pic(ext)
        if rho_membership(picard)[0]:
            data = choose_basis_p(picard)
            yield name, data, presentation(ext), mori_lattices(data)


# -- crepant pairs from the 16 reflexive polygons --------------------------------


def _counterclockwise(points):
    """Nonzero points of the plane sorted by angle, counterclockwise from the
    positive x-axis."""
    def cmp(u, v):
        lower_u, lower_v = (w[1] < 0 or (w[1] == 0 and w[0] < 0) for w in (u, v))
        return (lower_u - lower_v) or (u[1] * v[0] - u[0] * v[1])

    return sorted(points, key=cmp_to_key(cmp))


def _edges(cycle):
    return list(zip(cycle, cycle[1:] + cycle[:1]))


@cache
def reflexive_polygons():
    """One vertex cycle per GL_2(Z) class of reflexive polygons, in the order
    first met: every set of 3 to 6 points of [-2, 2]^2 minus the origin that is
    the vertex set of its own convex hull and whose hull has the origin as its
    only interior lattice point (Pick's theorem). Each cycle runs
    counterclockwise from its lexicographically least vertex. The class key is
    the least canonical HNF of the 2 x k vertex matrix over every starting
    vertex and both orientations."""
    points = [p for p in product(range(-2, 3), repeat=2) if p != (0, 0)]
    classes = {}
    for k in range(3, 7):
        for subset in combinations(points, k):
            cycle = _counterclockwise(subset)
            start = cycle.index(subset[0])
            cycle = cycle[start:] + cycle[:start]
            edges = _edges(cycle)
            # the origin strictly inside, and a strict left turn at every vertex
            if any(u[0] * v[1] - u[1] * v[0] <= 0 for u, v in edges):
                continue
            if any((v[0] - u[0]) * (w[1] - v[1]) - (v[1] - u[1]) * (w[0] - v[0]) <= 0
                   for (u, v), w in zip(edges, cycle[2:] + cycle[:2])):
                continue
            twice_area = sum(u[0] * v[1] - u[1] * v[0] for u, v in edges)
            boundary = sum(gcd(v[0] - u[0], v[1] - u[1]) for u, v in edges)
            if twice_area - boundary + 2 != 2:
                continue
            key = min(tuple(map(tuple, hermite_row_basis([[x for x, _ in seq], [y for _, y in seq]])))
                      for i in range(k)
                      for seq in (cycle[i:] + cycle[:i], (cycle[i:] + cycle[:i])[::-1]))
            classes.setdefault(key, tuple(cycle))
    return list(classes.values())


def _boundary_points(cycle):
    """The lattice points on the polygon's boundary, counterclockwise from its
    first vertex."""
    out = []
    for u, v in _edges(list(cycle)):
        g = gcd(v[0] - u[0], v[1] - u[1])
        out += [(u[0] + t * (v[0] - u[0]) // g, u[1] + t * (v[1] - u[1]) // g) for t in range(g)]
    return out


def _polygon_fan_document(rays, cycle):
    """The complete 2-d fan on `rays` whose cones join neighbours of `cycle`."""
    index = {v: i + 1 for i, v in enumerate(rays)}
    return {"rank": 2, "rays": [list(v) for v in rays],
            "max_cones": [[index[u], index[v]] for u, v in _edges(list(cycle))]}


def reflexive_pairs():
    """(name, X, Z) fan documents for the 16 reflexive polygons, by number of
    boundary points: X is the fan over the vertices, Z its crepant resolution,
    the fan over every boundary point. Z's rays are X's rays in X's order, then
    the new points counterclockwise; both fans' cones follow the angle."""
    out = []
    for cycle in reflexive_polygons():
        boundary = _boundary_points(cycle)
        rays_z = list(cycle) + [p for p in boundary if p not in cycle]
        name = f"b{len(boundary)}" + "".join(f"({x},{y})" for x, y in cycle)
        out.append((len(boundary), name, _polygon_fan_document(cycle, cycle),
                    _polygon_fan_document(rays_z, boundary)))
    return [(name, x, z) for _, name, x, z in sorted(out, key=lambda item: item[0])]


def weighted_projective_space(*weights):
    """The fan document of P(1, w_1, .., w_d): rays e_1..e_d and -(w_1..w_d),
    every d-subset a cone."""
    d = len(weights)
    rays = [[int(i == j) for j in range(d)] for i in range(d)] + [[-w for w in weights]]
    return {"rank": d, "rays": rays,
            "max_cones": [list(c) for c in combinations(range(1, d + 2), d)]}


def gorenstein_wps3():
    """The 12 weight vectors w = (1, w_1, w_2, w_3) whose every weight
    divides sum(w): the Gorenstein weighted projective 3-spaces P(w) with a
    weight 1, whose fans are `weighted_projective_space(w_1, w_2, w_3)`."""
    return [(1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 6), (1, 2, 2, 5),
            (1, 2, 3, 6), (1, 2, 6, 9), (1, 3, 4, 4), (1, 3, 8, 12), (1, 4, 5, 10),
            (1, 6, 14, 21)]


def cube_boundary_fans():
    """(name, fan document) for the 128 complete fans over the boundary of
    the cube: rays (+-1, +-1, +-1), each square facet {x_k = +-1} split along
    one of its two diagonals (64 fans), then the same with (1,1,1) moved to
    (1,2,3) (64 more). Rays run from (1,1,1) down by coordinate sum, then
    lexicographically downward; facets and their triangles follow that order."""
    corners = sorted(product((1, -1), repeat=3), key=lambda v: (sum(v), v), reverse=True)
    squares = []  # each square facet as its two diagonals, by 1-based ray index
    for k, sign in product(range(3), (1, -1)):
        # in ray order a facet's first and last corners differ in both free
        # coordinates, and so do its middle two
        a, b, c, d = (i for i, v in enumerate(corners, 1) if v[k] == sign)
        squares.append(((a, d), (b, c)))
    out = []
    for top in ((1, 1, 1), (1, 2, 3)):
        rays = [list(top)] + [list(v) for v in corners[1:]]
        for split in product((0, 1), repeat=6):
            cones = []
            for (diag, other), s in zip(squares, split):
                (u, w), (a, b) = (diag, other) if s == 0 else (other, diag)
                cones += [[u, w, a], [u, w, b]]
            name = f"cube{''.join(map(str, top))}-{''.join(map(str, split))}"
            out.append((name, {"rank": 3, "rays": rays, "max_cones": cones}))
    return out


# -- lattice and fan helpers without a caller in the package -------------------


def saturate(vectors):
    """HNF basis of (Q-span of the input) intersected with Z^k."""
    rows = [v for v in vectors if any(v)]
    if not rows:
        return []
    snf = smith_normal_form(rows)
    return hermite_row_basis(unimodular_inverse(snf.v)[:snf.rank()])


def is_basis_of(rows, hnf_basis) -> bool:
    """The former picard.is_basis_of: True iff `rows` is a Z-basis of the
    lattice with canonical HNF basis `hnf_basis`, since two bases of one
    lattice have the same canonical HNF."""
    return len(rows) == len(hnf_basis) and hermite_row_basis(rows) == list(hnf_basis)


def is_unimodular(rows) -> bool:
    return all(len(r) == len(rows) for r in rows) and det(rows) in (1, -1)


def mat_product(*factors):
    """The product of integer matrices given as rows, as a tuple of rows."""
    out = tuple(map(tuple, factors[0]))
    for m in factors[1:]:
        cols = list(zip(*m))
        out = tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in out)
    return out


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def minimal_cone(fan, point):
    """Index set of the unique minimal cone of `fan` containing `point`."""
    return fan.fractional_coordinates(point)[0]


# -- L-coordinates by solving: the former picard routines, kept as oracles -----


def l_coords_oracle(ext, vec_qn):
    """The former picard._l_coords: coordinates in the L basis of an element
    of L (x) Q given in Q^n, by a solve against the basis columns."""
    basis = ext.l_basis
    mat = [[Fraction(b[i]) for b in basis] for i in range(ext.n)]
    return solve_unique(mat, vec_qn)


def pairing_p_oracle(data, l_coords):
    """The former ExtendedPicardData.pairing_p: p_a-pairings of an element of
    L (x) Q given in L-basis coordinates."""
    return tuple(dot(p, l_coords) for p in data.p_basis)


# -- classes as Fraction vectors: the former ring arithmetic, kept as oracles ----


def scale_class(cls, c):
    """c * cls for a class pair and a rational c (the former ring.scale)."""
    return class_pair([x * Fraction(c) for x in class_vector(cls)])


def add_classes(u, v):
    """u + v for class pairs (the former ring.add)."""
    return class_pair([a + b for a, b in zip(class_vector(u), class_vector(v))])


def fraction_products(ring):
    """The former product table: row i, column j is class_of(m_i * m_j) of
    standard monomials as its nonzero (index, Fraction coefficient) pairs."""
    std = ring.std_monomials
    table = [[()] * len(std) for _ in std]
    for i, a in enumerate(std):
        for j in range(i, len(std)):
            vec = class_vector(ring.class_of({_mono_mul(a, std[j]): Fraction(1)}))
            table[i][j] = table[j][i] = tuple((k, c) for k, c in enumerate(vec) if c)
    return table


def mul_oracle(table, u, v):
    """The former GradedQuotientRing.mul: the product of Fraction vectors
    over `fraction_products(ring)`."""
    out = [Fraction(0)] * len(table)
    for row, a in zip(table, u):
        if a:
            for entries, b in zip(row, v):
                if b:
                    ab = a * b
                    for k, c in entries:
                        out[k] += ab * c
    return tuple(out)


# -- the Mori-side tests on Fraction pairings: the former ones, kept as oracles --


def d_pairings(mori, t):
    """The pairings <D_i, d> = M t of d, given by its p-pairings t, as
    Fractions, straight from the Fraction M matrix."""
    rank = mori.picard.rank
    return tuple(sum((row[a] * Fraction(t[a]) for a in range(rank)), Fraction(0))
                 for row in mori.picard.m_matrix)


def in_k_eff(mori, t):
    """The former `MoriData.in_k_eff`: d lies in K^eff when the indices i with
    <D_i, d> a nonnegative integer form an extended anticone."""
    pattern = tuple(i for i, v in enumerate(d_pairings(mori, t))
                    if v.denominator == 1 and v >= 0)
    return pattern in mori.anticones_e


def v_of(mori, t):
    """The former ceiling map v(d) = sum ceil(<D_i, d>) a_i, on Fraction
    pairings."""
    ext = mori.picard.ext
    out = [0] * ext.d
    for v, generator in zip(d_pairings(mori, t), ext.generators):
        c = -((-v.numerator) // v.denominator)  # ceil
        out = [x + c * g for x, g in zip(out, generator)]
    return tuple(out)


# -- the report writer's oracle ------------------------------------------------


def to_jsonable(value):
    """The former `fandoc.to_jsonable`: Fractions become "num/den" strings,
    tuples become lists and keys become strings (`fandoc._key_str`). Floats
    pass, as the `timing` field did."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {_key_str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool, float)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dump_report_oracle(report):
    """The former `fandoc.dump_report` of the value the former `make_report`
    built: json.dumps of the jsonable report."""
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
