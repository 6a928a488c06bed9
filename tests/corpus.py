"""Shared corpus fixtures: the desk-scale fans every suite runs against."""

from fractions import Fraction
import json
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
from orbimirror.fandoc import parse_fan
from orbimirror.linalg import (
    det,
    dot,
    hermite_row_basis,
    smith_normal_form,
    solve_unique,
    unimodular_inverse,
)
from orbimirror.operators import _family_union, box_x, operator_families
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


# -- lattice and fan helpers without a caller in the package -------------------


def saturate(vectors):
    """HNF basis of (Q-span of the input) intersected with Z^k."""
    rows = [v for v in vectors if any(v)]
    if not rows:
        return []
    snf = smith_normal_form(rows)
    return hermite_row_basis(unimodular_inverse(snf.v)[:snf.rank()])


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
