from fractions import Fraction
from itertools import combinations, permutations, product
import json
import random

import pytest

from itertools import chain

from corpus import (
    CORPUS,
    P1,
    P112,
    P113,
    P1113,
    P2,
    DATA,
    cube_boundary_fans,
    differential_fans,
    ext_of,
    fan_of,
    minimal_cone,
    reflexive_pairs,
    weighted_planes,
)
from orbimirror import fan as fan_module
from orbimirror.fandoc import parse_fan
from orbimirror.fan import (
    BoxElement,
    FanError,
    StackyFan,
    anticones,
    box_elements,
    extend,
    gen_elements,
    generalized_primitive_collections,
)
from orbimirror.linalg import (
    LinAlgError,
    ResourceLimitError,
    clear_denominators,
    hermite_row_basis,
    kernel_basis,
    smith_normal_form,
    solve_general,
    solve_unique,
    unimodular_inverse,
)


def test_validate_p2():
    assert fan_of(P2).validation.ok


def test_validate_missing_cone_names_wall():
    fan = StackyFan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    report = fan.validation
    assert not report.ok
    kinds = {i.kind for i in report.issues}
    assert kinds == {"completeness"}
    assert any("wall" in i.detail for i in report.issues)


def test_validate_non_primitive_ray():
    fan = StackyFan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    report = fan.validation
    assert any(i.kind == "ray-primitivity" for i in report.issues)


def test_minimal_cone_examples():
    fan = fan_of(P112)
    assert minimal_cone(fan, (0, -1)) == (0, 2)
    assert minimal_cone(fan, (0, 0)) == ()
    assert minimal_cone(fan, (1, 0)) == (0,)
    assert minimal_cone(fan, (0, 1)) == (1,)


def _ppd_oracle(fan):
    """Independent brute-force parallelepiped enumeration over a lattice box."""
    found = set()
    for cone in fan.max_cones:
        rays = [fan.rays[i] for i in cone]
        bound = sum(sum(abs(x) for x in rarr) for rarr in rays)
        for point in product(range(-bound, bound + 1), repeat=fan.rank):
            coords = fan.cone_coordinates(cone, point)
            if all(0 <= c < 1 for c in coords):
                found.add(tuple(point))
    return found


def test_box_p2_trivial():
    assert [b.vector for b in box_elements(fan_of(P2))] == [(0, 0)]


def test_box_p112():
    box = box_elements(fan_of(P112))
    assert [(b.vector, b.age) for b in box] == [((0, -1), 1), ((0, 0), 0)]
    assert box[0].min_cone == (0, 2)
    assert box[0].fractional == (Fraction(1, 2), Fraction(1, 2))


def test_box_p1113_matches_parallelepiped_oracle():
    fan = fan_of(P1113)
    box = box_elements(fan)
    assert {b.vector for b in box} == _ppd_oracle(fan)
    assert sorted(b.age for b in box) == [0, 1, 2]


def test_box_p112_matches_parallelepiped_oracle():
    fan = fan_of(P112)
    assert {b.vector for b in box_elements(fan)} == _ppd_oracle(fan)


def test_box_budget_counts_each_cones_representatives(monkeypatch):
    # P(1,1,3)'s cone on the rays 1 and 3 has index 3; P(1,1,2)'s cones at most 2
    monkeypatch.setattr(fan_module, "BOX_CAP", 2)
    assert len(box_elements(fan_of(P112))) == 2
    with pytest.raises(ResourceLimitError, match=r"^Box: cone \[1, 3\] has 3 elements, more than 2$"):
        box_elements(fan_of(P113))


def test_box_stable_under_cone_permutation():
    for cones in permutations(P112["cones"]):
        fan = StackyFan(2, P112["rays"], cones)
        assert [b.vector for b in box_elements(fan)] == [(0, -1), (0, 0)]


def test_gen_examples():
    assert [b.vector for b in gen_elements(fan_of(P112))] == [(0, -1)]
    assert gen_elements(fan_of(P2)) == []
    smooth = StackyFan(2, [(1, 0), (0, 1), (-1, -2), (0, -1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert gen_elements(smooth) == []


def test_gen_irreducibility_brute_force():
    # no Gen element decomposes as x + y with x, y nonzero in its cone
    for spec in (P112, P1113, P113):
        fan = fan_of(spec)
        box = {b.vector: b for b in box_elements(fan)}
        for g in gen_elements(fan):
            ambient = next(c for c in fan.max_cones if set(g.min_cone) <= set(c))
            for x in _ppd_oracle(fan):
                if x == g.vector or not any(x):
                    continue
                y = tuple(p - q for p, q in zip(g.vector, x))
                if not any(y):
                    continue
                cx = fan.cone_coordinates(ambient, x)
                cy = fan.cone_coordinates(ambient, y)
                in_sigma = all(
                    c >= 0 and (c == 0 or i in g.min_cone)
                    for vec in (cx, cy) for i, c in zip(ambient, vec)
                )
                assert not in_sigma, (g.vector, x, y)


def _box_elements_oracle(fan):
    """The former box_elements: solves each new element's minimal cone and
    coordinates again with fractional_coordinates."""
    d = fan.rank
    found = {}
    for cone in fan.max_cones:
        mat = fan.cone_matrix(cone)
        snf = smith_normal_form(mat)
        uinv = unimodular_inverse(snf.u)
        diag = snf.diagonal()
        reps = [()]
        for s in diag:
            reps = [r + (c,) for r in reps for c in range(s)]
        for rep in reps:
            x = tuple(sum(uinv[k][j] * rep[j] for j in range(d)) for k in range(d))
            coords = fan.cone_coordinates(cone, x)
            frac = [c - (c.numerator // c.denominator) for c in coords]
            v = tuple(
                int(sum(Fraction(fan.rays[i][k]) * f for i, f in zip(cone, frac)))
                for k in range(d)
            )
            if v in found:
                continue
            mcone, mfrac = fan.fractional_coordinates(v)
            found[v] = BoxElement(v, mcone, mfrac, sum(mfrac, Fraction(0)))
    return [found[v] for v in sorted(found)]


def _gen_elements_oracle(fan):
    """The former gen_elements: solves b - x in a maximal cone around sigma(b)."""
    nonzero = [b for b in fan.box if not b.is_zero]
    gens = []
    for b in nonzero:
        ambient = next(c for c in fan.max_cones if set(b.min_cone) <= set(c))
        reducible = False
        for x in nonzero:
            if x.vector == b.vector or not set(x.min_cone) <= set(b.min_cone):
                continue
            y = tuple(p - q for p, q in zip(b.vector, x.vector))
            if not any(y):
                continue
            coords = fan.cone_coordinates(ambient, y)
            if all(c >= 0 and (c == 0 or i in b.min_cone) for i, c in zip(ambient, coords)):
                reducible = True
                break
        if not reducible:
            gens.append(b)
    return gens


def _gen_elements_fraction_oracle(fan):
    """The former gen_elements: every pair of nonzero box elements, compared
    by their Fraction coordinates."""
    nonzero = [b for b in fan.box if not b.is_zero]
    gens = []
    for b in nonzero:
        coords = dict(zip(b.min_cone, b.fractional))
        if not any(
            x.vector != b.vector
            and all(i in coords and c <= coords[i] for i, c in zip(x.min_cone, x.fractional))
            for x in nonzero
        ):
            gens.append(b)
    return gens


def _product_fan(a, b):
    """The fan of the product of the toric varieties of a and b."""
    rays = [r + (0,) * b.rank for r in a.rays] + [(0,) * a.rank + r for r in b.rays]
    cones = [ca + tuple(a.n_rays + i for i in cb) for ca in a.max_cones for cb in b.max_cones]
    return StackyFan(a.rank + b.rank, rays, cones)


def test_gen_elements_matches_the_fraction_oracle():
    """On every tests/data fan, every `differential_fans()` fan, the 16
    reflexive X and Z, a cone of index 1,000 (the largest `BOX_CAP` admits),
    where the oracle's pairwise Fraction comparisons took seconds, and the
    rank-4 products of P(1,1,2) and P(1,2,3). Only from rank 4 on can a box
    element on a proper face of sigma(b) equal b's coordinates there: in
    P(1,1,2)^2, (1/2,1/2,1/2,1/2) = (1/2,1/2,0,0) + (0,0,1/2,1/2)."""
    fans = [(name, ext.fan) for name, ext in differential_fans()]
    for name, x, z in reflexive_pairs():
        fans += [(f"{name} X", parse_fan(x)[0]), (f"{name} Z", parse_fan(z)[0])]
    fans.append(("index 1000", StackyFan(2, [(1, 0), (0, 1), (-1000, -3)],
                                         [(0, 1), (1, 2), (0, 2)])))
    p112, p123 = fan_of(P112), parse_fan(json.loads((DATA / "p123.json").read_text()))[0]
    products = [(a, b, _product_fan(a, b)) for a, b in ((p112, p112), (p123, p123), (p112, p123))]
    fans += [(f"{a.rays} x {b.rays}", fan) for a, b, fan in products]
    assert {name for name, _ in fans} >= {path.stem for path in DATA.glob("*.json")
                                          if path.stem != "broken_wall"}
    reducible = 0
    for name, fan in fans:
        gens = gen_elements(fan)
        assert gens == _gen_elements_fraction_oracle(fan), name
        reducible += sum(not b.is_zero for b in fan.box) - len(gens)
    assert reducible > 1000
    # Gen of a product is the union of the factors' Gen, each on its own face
    for a, b, fan in products:
        assert len(gen_elements(fan)) == len(gen_elements(a)) + len(gen_elements(b))


def test_box_and_gen_match_replaced_routines():
    # P(1,3,4,6) has an x with b - x on a proper face of sigma(b): one
    # coordinate of x equals b's, which the plane fans cannot show.
    p1346 = StackyFan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -4, -6)],
                      list(combinations(range(4), 3)))
    fans = [(name, ext.fan) for name, ext in
            chain(differential_fans(smooth_rays=(5, 6, 7, 8)), weighted_planes())]
    reducible = 0
    for name, fan in fans + [("P(1,3,4,6)", p1346)]:
        assert box_elements(fan) == _box_elements_oracle(fan), name
        gens = gen_elements(fan)
        assert gens == _gen_elements_oracle(fan), name
        reducible += sum(not b.is_zero for b in fan.box) - len(gens)
    assert reducible > 0  # some box elements are reducible, so both verdicts occur


def _box_elements_snf_oracle(fan):
    """The former box_elements: one SNF per maximal cone, its representatives
    mapped through the inverse of U, coordinates and sums in Fractions."""
    fan.ensure_valid()
    d = fan.rank
    found = {}
    for cone in fan.max_cones:
        snf = smith_normal_form(fan.cone_matrix(cone))
        uinv = unimodular_inverse(snf.u)
        diag = snf.diagonal()
        size = 1
        for s in diag:
            size *= s
        if size > fan_module.BOX_CAP:
            raise ResourceLimitError(f"Box: cone {[i + 1 for i in cone]} has {size} "
                                     f"elements, more than {fan_module.BOX_CAP}")
        reps = [()]
        for s in diag:
            reps = [r + (c,) for r in reps for c in range(s)]
        for rep in reps:
            x = tuple(sum(uinv[k][j] * rep[j] for j in range(d)) for k in range(d))
            coords = fan.cone_coordinates(cone, x)
            frac = [c - (c.numerator // c.denominator) for c in coords]
            v = tuple(
                int(sum(Fraction(fan.rays[i][k]) * f for i, f in zip(cone, frac)))
                for k in range(d)
            )
            if v in found:
                continue
            mcone = tuple(i for i, f in zip(cone, frac) if f)
            mfrac = tuple(f for f in frac if f)
            found[v] = BoxElement(v, mcone, mfrac, sum(mfrac, Fraction(0)))
    return [found[v] for v in sorted(found)]


def test_box_elements_match_the_snf_oracle():
    """Box read off each cone's integer inverse equals the per-cone SNF route
    on the differential fans and weighted planes, the 16 reflexive X and Z,
    the 128 cube boundary fans, the rank-4 products of P(1,1,2) and
    P(1,2,3), P(1,3,4,6) and a cone of index 1,000; past BOX_CAP both raise
    the same error."""
    fans = [(name, ext.fan) for name, ext in chain(differential_fans(), weighted_planes())]
    for name, x, z in reflexive_pairs():
        fans += [(f"{name} X", parse_fan(x)[0]), (f"{name} Z", parse_fan(z)[0])]
    fans += [(name, parse_fan(doc)[0]) for name, doc in cube_boundary_fans()]
    p112, p123 = fan_of(P112), parse_fan(json.loads((DATA / "p123.json").read_text()))[0]
    fans += [(f"{a.rays} x {b.rays}", _product_fan(a, b))
             for a, b in ((p112, p112), (p123, p123), (p112, p123))]
    fans.append(("P(1,3,4,6)", StackyFan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -4, -6)],
                                         list(combinations(range(4), 3)))))
    fans.append(("index 1000", StackyFan(2, [(1, 0), (0, 1), (-1000, -3)],
                                         [(0, 1), (1, 2), (0, 2)])))
    assert len(fans) > 180
    for name, fan in fans:
        assert box_elements(fan) == _box_elements_snf_oracle(fan), name
    over = StackyFan(2, [(1, 0), (0, 1), (-1001, -3)], [(0, 1), (1, 2), (0, 2)])
    messages = []
    for route in (box_elements, _box_elements_snf_oracle):
        with pytest.raises(ResourceLimitError) as raised:
            route(over)
        messages.append(str(raised.value))
    assert messages == ["Box: cone [2, 3] has 1001 elements, more than 1000"] * 2


def test_extend_examples():
    e112 = ext_of(P112)
    assert (e112.n, e112.e) == (4, 1)
    assert e112.l_basis == ((1, 0, 1, -2), (0, 1, 0, 1))
    e2 = ext_of(P2)
    assert (e2.n, e2.e) == (3, 0)
    assert e2.l_basis == ((1, 1, 1),)
    e1 = ext_of(P1)
    assert e1.l_basis == ((1, 1),)


def test_extend_restores_surjectivity():
    fan = StackyFan(2, [(2, 1), (-2, 1), (0, -1)], [(0, 1), (1, 2), (0, 2)])
    ext = extend(fan)
    assert ext.e >= 1
    from orbimirror.linalg import smith_normal_form

    assert all(d == 1 for d in smith_normal_form(ext.a_matrix).diagonal())


def test_extend_rejects_non_gen_extra():
    with pytest.raises(FanError, match="not a primitive Box element"):
        extend(fan_of(P112), extra_vectors=[(5, 5)])


def test_anticones_p1():
    a, ae = anticones(ext_of(P1))
    assert set(a) == {(0, 1), (0,), (1,)}
    assert ae == sorted(set(a))  # e = 0


def test_anticones_p2_direct_check():
    ext = ext_of(P2)
    a, _ = anticones(ext)
    fan = ext.fan
    m = fan.n_rays
    for subset in product((0, 1), repeat=m):
        idx = tuple(i for i, take in enumerate(subset) if take)
        comp = set(range(m)) - set(idx)
        spans = any(comp <= set(c) for c in fan.max_cones)
        assert (idx in a) == spans


def test_anticones_extended_always_contain_extension():
    _, ae = anticones(ext_of(P112))
    assert all(3 in s for s in ae)
    assert tuple(range(4)) in ae


def test_generalized_primitive_collections():
    assert generalized_primitive_collections(ext_of(P2)) == [(0, 1, 2)]
    assert generalized_primitive_collections(ext_of(P1)) == [(0, 1)]
    gps = generalized_primitive_collections(ext_of(P112))
    assert (1, 3) in gps and (0, 1, 2) in gps and len(gps) == 2


def _primitive_collections_oracle(ext):
    """The former generalized_primitive_collections: every subset of every size."""
    fan = ext.fan
    n = ext.n

    def contained(subset) -> bool:
        return any(all(ext.generator_in_cone(i, c) for i in subset) for c in fan.max_cones)

    collections = []
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            if contained(subset):
                continue
            if all(contained(subset[:k] + subset[k + 1:]) for k in range(size)):
                collections.append(subset)
    return collections


def test_primitive_collections_match_all_subsets_oracle():
    fans = chain(differential_fans(smooth_rays=(5, 6, 7, 8, 10)), weighted_planes())
    checked = 0
    for name, ext in fans:
        assert generalized_primitive_collections(ext) == _primitive_collections_oracle(ext), name
        checked += 1
    assert checked == 25


def cone_relations(ext, cone):
    """HNF Z-basis of the relations among the generators lying in `cone`, in Z^n."""
    support = ext.generators_in_cone(cone)
    gens = ext.generators
    mat = [[gens[i][k] for i in support] for k in range(ext.d)]
    lifted = []
    for rel in kernel_basis(mat):
        full = [0] * ext.n
        for idx, val in zip(support, rel):
            full[idx] = val
        lifted.append(tuple(full))
    return hermite_row_basis(lifted)


def test_cone_relations():
    ext = ext_of(P112)
    assert cone_relations(ext, (0, 2)) == [(1, 0, 1, -2)]
    assert cone_relations(ext, (0, 1)) == []
    ext1 = ext_of(P1)
    assert cone_relations(ext1, (0,)) == []


def test_cone_relations_exactness():
    for name in ("P112", "P1113"):
        ext = ext_of(CORPUS[name])
        for cone in ext.fan.max_cones:
            for rel in cone_relations(ext, cone):
                total = [sum(rel[i] * ext.generators[i][k] for i in range(ext.n))
                         for k in range(ext.d)]
                assert not any(total)


def test_degrees_of_extension_generators():
    ext = ext_of(P1113)
    assert [ext.degree(i) for i in range(ext.n)] == [1, 1, 1, 1, 1]
    e113 = ext_of(P113)
    ages = sorted(e113.degree(e113.m + k) for k in range(e113.e))
    assert all(0 < a <= 1 for a in ages)


def test_box_fractional_coordinates_in_unit_interval():
    for spec in (P112, P1113, P113):
        for b in box_elements(fan_of(spec)):
            assert all(0 <= c < 1 for c in b.fractional)
            rebuilt = tuple(
                sum(fan_of(spec).rays[i][k] * c for i, c in zip(b.min_cone, b.fractional))
                for k in range(spec["rank"])
            )
            assert rebuilt == b.vector


def _cone_coordinates_oracle(fan, cone, point):
    """The former StackyFan.cone_coordinates: one solve per call."""
    mat = [[Fraction(fan.rays[i][k]) for i in cone] for k in range(fan.rank)]
    return solve_unique(mat, point)


def test_cone_coordinates_match_the_solve_oracle():
    """On every face of every maximal cone: the box elements, the generators
    and the rays of every fan of the same rank (so the new rays of each
    resolution pair), each read off the face's coordinates or outside its span."""
    fans = list(differential_fans())
    for name, ext in fans:
        fan = ext.fan
        rays = {r for _, other in fans if other.fan.rank == fan.rank for r in other.fan.rays}
        points = [b.vector for b in ext.box] + list(ext.generators) + sorted(rays)
        faces = sorted({face for c in fan.max_cones for k in range(1, fan.rank + 1)
                        for face in combinations(c, k)})
        for cone, point in product(faces, points):
            try:
                expected = _cone_coordinates_oracle(fan, cone, point)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    fan.cone_coordinates(cone, point)
            else:
                assert fan.cone_coordinates(cone, point) == tuple(expected), (name, cone, point)


def _minimal_cone_oracle(fan, point):
    """The former StackyFan.minimal_cone."""
    if not any(point):
        return ()
    for c in fan.max_cones:
        coords = fan.cone_coordinates(c, point)
        if all(x >= 0 for x in coords):
            return tuple(i for i, x in zip(c, coords) if x > 0)
    raise FanError(f"point {list(point)} lies in no cone; fan is not complete")


def _fractional_coordinates_oracle(fan, point):
    """The former StackyFan.fractional_coordinates: a second solve on the
    minimal cone."""
    cone = _minimal_cone_oracle(fan, point)
    if not cone:
        return (), ()
    mat = [[Fraction(fan.rays[i][k]) for i in cone] for k in range(fan.rank)]
    return cone, solve_unique(mat, point)


def test_fractional_coordinates_match_two_solve_oracle():
    rng = random.Random(11)
    for name, ext in differential_fans(smooth_rays=(5, 6, 7, 8)):
        fan = ext.fan
        points = [b.vector for b in ext.box] + list(ext.generators)
        points += [tuple(rng.randint(-4, 4) for _ in range(fan.rank)) for _ in range(25)]
        for point in points:
            expected = _fractional_coordinates_oracle(fan, point)
            assert fan.fractional_coordinates(point) == expected, (name, point)
            assert minimal_cone(fan, point) == expected[0], (name, point)


def _wall_relations_oracle(fan: StackyFan) -> list[tuple[int, ...]]:
    """The former picard.wall_relations: its own wall map per call."""
    fan.ensure_valid()
    d, m = fan.rank, fan.n_rays
    if d == 1:
        return [tuple(1 for _ in range(m))]
    walls: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in fan.max_cones:
        for facet in combinations(c, d - 1):
            walls.setdefault(tuple(facet), []).append(c)
    rels = []
    for facet, owners in sorted(walls.items()):
        if len(owners) != 2:
            raise FanError(f"wall {list(facet)} is not shared by two cones")
        support = sorted(set(owners[0]) | set(owners[1]))
        mat = [[Fraction(fan.rays[i][k]) for i in support] for k in range(d)]
        sol = solve_general(mat, [0] * d)
        part, null = sol
        if len(null) != 1:
            raise FanError(f"wall {list(facet)} has a degenerate relation space")
        rel = clear_denominators(null[0])
        off = [i for i in support if i not in facet]
        sign_entries = [rel[support.index(i)] for i in off]
        if any(x < 0 for x in sign_entries):
            if all(x <= 0 for x in sign_entries):
                rel = tuple(-x for x in rel)
            else:
                raise FanError(f"wall {list(facet)}: off-wall coefficients of mixed sign")
        full = [0] * m
        for idx, val in zip(support, rel):
            full[idx] = val
        rels.append(tuple(full))
    return sorted(set(rels))


def _outcome(fn, fan):
    try:
        return tuple(fn(fan))
    except FanError as exc:
        return str(exc)


def test_wall_relations_match_replaced_routine():
    fans = [(name, ext.fan) for name, ext in differential_fans(smooth_rays=(5, 6, 7, 8))]
    # Valid, but the cone (a, c) overlaps (a, b) and (b, c): both routines
    # refuse its walls for off-wall coefficients of mixed sign.
    fans.append(("folded", StackyFan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2), (0, 2)])))
    for name, fan in fans:
        assert _outcome(lambda f: f.wall_relations, fan) == _outcome(_wall_relations_oracle, fan), name
    assert "mixed sign" in _outcome(lambda f: f.wall_relations, fans[-1][1])
