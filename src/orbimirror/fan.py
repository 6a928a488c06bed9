"""Stacky fans: validation, walls, Box/Gen enumeration, anticones, cone relations.

Conventions: rays are primitive integer vectors a_1..a_m; maximal cones are
0-based index tuples internally (1-based only at the JSON boundary). The
extension set defaults to Gen(Sigma), keeping the generator list 𝒢 of size n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import le, mul

from .linalg import (
    Frozen,
    LinAlgError,
    Matrix,
    ResourceLimitError,
    SNFDecomposition,
    det,
    integer_inverse,
    null_vector,
    smith_normal_form,
    splitting_maps,
)


class FanError(ValueError):
    pass


BOX_CAP = 1_000  # coset representatives box_elements may build for one cone


class ValidationIssue(Frozen):
    kind: str
    detail: str


class ValidationReport(Frozen):
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> list[dict]:
        return [{"kind": i.kind, "detail": i.detail} for i in self.issues]


def _primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g == 1


class StackyFan(Frozen):
    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __init__(self, rank, rays, max_cones):
        super().__init__(int(rank), tuple(tuple(int(x) for x in r) for r in rays),
                         tuple(tuple(sorted(int(i) for i in c)) for c in max_cones))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone) -> Matrix:
        # columns are the ray generators of the cone
        return tuple(tuple(self.rays[i][k] for i in cone) for k in range(self.rank))

    @cached_property
    def validation(self) -> ValidationReport:
        """Issues of this fan, found once: the fan is frozen."""
        issues = []
        d = self.rank
        for i, r in enumerate(self.rays):
            if len(r) != d:
                issues.append(ValidationIssue("ray-dimension", f"ray {i + 1} has length {len(r)}"))
            elif not any(r):
                issues.append(ValidationIssue("ray-zero", f"ray {i + 1} is zero"))
            elif not _primitive(r):
                issues.append(ValidationIssue("ray-primitivity", f"ray {i + 1} = {list(r)} is not primitive"))
        if len(set(self.rays)) != len(self.rays):
            issues.append(ValidationIssue("ray-duplicate", "duplicate ray generators"))
        if issues:
            return ValidationReport(tuple(issues))
        for c in self.max_cones:
            if len(c) != d or len(set(c)) != d:
                issues.append(ValidationIssue("cone-size", f"cone {_one(c)} does not have {d} distinct rays"))
                continue
            if any(i < 0 or i >= self.n_rays for i in c):
                issues.append(ValidationIssue("cone-index", f"cone {_one(c)} has an out-of-range index"))
                continue
            if det(self.cone_matrix(c)) == 0:
                issues.append(ValidationIssue("cone-degenerate", f"cone {_one(c)} is not simplicial (zero determinant)"))
        if len(set(self.max_cones)) != len(self.max_cones):
            issues.append(ValidationIssue("cone-duplicate", "duplicate maximal cones"))
        if issues:
            return ValidationReport(tuple(issues))
        issues.extend(self._completeness_issues())
        return ValidationReport(tuple(issues))

    def _completeness_issues(self):
        # Wall-pairing certificate: every facet of a maximal cone is shared by
        # exactly one other maximal cone, and the adjacency graph is connected.
        issues = []
        d = self.rank
        if d == 1:
            signs = {1 if r[0] > 0 else -1 for r in self.rays}
            if len(self.max_cones) != 2 or signs != {1, -1}:
                issues.append(ValidationIssue("completeness", "a complete 1-d fan needs exactly the two opposite rays"))
            return issues
        adj = {i: set() for i in range(len(self.max_cones))}
        for facet, owners in self._walls.items():
            if len(owners) != 2:
                issues.append(ValidationIssue(
                    "completeness",
                    f"wall {_one(facet)} belongs to {len(owners)} maximal cone(s), expected 2",
                ))
            else:
                adj[owners[0]].add(owners[1])
                adj[owners[1]].add(owners[0])
        if not issues and self.max_cones:
            seen = {0}
            stack = [0]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if len(seen) != len(self.max_cones):
                issues.append(ValidationIssue("completeness", "wall-adjacency graph is disconnected"))
        return issues

    def ensure_valid(self):
        if not self.validation.ok:
            raise FanError("; ".join(f"{i.kind}: {i.detail}" for i in self.validation.issues))

    @cached_property
    def box(self) -> tuple[BoxElement, ...]:
        """Box(Sigma), enumerated once."""
        return tuple(box_elements(self))

    @cached_property
    def gen(self) -> tuple[BoxElement, ...]:
        """Gen(Sigma), found once."""
        return tuple(gen_elements(self))

    @cached_property
    def _walls(self) -> dict[tuple[int, ...], list[int]]:
        """Facet -> indices of the maximal cones containing it, sorted by facet."""
        walls: dict[tuple[int, ...], list[int]] = {}
        for ci, c in enumerate(self.max_cones):
            for facet in combinations(c, self.rank - 1):
                walls.setdefault(facet, []).append(ci)
        return dict(sorted(walls.items()))

    @cached_property
    def wall_relations(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer relation of the d+1 rays across each wall, sorted.

        Signs are normalized positive on the two off-wall rays; the pairing of a
        PL function with such a vector is >= 0 exactly when the function is convex
        across the wall. Entries are indexed by rays (length m).
        """
        self.ensure_valid()
        d, m = self.rank, self.n_rays
        if d == 1:
            return (tuple(1 for _ in range(m)),)
        rels = set()
        # ensure_valid has checked that each wall lies in exactly two simplicial
        # cones, so the d+1 rays around it have a one-dimensional relation
        # space, and both off-wall coefficients of its generator are nonzero.
        for facet, owners in self._walls.items():
            support = sorted(set(self.max_cones[owners[0]]) | set(self.max_cones[owners[1]]))
            rel = null_vector([[self.rays[i][k] for i in support] for k in range(d)])
            u, v = (x for i, x in zip(support, rel) if i not in facet)
            if u * v < 0:
                raise FanError(f"wall {list(facet)}: off-wall coefficients of mixed sign")
            full = [0] * m
            for idx, val in zip(support, rel):
                full[idx] = val if u > 0 else -val
            rels.add(tuple(full))
        return tuple(sorted(rels))

    # -- geometry ----------------------------------------------------------

    @cached_property
    def _inverses(self) -> dict[tuple[int, ...], tuple[Matrix, int]]:
        """Maximal cone -> (adj, den), made on first use: adj / den is the
        inverse of its ray matrix, with den = |det| > 0."""
        return {}

    def _inverse(self, tau) -> tuple[Matrix, int]:
        if tau not in self._inverses:
            adj, den = integer_inverse(self.cone_matrix(tau))
            self._inverses[tau] = (adj, den) if den > 0 else (
                tuple(tuple(-x for x in row) for row in adj), -den)
        return self._inverses[tau]

    def cone_numerators(self, cone, point) -> tuple[tuple[int, ...], int]:
        """(nums, den): `point`'s coordinates in the ray basis of `cone`, a
        face of a maximal cone tau, as int numerators over tau's den > 0, read
        off tau's inverse; LinAlgError when the point is outside the span of
        `cone` (a tau-coordinate off `cone` is not 0) or `cone` is not a face."""
        tau = cone if len(cone) == self.rank else next(
            (t for t in self.max_cones if set(cone) <= set(t)), cone)
        adj, den = self._inverse(tau)
        coords = dict(zip(tau, (sum(map(mul, row, point)) for row in adj)))
        if any(c for i, c in coords.items() if i not in cone):
            raise LinAlgError(f"point {list(point)} is outside the span of cone {_one(cone)}")
        return tuple(coords[i] for i in cone), den

    def cone_coordinates(self, cone, point):
        """The Fraction view of `cone_numerators`."""
        nums, den = self.cone_numerators(cone, point)
        return tuple(Fraction(x, den) for x in nums)

    def fractional_coordinates(self, point):
        """(minimal cone, coordinates) with the coordinates aligned to the cone.

        Read once, on the first maximal cone containing the point: its rays
        are independent, so the coordinates on the minimal cone are exactly
        the nonzero coordinates there, in the same order.
        """
        if not any(point):
            return (), ()
        for c in self.max_cones:
            nums, den = self.cone_numerators(c, point)
            if all(x >= 0 for x in nums):
                return (tuple(i for i, x in zip(c, nums) if x),
                        tuple(Fraction(x, den) for x in nums if x))
        raise FanError(f"point {list(point)} lies in no cone; fan is not complete")


class BoxElement(Frozen):
    vector: tuple[int, ...]
    min_cone: tuple[int, ...]
    fractional: tuple[Fraction, ...]
    age: Fraction

    @property
    def is_zero(self) -> bool:
        return not any(self.vector)


def box_elements(fan: StackyFan) -> list[BoxElement]:
    """Complete, deduplicated Box(Sigma), lexicographically sorted.

    On a maximal cone with inverse adj / den, Box(sigma) = N / N_sigma has
    den = |det| elements, and their coordinates are n / den for n in the
    subgroup of (Z/den)^d that adj's columns generate, found by closure. A
    cone with more than BOX_CAP elements raises ResourceLimitError.
    """
    fan.ensure_valid()
    d = fan.rank
    found: dict[tuple[int, ...], BoxElement] = {}
    for cone in fan.max_cones:
        adj, den = fan._inverse(cone)
        if den > BOX_CAP:
            raise ResourceLimitError(f"Box: cone {_one(cone)} has {den} "
                                     f"elements, more than {BOX_CAP}")
        zero = (0,) * d
        group, seen = [zero], {zero}
        for g in zip(*adj):
            base, x = group[:], tuple(y % den for y in g)
            while x not in seen:  # the cosets base + j g until j g lies in base
                coset = [tuple((a + b) % den for a, b in zip(h, x)) for h in base]
                group += coset
                seen.update(coset)
                x = tuple((a + b) % den for a, b in zip(x, g))
        rays = [fan.rays[i] for i in cone]
        for nums in group:
            v = tuple(sum(n * r[k] for n, r in zip(nums, rays)) // den for k in range(d))
            if v not in found:
                frac = tuple(Fraction(n, den) for n in nums if n)
                found[v] = BoxElement(v, tuple(i for i, n in zip(cone, nums) if n),
                                      frac, Fraction(sum(nums), den))
    return [found[v] for v in sorted(found)]


def gen_elements(fan: StackyFan) -> list[BoxElement]:
    """Gen(Sigma): box elements irreducible in the semigroup of their minimal
    cone. b - x lies in the simplicial sigma(b) exactly when sigma(x) is a
    face of sigma(b) and no coordinate of x exceeds b's. So b is compared
    only with the elements whose minimal cone is a face of sigma(b), smallest
    coordinate sum first, and coordinates are compared as int numerators
    over one common denominator. Every such x but b itself reduces b, since
    b - x is then a nonzero box element; on a proper face x may equal b's
    coordinates there (from rank 4 on, e.g. in P(1,1,2)^2)."""
    nonzero = [b for b in fan.box if not b.is_zero]
    den = lcm(*(f.denominator for b in nonzero for f in b.fractional))
    nums = {b.vector: [f.numerator * (den // f.denominator) for f in b.fractional]
            for b in nonzero}
    by_cone: dict[tuple[int, ...], list[list[int]]] = {}
    for b in sorted(nonzero, key=lambda b: sum(nums[b.vector])):
        by_cone.setdefault(b.min_cone, []).append(nums[b.vector])
    gens = []
    for b in nonzero:
        own = nums[b.vector]  # the list object held in by_cone too
        coords = dict(zip(b.min_cone, own))
        faces = [([coords[i] for i in face], xs) for face, xs in by_cone.items()
                 if coords.keys() >= set(face)]
        if not any(x is not own and all(map(le, x, bound)) for bound, xs in faces for x in xs):
            gens.append(b)
    return gens


def _one(indices) -> list[int]:
    return [i + 1 for i in indices]


class ExtendedStackyFan(Frozen):
    fan: StackyFan
    extra: tuple[BoxElement, ...]

    @property
    def box(self) -> tuple[BoxElement, ...]:
        return self.fan.box

    @property
    def d(self) -> int:
        return self.fan.rank

    @property
    def m(self) -> int:
        return self.fan.n_rays

    @property
    def e(self) -> int:
        return len(self.extra)

    @property
    def n(self) -> int:
        return self.m + self.e

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """a_1..a_n: the rays followed by the extension vectors."""
        return self.fan.rays + tuple(b.vector for b in self.extra)

    @cached_property
    def a_matrix(self) -> Matrix:
        """d x n matrix of the total map a: Z^n -> N."""
        return tuple(zip(*self.generators))

    @cached_property
    def snf(self) -> SNFDecomposition:
        """The SNF of the a-matrix: `extend`'s check, the L basis and the splitting."""
        return smith_normal_form(self.a_matrix)

    @cached_property
    def _kernel(self) -> Matrix:
        """The HNF basis of ker(a), reduced once per instance."""
        return tuple(self.snf.kernel())

    @property
    def l_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of L = ker(a), computed once per instance (a plain property
        over a cached one, so that perfbench/spans.py can wrap it)."""
        return self._kernel

    @property
    def l_rank(self) -> int:
        return self.n - self.d

    @cached_property
    def splitting(self) -> Matrix | None:
        """The splitting s: Z^n -> L of 0 -> L -> Z^n -> N -> 0 in `l_basis`
        coordinates (s l^(j) = e_j), computed once; None when L = 0. The
        L-coordinates of any v in L (x) Q are s v."""
        return splitting_maps(self.a_matrix, self.snf, self._kernel)[0]

    def degree(self, i: int) -> Fraction:
        """deg(a_i): 1 on rays, the age on extension generators."""
        if i < self.m:
            return Fraction(1)
        return self.extra[i - self.m].age

    def generators_in_cone(self, cone) -> tuple[int, ...]:
        """Indices (into a_1..a_n) of all generators lying in the given maximal cone."""
        return tuple(i for i in range(self.n) if self.generator_in_cone(i, cone))

    def generator_in_cone(self, i: int, cone) -> bool:
        if i < self.m:
            return i in cone
        return set(self.extra[i - self.m].min_cone) <= set(cone)


def extend(fan: StackyFan, extra_vectors=None) -> ExtendedStackyFan:
    """S-extended stacky fan; S defaults to Gen(Sigma).

    Raises FanError with the cokernel invariant factors when the extended map
    fails to be surjective.
    """
    fan.ensure_valid()
    gens = fan.gen
    if extra_vectors is None:
        chosen = gens
    else:
        gen_by_vec = {b.vector: b for b in gens}
        chosen = []
        for v in extra_vectors:
            v = tuple(int(x) for x in v)
            if v not in gen_by_vec:
                raise FanError(
                    f"extra generator {list(v)} is not a primitive Box element (Gen set: "
                    f"{[list(b.vector) for b in gens]})"
                )
            chosen.append(gen_by_vec[v])
        if len(set(b.vector for b in chosen)) != len(chosen):
            raise FanError("duplicate extra generators")
    ext = ExtendedStackyFan(fan, tuple(chosen))
    diag = ext.snf.diagonal()
    if ext.snf.rank() < fan.rank or any(x != 1 for x in diag):
        raise FanError(
            f"extended generator map is not surjective; invariant factors {list(diag)}"
        )
    return ext


def anticones(ext: ExtendedStackyFan) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(A, A^e): subsets whose ray-complement spans a cone, and their extensions."""
    fan = ext.fan
    m = fan.n_rays
    faces = {()}
    for c in fan.max_cones:
        for k in range(len(c) + 1):
            for f in combinations(c, k):
                faces.add(tuple(f))
    out = sorted({tuple(sorted(set(range(m)) - set(f))) for f in faces})
    ext_ids = tuple(range(m, m + ext.e))
    out_e = [tuple(sorted(set(i) | set(ext_ids))) for i in out]
    return out, sorted(set(out_e))


def generalized_primitive_collections(ext: ExtendedStackyFan) -> list[tuple[int, ...]]:
    """Minimal subsets of 𝒢 not contained in any single cone of the fan, by
    size, then lexicographically.

    These are the minimal non-faces of the simplicial complex on 𝒢, found
    level by level on bitmasks: a k-set is a candidate only when all its
    (k-1)-subsets are faces, so the search ends one level past the largest face.
    """
    cones = {sum(1 << i for i in ext.generators_in_cone(c)) for c in ext.fan.max_cones}

    def is_face(mask) -> bool:
        return any(mask & c == mask for c in cones)

    # Faces of the current level as (sorted index tuple, mask), in lex order;
    # extending each by a larger index keeps the next level in lex order.
    faces = [((i,), 1 << i) for i in range(ext.n) if is_face(1 << i)]
    collections = []
    while faces:
        masks = {mask for _, mask in faces}
        level = []
        for subset, mask in faces:
            for j in range(subset[-1] + 1, ext.n):
                cand = mask | 1 << j
                if not all((cand & ~(1 << i)) in masks for i in subset):
                    continue
                if is_face(cand):
                    level.append((subset + (j,), cand))
                else:
                    collections.append(subset + (j,))
        faces = level
    return collections

