"""Stacky fans: validation, Box/Gen enumeration, anticones, cone relations.

Conventions: rays are primitive integer vectors a_1..a_m; maximal cones are
0-based index tuples internally (1-based only at the JSON boundary). The
extension set defaults to Gen(Sigma), keeping the generator list 𝒢 of size n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .linalg import (
    IntMatrix,
    hermite_row_basis,
    kernel_basis,
    smith_normal_form,
    solve_unique,
    unimodular_inverse,
)


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class StackyFan:
    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __init__(self, rank, rays, max_cones):
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in r) for r in rays))
        object.__setattr__(
            self, "max_cones", tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        )

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone) -> IntMatrix:
        # columns are the ray generators of the cone
        return IntMatrix([[self.rays[i][k] for i in cone] for k in range(self.rank)])

    def validate(self) -> ValidationReport:
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
            if self.cone_matrix(c).det() == 0:
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
        walls: dict[tuple[int, ...], list[int]] = {}
        for ci, c in enumerate(self.max_cones):
            for facet in combinations(c, d - 1):
                walls.setdefault(tuple(facet), []).append(ci)
        adj = {i: set() for i in range(len(self.max_cones))}
        for facet, owners in sorted(walls.items()):
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
        report = self.validate()
        if not report.ok:
            raise FanError("; ".join(f"{i.kind}: {i.detail}" for i in report.issues))

    # -- geometry ----------------------------------------------------------

    def cone_coordinates(self, cone, point):
        """Exact coordinates of `point` in the ray basis of a maximal cone."""
        mat = [[Fraction(self.rays[i][k]) for i in cone] for k in range(self.rank)]
        return solve_unique(mat, point)

    def minimal_cone(self, point) -> tuple[int, ...]:
        """Index set of the unique minimal cone containing `point`."""
        if not any(point):
            return ()
        for c in self.max_cones:
            coords = self.cone_coordinates(c, point)
            if all(x >= 0 for x in coords):
                return tuple(i for i, x in zip(c, coords) if x > 0)
        raise FanError(f"point {list(point)} lies in no cone; fan is not complete")

    def fractional_coordinates(self, point):
        """(minimal cone, coordinates) with the coordinates aligned to the cone."""
        cone = self.minimal_cone(point)
        if not cone:
            return (), ()
        mat = [[Fraction(self.rays[i][k]) for i in cone] for k in range(self.rank)]
        return cone, solve_unique(mat, point)


@dataclass(frozen=True)
class BoxElement:
    vector: tuple[int, ...]
    min_cone: tuple[int, ...]
    fractional: tuple[Fraction, ...]
    age: Fraction

    @property
    def is_zero(self) -> bool:
        return not any(self.vector)


def box_elements(fan: StackyFan) -> list[BoxElement]:
    """Complete, deduplicated Box(Sigma), lexicographically sorted.

    Enumerates the half-open parallelepiped of every maximal cone through the
    quotient group Z^d / M_sigma Z^d (representatives via SNF).
    """
    fan.ensure_valid()
    d = fan.rank
    found: dict[tuple[int, ...], BoxElement] = {}
    for cone in fan.max_cones:
        mat = fan.cone_matrix(cone)
        snf = smith_normal_form(mat)
        uinv = unimodular_inverse(snf.u)
        diag = snf.diagonal()
        reps = [()]
        for s in diag:
            reps = [r + (c,) for r in reps for c in range(s)]
        for rep in reps:
            x = tuple(sum(uinv[k, j] * rep[j] for j in range(d)) for k in range(d))
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


def gen_elements(fan: StackyFan, box=None) -> list[BoxElement]:
    """Gen(Sigma): box elements irreducible in the semigroup of their minimal
    cone. `box` is Box(Sigma) when the caller already has it."""
    box = box_elements(fan) if box is None else box
    nonzero = [b for b in box if not b.is_zero]
    gens = []
    for b in nonzero:
        ambient = _max_cone_containing(fan, b.min_cone)
        reducible = False
        for x in nonzero:
            if x.vector == b.vector or not set(x.min_cone) <= set(b.min_cone):
                continue
            y = tuple(p - q for p, q in zip(b.vector, x.vector))
            if not any(y):
                continue
            # y must again lie in sigma(b): nonnegative there, zero off it.
            coords = fan.cone_coordinates(ambient, y)
            in_min_cone = all(
                c >= 0 and (c == 0 or i in b.min_cone)
                for i, c in zip(ambient, coords)
            )
            if in_min_cone:
                reducible = True
                break
        if not reducible:
            gens.append(b)
    return gens


def _max_cone_containing(fan: StackyFan, face) -> tuple[int, ...]:
    for c in fan.max_cones:
        if set(face) <= set(c):
            return c
    raise FanError(f"no maximal cone contains face {_one(face)}")


def _one(indices) -> list[int]:
    return [i + 1 for i in indices]


@dataclass(frozen=True)
class ExtendedStackyFan:
    fan: StackyFan
    extra: tuple[BoxElement, ...]
    box: tuple[BoxElement, ...] = field(repr=False)

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
    def a_matrix(self) -> IntMatrix:
        """d x n matrix of the total map a: Z^n -> N."""
        gens = self.generators
        return IntMatrix([[g[k] for g in gens] for k in range(self.d)])

    @cached_property
    def _kernel(self) -> tuple[tuple[int, ...], ...]:
        return tuple(kernel_basis(self.a_matrix))

    @property
    def l_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of L = ker(a), computed once per instance (a plain property
        over a cached one, so that perfbench/spans.py can wrap it)."""
        return self._kernel

    @property
    def l_rank(self) -> int:
        return self.n - self.d

    def degree(self, i: int) -> Fraction:
        """deg(a_i): 1 on rays, the age on extension generators."""
        if i < self.m:
            return Fraction(1)
        return self.extra[i - self.m].age

    def generators_in_cone(self, cone) -> tuple[int, ...]:
        """Indices (into a_1..a_n) of all generators lying in the given maximal cone."""
        out = [i for i in cone]
        for j, b in enumerate(self.extra):
            if set(b.min_cone) <= set(cone):
                out.append(self.m + j)
        return tuple(sorted(out))

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
    box = tuple(box_elements(fan))
    gens = gen_elements(fan, box)
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
    ext = ExtendedStackyFan(fan, tuple(chosen), box)
    snf = smith_normal_form(ext.a_matrix)
    diag = snf.diagonal()
    if snf.rank() < fan.rank or any(x != 1 for x in diag):
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
    out = sorted(tuple(sorted(set(range(m)) - set(f))) for f in faces)
    out = sorted(set(out))
    ext_ids = tuple(range(m, m + ext.e))
    out_e = [tuple(sorted(set(i) | set(ext_ids))) for i in out]
    return out, sorted(set(out_e))


def generalized_primitive_collections(ext: ExtendedStackyFan) -> list[tuple[int, ...]]:
    """Minimal subsets of 𝒢 not contained in any single cone of the fan."""
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


def cone_relations(ext: ExtendedStackyFan, cone) -> list[tuple[int, ...]]:
    """HNF Z-basis of the relations among the generators lying in `cone`, in Z^n."""
    support = ext.generators_in_cone(cone)
    gens = ext.generators
    mat = IntMatrix([[gens[i][k] for i in support] for k in range(ext.d)])
    local = kernel_basis(mat)
    lifted = []
    for rel in local:
        full = [0] * ext.n
        for idx, val in zip(support, rel):
            full[idx] = val
        lifted.append(tuple(full))
    return hermite_row_basis(lifted) if lifted else []
