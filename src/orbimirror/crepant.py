"""Crepancy and SL checks for a resolution pair, and the global moduli fan.

A ResolutionPair couples a stacky fan with a smooth complete refinement. The
combinatorial identification at the heart of the gluing is that the extended
generator sequence of X equals the ray sequence of Z, so both sides share one
relation lattice L and the two Kaehler charts live in the same Pic^e(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product

from .cones import RationalCone, common_face_witness, is_face
from .fan import ExtendedStackyFan, StackyFan, gen_elements
from .linalg import LinAlgError, det, inverse
from .picard import ExtendedPicardData, is_basis_of


class CrepantError(ValueError):
    pass


@dataclass(frozen=True)
class ResolutionPair:
    stacky: StackyFan
    resolution: StackyFan

    def __post_init__(self):
        self.stacky.ensure_valid()
        self.resolution.ensure_valid()
        if self.stacky.rank != self.resolution.rank:
            raise CrepantError("fans live in different lattices")
        for i, ray in enumerate(self.stacky.rays):
            if i >= self.resolution.n_rays or self.resolution.rays[i] != ray:
                raise CrepantError(
                    "resolution rays must start with the rays of the stacky fan "
                    f"(mismatch at ray {i + 1})"
                )
        for cone in self.resolution.max_cones:
            if abs(det(self.resolution.cone_matrix(cone))) != 1:
                raise CrepantError(
                    f"resolution cone {[i + 1 for i in cone]} is not smooth"
                )
        for cone in self.resolution.max_cones:
            rays = [self.resolution.rays[i] for i in cone]
            contained = any(
                all(all(x >= 0 for x in self.stacky.cone_coordinates(parent, ray))
                    for ray in rays)
                for parent in self.stacky.max_cones
            )
            if not contained:
                raise CrepantError(
                    f"resolution cone {[i + 1 for i in cone]} is not contained in a cone "
                    "of the stacky fan (not a refinement)"
                )

    @property
    def new_rays(self) -> tuple[tuple[int, ...], ...]:
        return self.resolution.rays[self.stacky.n_rays:]


def is_crepant(pair: ResolutionPair) -> tuple[bool, list[dict]]:
    """True iff every new ray has degree 1 in its minimal-cone coordinates.

    The witness lists each new ray with its discrepancy deg - 1 (0 = on the
    boundary of conv(a_1..a_m)).
    """
    witnesses = []
    for ray in pair.new_rays:
        cone, coords = pair.stacky.fractional_coordinates(ray)
        deg = sum(coords, Fraction(0))
        witnesses.append({
            "ray": ray,
            "min_cone": tuple(i + 1 for i in cone),
            "coordinates": tuple(coords),
            "degree": deg,
            "discrepancy": deg - 1,
        })
    return all(w["degree"] == 1 for w in witnesses), witnesses


def check_sl(fan: StackyFan) -> bool:
    """SL / Gorenstein condition: every box element has integral age."""
    return all(b.age.denominator == 1 for b in fan.box)


def check_gen_equals_new_rays(pair: ResolutionPair) -> tuple[bool, dict]:
    """Gen(Sigma_X) must coincide with the set of new rays of Sigma_Z."""
    gens = {b.vector for b in gen_elements(pair.stacky)}
    new = set(pair.new_rays)
    return gens == new, {
        "gen_only": sorted(gens - new),
        "rays_only": sorted(new - gens),
    }


def exceptional_not_in_kahler(pair: ResolutionPair,
                              data_z: ExtendedPicardData) -> tuple[bool, list[bool]]:
    """[D_i] for each new ray must lie outside the Kaehler cone of Z; `data_z`
    is the Picard data of Z, whose Gen is empty as Z is smooth."""
    verdicts = [not data_z.kahler.contains(data_z.d_classes[i])
                for i in range(pair.stacky.n_rays, pair.resolution.n_rays)]
    return all(verdicts), verdicts


def check_gluing_hypotheses(crepant: tuple[bool, list[dict]], sl: bool,
                            gen: tuple[bool, dict]) -> None:
    """Refuse a pair unless the verdicts of `is_crepant`, `check_sl` and
    `check_gen_equals_new_rays` all hold."""
    if not crepant[0]:
        raise CrepantError(f"pair is not crepant: {crepant[1]}")
    if not sl:
        raise CrepantError("stacky fan is not an SL orbifold")
    if not gen[0]:
        raise CrepantError(f"Gen(Sigma_X) differs from the new rays: {gen[1]}")


@dataclass(frozen=True)
class GlobalModuliFan:
    p_basis: tuple
    q_basis: tuple
    cone_x: RationalCone
    cone_z: RationalCone
    shared_face: tuple
    separating_functional: tuple
    transition: tuple  # q in terms of p, unimodular over Pic^e(X)

    def summary(self) -> dict:
        return {
            "p_basis": [list(p) for p in self.p_basis],
            "q_basis": [list(q) for q in self.q_basis],
            "shared_face_generators": [list(v) for v in self.shared_face],
            "separating_functional": list(self.separating_functional),
            "transition_matrix": [list(r) for r in self.transition],
        }


def build_global_fan(data_x: ExtendedPicardData, data_z: ExtendedPicardData,
                     q_override=None) -> GlobalModuliFan:
    """Charts C_X = Cone(p), C_Z = Cone(q) glued along a common face in Pic^e(X).

    `data_x` is the p-basis data of X extended by the new rays of Z, and
    `data_z` the Picard data of Z; the pair must pass `check_gluing_hypotheses`.
    q is searched among K_Z lattice points completing p_1..p_r to a Z-basis of
    Pic^e(X).
    """
    if data_z.ext.l_basis != data_x.ext.l_basis:
        raise CrepantError("X and Z do not share the relation lattice basis")
    kz = data_z.kahler
    r, e = data_x.r, data_x.e
    rank = r + e
    p_rows = [tuple(int(x) for x in row) for row in data_x.p_basis]
    for a in range(r):
        if not kz.contains(p_rows[a]):
            raise CrepantError(f"p_{a + 1} does not lie in K_Z (K_X not a face of K_Z?)")
    kx_v = RationalCone.from_generators(rank, data_x.kahler.extremal_rays())
    kz_v = RationalCone.from_generators(rank, kz.extremal_rays())
    if not is_face(kx_v, kz_v):
        raise CrepantError("K_X is not a face of K_Z")

    def valid_q(rows) -> bool:
        return all(kz.contains(q) for q in rows) and is_basis_of(rows, data_x.pic_basis)

    if q_override is not None:
        q_rows = [tuple(int(x) for x in row) for row in q_override]
        if len(q_rows) != rank or q_rows[:r] != p_rows[:r] or not valid_q(q_rows):
            raise CrepantError("supplied q-basis fails the two conditions")
    elif e == 0:
        q_rows = list(p_rows)
    else:
        q_rows = _complete_q_basis(p_rows, r, e, kz, valid_q)
    if q_rows is None:
        raise CrepantError(
            "no q-basis found by the bounded search; supply q_basis explicitly "
            f"(K_Z extremal rays: {[list(x) for x in kz_v.generators]})"
        )
    cone_x = RationalCone.from_generators(rank, p_rows)
    cone_z = RationalCone.from_generators(rank, q_rows)
    witness = common_face_witness(cone_x, cone_z)
    if witness is None:
        raise CrepantError("C_X and C_Z do not intersect in a common face")
    functional, shared = witness
    for gen in kx_v.generators:
        if not (cone_x.contains(gen) and cone_z.contains(gen)):
            raise CrepantError("K_X is not contained in the shared face region")
    # Row a of the transition matrix is q_a in the p-basis: q_a P^{-1}.
    try:
        p_inv = inverse(p_rows)
    except LinAlgError:
        raise CrepantError("transition matrix is not integral") from None
    transition = [tuple(sum(x * inv_row[a] for x, inv_row in zip(q, p_inv)) for a in range(rank))
                  for q in q_rows]
    if any(c.denominator != 1 for row in transition for c in row):
        raise CrepantError("transition matrix is not integral")
    transition = [tuple(int(c) for c in row) for row in transition]
    if det(transition) not in (1, -1):
        raise CrepantError("transition matrix is not unimodular")
    return GlobalModuliFan(
        p_basis=tuple(p_rows),
        q_basis=tuple(tuple(q) for q in q_rows),
        cone_x=cone_x,
        cone_z=cone_z,
        shared_face=tuple(shared),
        separating_functional=tuple(functional),
        transition=tuple(transition),
    )


def _complete_q_basis(p_rows, r, e, kz, valid_q, bound=3, cap=300000):
    """Complete p_1..p_r to a Z-basis of Pic^e(X) with all members in K_Z.

    Candidates are the K_Z lattice points with p-basis coordinates in
    [-bound, bound] (this sweeps the relevant Hilbert-basis points, which
    nonnegative combinations of the extremal rays can miss); a choice is a
    basis exactly when the coordinate block beyond r is unimodular, so the
    search runs over deduplicated quotient images in norm order.
    """
    rank = r + e
    by_quotient = {}
    for coords in product(range(-bound, bound + 1), repeat=rank):
        quot = coords[r:]
        if not any(quot):
            continue
        x = tuple(sum(c * p_rows[a][j] for a, c in enumerate(coords))
                  for j in range(rank))
        if not kz.contains(x):
            continue
        key = (sum(abs(c) for c in coords), x)
        cur = by_quotient.get(quot)
        if cur is None or key < cur[0]:
            by_quotient[quot] = (key, x)
    cands = sorted((key, quot, x) for quot, (key, x) in by_quotient.items())
    for subset in islice(combinations(cands, e), cap):
        if det([item[1] for item in subset]) in (1, -1):
            rows = list(p_rows[:r]) + [item[2] for item in subset]
            if valid_q(rows):
                return rows
    return None


def sequences_agree(ext_x: ExtendedStackyFan, resolution: StackyFan) -> bool:
    """The generator list of X extended by the new rays equals the ray list of
    Z as a sequence, so both quotient systems coincide."""
    return ext_x.generators == resolution.rays
