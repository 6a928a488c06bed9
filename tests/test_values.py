"""The package's frozen value classes (subclasses of `linalg.Frozen`).

Each class keeps what the frozen dataclass it replaced gave it: construction
by position and by keyword in field order, the defaults (with no dict shared
between instances), the `__post_init__` checks and normalisation, assignment
raising, value equality, hashing, and a `replace` that builds the new
instance like any other.
"""

from fractions import Fraction

import pytest

from corpus import F2, P112, P2, fan_of
from orbimirror.cohomology import GradedQuotientRing
from orbimirror.cones import RationalCone
from orbimirror.crepant import CrepantError, GlobalModuliFan, ResolutionPair
from orbimirror.fan import (
    BoxElement,
    ExtendedStackyFan,
    StackyFan,
    ValidationIssue,
    ValidationReport,
)
from orbimirror.ifunction import AnnihilationReport, LogSeries, MirrorMap
from orbimirror.linalg import Frozen, SNFDecomposition
from orbimirror.operators import LogDiffOp
from orbimirror.picard import ExtendedPicardData, MoriData

P1 = StackyFan(1, ((1,), (-1,)), ((0,), (1,)))
EXT = ExtendedStackyFan(P1, ())
THETA = ((0,), 0, (1,), (), 0)  # the key of theta_1 for r = 1, e = 0
SERIES_KEY = ((0,), (0,), 0, 0)
PICARD_FIELDS = ("ext", "pl_basis", "pic_theta_basis", "pic_basis", "r", "d_classes", "rho",
                 "kahler", "p_basis", "q_basis", "m_matrix", "n_matrix", "superpotential")
PICARD = ExtendedPicardData(EXT, ((1, 0),), ((1,),), ((1,),), 1, ((1,), (1,)), (2,),
                            RationalCone(1, ((1,),)), ((1,),), ((Fraction(1),),),
                            ((Fraction(1),), (Fraction(1),)), ((1,), (1,)), ())

# class, its fields in order, the values of one instance, its defaults, a
# change of one field, and whether hashing an instance works (the dataclass
# hash raised TypeError on a dict field; LogDiffOp hashes its own way)
CASES = [
    (SNFDecomposition, ("u", "s", "v"), (((1,),), ((2,),), ((1,),)), {},
     {"s": ((3,),)}, True),
    (ValidationIssue, ("kind", "detail"), ("ray-zero", "ray 1 is zero"), {},
     {"detail": "ray 2 is zero"}, True),
    (ValidationReport, ("issues",), ((ValidationIssue("ray-zero", "ray 1 is zero"),),), {},
     {"issues": ()}, True),
    (StackyFan, ("rank", "rays", "max_cones"), (1, ((1,), (-1,)), ((0,), (1,))), {},
     {"rays": ((1,), (-2,))}, True),
    (BoxElement, ("vector", "min_cone", "fractional", "age"),
     ((0, -1), (1, 2), (Fraction(1, 2), Fraction(1, 2)), Fraction(1)), {},
     {"age": Fraction(2)}, True),
    (ExtendedStackyFan, ("fan", "extra"), (P1, ()), {},
     {"fan": fan_of(P2)}, True),
    (GradedQuotientRing, ("var_names", "degrees", "order", "generators", "groebner",
                          "std_monomials", "finite"),
     (("x",), (Fraction(1),), None, {"x": 0}, (), ((0,), (1,)), True), {},
     {"finite": False}, False),
    (RationalCone, ("dim", "inequalities", "equalities"), (2, ((1, 0),), ((0, 1),)),
     {"inequalities": (), "equalities": ()}, {"equalities": ()}, True),
    (ExtendedPicardData, PICARD_FIELDS, tuple(PICARD.__dict__[f] for f in PICARD_FIELDS),
     {"r": 0, "d_classes": (), "rho": (), "kahler": None, "p_basis": None, "q_basis": None,
      "m_matrix": None, "n_matrix": None, "superpotential": None},
     {"p_basis": ((2,),)}, True),
    (MoriData, ("picard", "anticones_e"), (PICARD, ((0,), (1,))), {},
     {"anticones_e": ()}, True),
    (ResolutionPair, ("stacky", "resolution"), (fan_of(P112), fan_of(F2)), {},
     {"stacky": fan_of(F2)}, True),
    (GlobalModuliFan, ("p_basis", "q_basis", "shared_face", "separating_functional",
                       "transition"), (((1,),), ((1,),), ((1, 0),), (1, -1), ((1,),)), {},
     {"transition": ((-1,),)}, True),
    (LogDiffOp, ("r", "e", "nums", "den"), (1, 0, {THETA: 1}, 2),
     {"nums": {}, "den": 1}, {"den": 3}, True),
    (LogSeries, ("r", "e", "dim", "terms", "order"), (1, 0, 2, {SERIES_KEY: ((1, 0), 1)}, 3),
     {"terms": {}, "order": None}, {"order": 4}, False),
    (MirrorMap, ("log_linear", "analytic", "order"),
     (((Fraction(1), Fraction(0)),), {(1,): (Fraction(0), Fraction(2))}, 2), {},
     {"order": 3}, False),
    (AnnihilationReport, ("checked_order", "residual_terms", "ok"), (3, (), True), {},
     {"ok": False}, True),
]


def test_the_table_covers_every_value_class():
    assert set(Frozen.__subclasses__()) == {case[0] for case in CASES}


@pytest.mark.parametrize("cls, fields, values, defaults, change, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class(cls, fields, values, defaults, change, hashable):
    kwargs = dict(zip(fields, values))
    obj = cls(*values)
    assert tuple(getattr(obj, f) for f in fields) == values
    assert obj == cls(**kwargs) == cls(**dict(reversed(kwargs.items())))
    assert obj == cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    # a field given twice, an unknown or a missing field, one value too many
    for args, extra in [(values, {fields[0]: values[0]}), (values, {"no_such_field": 0}),
                        (values[:len(fields) - len(defaults) - 1], {}), (values + (0,), {})]:
        with pytest.raises(TypeError):
            cls(*args, **extra)
    required = values[:len(fields) - len(defaults)]
    fresh = [cls(*required), cls(*required)]
    for f, default in defaults.items():
        assert getattr(fresh[0], f) == default
        if isinstance(default, dict):
            assert getattr(fresh[0], f) is not getattr(fresh[1], f)
    for f, v in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(obj, f, v)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.no_such_field = 0
    assert tuple(getattr(obj, f) for f in fields) == values
    changed = cls(**{**kwargs, **change})
    assert obj != changed and not obj == changed
    assert obj != values and obj != object()
    assert obj.replace(**change) == changed and obj.replace() == obj
    if hashable:
        assert hash(obj) == hash(cls(**kwargs))
        assert len({obj, cls(*values), changed}) == 2
    else:
        with pytest.raises(TypeError):
            hash(obj)


def test_post_init_checks_and_normalisation():
    pair = ResolutionPair(fan_of(P112), fan_of(F2))
    with pytest.raises(CrepantError, match="mismatch at ray 3"):
        ResolutionPair(fan_of(P112), fan_of(P2))
    with pytest.raises(CrepantError, match="mismatch at ray 3"):
        pair.replace(resolution=fan_of(P2))
    with pytest.raises(CrepantError, match="different lattices"):
        ResolutionPair(P1, fan_of(F2))
    with pytest.raises(CrepantError, match="not smooth"):
        ResolutionPair(fan_of(P112), fan_of(P112))
    # StackyFan's own __init__ makes ints and sorts each cone
    assert StackyFan("2", [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [2, 0]]) == fan_of(P2)
    # LogSeries drops zero classes
    zero = ((0, 0), 1)
    assert LogSeries(1, 0, 2, {SERIES_KEY: zero}).terms == {}
    # LogDiffOp keeps int numerators over a positive denominator with gcd 1
    half = LogDiffOp(1, 0, {THETA: Fraction(1, 2), ((1,), 0, (0,), (), 0): 0})
    assert (half.nums, half.den) == ({THETA: 1}, 2)
    assert half == LogDiffOp(1, 0, {THETA: 3}, 6) == LogDiffOp(1, 0, nums={THETA: 1}, den=2)
    assert hash(half) == hash(LogDiffOp(1, 0, {THETA: 3}, 6))


def test_cached_property_is_kept_and_is_not_a_field():
    ext = ExtendedStackyFan(fan_of(P112), ())
    assert ext.generators == fan_of(P112).rays
    assert "generators" in vars(ext)
    assert ext == ExtendedStackyFan(fan_of(P112), ())
    assert hash(ext) == hash(ExtendedStackyFan(fan_of(P112), ()))
