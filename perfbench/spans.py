"""Spans around calls into each orbimirror module's public functions.

The tracer wraps functions from outside the package: every module attribute
bound to a target function is rebound to a wrapper, so callers that imported
the function by name (``from .linalg import smith_normal_form``, and ``cli``
importing nearly everything) go through the wrapper too.  Methods and
properties are replaced on their class.  ``Tracer.remove`` restores every
binding it changed.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same job, or -1.  Spans stay in memory until the job
ends.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Layer (module) -> wrapped public functions, as named in the metrics.
TARGETS = {
    "fan": ("extend", "box_elements", "gen_elements",
            "generalized_primitive_collections", "ExtendedStackyFan.l_basis"),
    "linalg": ("smith_normal_form", "hermite_row_basis", "solve_unique"),
    "cones": ("lp_feasible", "RationalCone.extremal_rays", "RationalCone.contains"),
    "picard": ("extended_pl_and_pic", "rho_membership", "choose_basis_p",
               "box_coset_map"),
    "cohomology": ("presentation", "groebner_basis", "normal_form",
                   "GradedQuotientRing.nf", "GradedQuotientRing.class_of",
                   "GradedQuotientRing.mul"),
    "operators": ("operator_families", "box_x", "factorization_residual",
                  "residue_algebra", "symbol_fiber_dimension", "sector_class",
                  "LogDiffOp.__mul__"),
    "ifunction": ("i_function", "tilde_i", "mirror_map", "annihilation_check",
                  "apply_operator", "series_mul"),
    "crepant": ("is_crepant", "build_global_fan"),
    "fandoc": ("parse_fan", "dump_report"),
}

# Functions whose argument fingerprints are counted: each measures a result
# that one command recomputes.
DISTINCT = frozenset({
    "fan.ExtendedStackyFan.l_basis", "linalg.smith_normal_form",
    "cohomology.presentation", "operators.operator_families", "operators.box_x",
    "operators.factorization_residual",
})

ROOT = "cli.main"
FINGERPRINT = "trace.fingerprint"
PACKAGE = "orbimirror"


def function_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's
    intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Fingerprints:
    """Structural fingerprints of call arguments, memoized per object.

    Immutable values are fingerprinted once per job by identity; the memo
    keeps each object alive, so an identity is never reused within the job.
    """

    def __init__(self):
        self._memo: dict[int, tuple[object, object]] = {}

    def of(self, value):
        if value is None or isinstance(value, (bool, int, str, Fraction)):
            return value
        if isinstance(value, list):
            return ("list", tuple(self.of(v) for v in value))
        if isinstance(value, dict):
            return ("dict", tuple(sorted(((repr(k), self.of(v)) for k, v in value.items()),
                                         key=lambda kv: kv[0])))
        hit = self._memo.get(id(value))
        if hit is not None:
            return hit[1]
        if isinstance(value, tuple):
            fp = tuple(self.of(v) for v in value)
        elif hasattr(value, "__dict__"):
            fp = (type(value).__qualname__,
                  tuple((k, self.of(v)) for k, v in sorted(vars(value).items())))
        else:
            fp = (type(value).__qualname__, repr(value))
        self._memo[id(value)] = (value, fp)
        return fp


class Tracer:
    """Installs span-recording wrappers on the loaded orbimirror modules."""

    def __init__(self):
        self.spans: list = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._fingerprints = Fingerprints()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = self.distinct.get(name)
        fingerprint = self._fingerprints.of

        def wrapper(*args, **kwargs):
            if seen is not None:
                start = clock()
                seen.add(fingerprint((args, tuple(sorted(kwargs.items())))))
                spans.append((FINGERPRINT, start, clock(), stack[-1] if stack else -1))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for name in names:
                full = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        replacement = property(self.wrap(full, original.fget))
                    else:
                        replacement = self.wrap(full, original)
                    self._rebind(cls, attr, replacement)
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(full, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per wrapped function: calls, summed self time and, where counted,
        distinct argument fingerprints."""
        stats = {name: {"calls": 0, "self_s": 0.0} for name in function_names() + [ROOT]}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = stats.get(span[0])
            if entry is not None:
                entry["calls"] += 1
                entry["self_s"] += own
        for name, seen in self.distinct.items():
            stats[name]["distinct"] = len(seen)
        return stats
