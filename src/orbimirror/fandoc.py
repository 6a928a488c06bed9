"""JSON fan documents and deterministic reports.

All indices are 1-based on the wire; all rationals are "num/den" strings.
Reports are byte-identical for a fixed input and package version (timing is
null unless explicitly requested, so it never enters the determinism contract).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .fan import ExtendedStackyFan, StackyFan


class DocumentError(ValueError):
    def __init__(self, message, pointer="/"):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _expect(cond, message, pointer):
    if not cond:
        raise DocumentError(message, pointer)


def _is_int(x) -> bool:
    """An integer that is not a bool (JSON true/false parse as bools, which
    are ints to Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vector(value, length, pointer):
    """The integer list at `pointer` as a tuple; any length if `length` is None."""
    _expect(isinstance(value, list), "expected a list", pointer)
    if length is not None:
        _expect(len(value) == length, f"expected length {length}, got {len(value)}", pointer)
    for k, x in enumerate(value):
        _expect(_is_int(x), "expected an integer", f"{pointer}/{k}")
    return tuple(value)


def parse_fan(doc: dict):
    """(StackyFan, options) of a JSON fan document, its fields checked.

    The fan itself is validated on first use (`StackyFan.ensure_valid`).
    """
    _expect(isinstance(doc, dict), "expected an object", "/")
    _expect("rank" in doc, "missing field 'rank'", "/rank")
    rank = doc["rank"]
    _expect(_is_int(rank) and rank >= 1, "rank must be a positive integer", "/rank")
    _expect(isinstance(doc.get("rays"), list) and doc["rays"],
            "missing or empty field 'rays'", "/rays")
    rays = [
        _int_vector(r, rank, f"/rays/{i}") for i, r in enumerate(doc["rays"])
    ]
    _expect(isinstance(doc.get("max_cones"), list) and doc["max_cones"],
            "missing or empty field 'max_cones'", "/max_cones")
    cones = []
    for i, cone in enumerate(doc["max_cones"]):
        _expect(isinstance(cone, list), "expected a list", f"/max_cones/{i}")
        for k, idx in enumerate(cone):
            _expect(_is_int(idx) and 1 <= idx <= len(rays),
                    f"ray index out of range 1..{len(rays)}", f"/max_cones/{i}/{k}")
        cones.append(tuple(idx - 1 for idx in cone))
    known = {"rank", "rays", "max_cones", "extra_generators", "p_basis", "q_basis"}
    for key in doc:
        _expect(key in known, f"unknown field '{key}'", f"/{key}")
    options = {}
    if "extra_generators" in doc:
        _expect(isinstance(doc["extra_generators"], list), "expected a list", "/extra_generators")
        options["extra_generators"] = [
            _int_vector(v, rank, f"/extra_generators/{i}")
            for i, v in enumerate(doc["extra_generators"])
        ]
    for key in ("p_basis", "q_basis"):
        if key in doc:
            _expect(isinstance(doc[key], list), "expected a list", f"/{key}")
            options[key] = [_int_vector(v, None, f"/{key}/{i}")
                            for i, v in enumerate(doc[key])]
    return StackyFan(rank, rays, cones), options


def serialize_fan(ext: ExtendedStackyFan) -> dict:
    return {
        "rank": ext.fan.rank,
        "rays": [list(r) for r in ext.fan.rays],
        "max_cones": [[i + 1 for i in c] for c in ext.fan.max_cones],
        "extra_generators": [list(b.vector) for b in ext.extra],
    }


def to_jsonable(value):
    """Fractions become "num/den" strings; tuples become lists; keys become strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {_key_str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _key_str(key):
    if isinstance(key, Fraction):
        return f"{key.numerator}/{key.denominator}"
    if isinstance(key, (tuple, list)):
        return ",".join(str(x) for x in key)
    return str(key)


def input_digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def make_report(command: str, doc, results, certificates=None, timing=None) -> dict:
    return {
        "command": command,
        "input_digest": input_digest(doc),
        "results": to_jsonable(results),
        "certificates": to_jsonable(certificates or {}),
        "timing": timing,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
