"""Every function in the package has a caller, checked on its syntax trees.

A module-level function or a class method (dunders and overrides of a base
class outside the package excepted) must be referenced somewhere in `src/`
outside its own definition, or be named in the README's library-API
paragraph. Code that only the tests call belongs in `tests/`, next to the
tests that call it.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "orbimirror").glob("*.py"))


def _library_names() -> set:
    """Every identifier in backquotes in the README's library-API paragraph,
    the first paragraph after the Library section's example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    paragraph = section.split("```", 2)[2].strip().split("\n\n", 1)[0]
    return {name for quoted in re.findall(r"`([^`]+)`", paragraph)
            for name in re.findall(r"[A-Za-z_]\w*", quoted)}


def _definitions(tree):
    """(qualified name, node) of each module-level function and class method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _references(node) -> list:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _overrides(module, qualified) -> bool:
    """True for a method that overrides one of a base class outside the
    package, which that base class calls."""
    if "." not in qualified:
        return False
    cls_name, name = qualified.split(".")
    cls = vars(importlib.import_module(f"orbimirror.{module}"))[cls_name]
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_function_has_a_caller_or_is_library_api():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    everywhere = [name for tree in trees.values() for name in _references(tree)]
    api = _library_names()
    callerless = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name in api
                    or _overrides(module, qualified)):
                continue
            if everywhere.count(name) == _references(node).count(name):
                callerless.append(f"{module}.{qualified}")
    assert callerless == []
