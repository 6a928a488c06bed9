"""Every function in the package has a caller, checked on its syntax trees.

A module-level function or a class method (dunders and overrides of a base
class outside the package excepted) must be referenced somewhere in `src/`
outside its own definition, or be named in the README's library-API
paragraph. A parameter or local variable that shares its name is not a
reference. Code that only the tests call belongs in `tests/`, next to the
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope):
    """The nodes of a scope outside the scopes nested in it (a nested scope's
    own node included, for the name a nested def binds)."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _locals(scope) -> tuple:
    """(the names a function, lambda or comprehension binds as a parameter
    or local, the names it declares global)."""
    names, declared = set(), set()
    args = getattr(scope, "args", None)
    if args is not None:
        names.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
        names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared, declared


def _references(node, bound=frozenset()) -> list:
    """Every Name id and Attribute attr under node, less the Names that a
    function (or lambda, or comprehension) around them binds as a parameter
    or local: those are not references to a module-level function."""
    if isinstance(node, _SCOPES):
        names, declared = _locals(node)
        bound = (bound - declared) | names
    out = []
    if isinstance(node, ast.Name):
        if node.id not in bound:
            out.append(node.id)
    elif isinstance(node, ast.Attribute):
        out.append(node.attr)
    for child in ast.iter_child_nodes(node):
        out += _references(child, bound)
    return out


def _overrides(module, qualified) -> bool:
    """True for a method that overrides one of a base class outside the
    package, which that base class calls."""
    if "." not in qualified:
        return False
    cls_name, name = qualified.split(".")
    cls = vars(importlib.import_module(f"orbimirror.{module}"))[cls_name]
    return any(name in vars(base) for base in cls.__mro__[1:])


def _callerless(trees, api) -> list:
    """The functions and methods of the modules' syntax trees that nothing
    outside their own definition references, and that api does not name."""
    everywhere = [name for tree in trees.values() for name in _references(tree)]
    callerless = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name in api
                    or _overrides(module, qualified)):
                continue
            if everywhere.count(name) == _references(node).count(name):
                callerless.append(f"{module}.{qualified}")
    return callerless


def test_every_function_has_a_caller_or_is_library_api():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _callerless(trees, _library_names()) == []


SHADOWED = """
def inverse(m):
    return m


def helper(x):
    return x


def in_basis_cone(x, inverse):
    return inverse(x) and all(inverse for inverse in x)


def user(rows):
    inverse = helper(rows)
    return in_basis_cone(rows, inverse), (lambda inverse: inverse)(rows)
"""


def test_a_parameter_or_local_of_a_functions_name_is_not_a_caller():
    """`inverse` is read only as a parameter, a local, a comprehension
    variable and a lambda's parameter, so it has no caller; `helper` has one."""
    assert _callerless({"synthetic": ast.parse(SHADOWED)}, {"user"}) == ["synthetic.inverse"]
