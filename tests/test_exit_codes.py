"""Exit codes of the package's errors, checked on its syntax trees.

Every exception class defined in the package is caught by an `except` clause
of `cli.main` that returns an exit code (`USER_ERRORS` and `UsageError` exit
1, the resource-limit tuple exits 3), so a new error class cannot escape as a
traceback.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbimirror"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exception_classes(trees) -> set[str]:
    """Classes defined in the package that derive, directly or through each
    other, from a builtin exception."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found = {name for name in dir(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    grown = True
    while grown:
        new = {name for name, bs in bases.items() if bs & found} - found
        found |= new
        grown = bool(new)
    return found & set(bases)


def _exit_codes_of_main(cli) -> dict[str, int]:
    """Exception name -> the exit code the `except` clause of `main` that
    names it returns; a module-level tuple it names (`USER_ERRORS`) is
    expanded to its members."""
    tuples = {target.id: node.value for node in cli.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and isinstance(node.value, ast.Tuple)}
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    codes = {}
    for handler in ast.walk(main):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        returned = [node.value.value for node in handler.body
                    if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)]
        if not returned:
            continue
        names = [node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)]
        for name in names:
            members = tuples.get(name)
            for member in ast.walk(members) if members is not None else ():
                if isinstance(member, ast.Name):
                    codes[member.id] = returned[0]
            codes[name] = returned[0]
    return codes


def test_every_package_error_has_an_exit_code():
    trees = _trees()
    errors = _exception_classes(trees)
    # the detector sees the package's errors, so the check is not vacuous
    assert {"LinAlgError", "ResourceLimitError", "UsageError", "DocumentError"} <= errors
    codes = _exit_codes_of_main(trees["cli"])
    assert sorted(name for name in errors if codes.get(name) not in (1, 3)) == []
    assert codes["UsageError"] == codes["FanError"] == 1
    assert codes["ResourceLimitError"] == 3
