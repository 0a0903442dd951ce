"""Every function of the package that takes ``limits`` passes them on.

No linter ships with the project, so this walks each module's syntax tree:
a function with a ``limits`` parameter that calls a package function which
also takes ``limits`` must hand them on, by name or by keyword.  A call that
drops them searches under the default limits, whatever the caller set."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finsemi"


def _takes_limits(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    args = node.args
    return any(a.arg == "limits" for a in args.posonlyargs + args.args + args.kwonlyargs)


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes_limits(call: ast.Call) -> bool:
    return (any(isinstance(a, ast.Name) and a.id == "limits" for a in call.args)
            or any(k.arg == "limits" for k in call.keywords))


def dropped_limits(sources: dict[str, str]) -> list[str]:
    """``module:line caller -> callee`` for each call, inside a function
    that takes ``limits``, of a function of ``sources`` that takes them
    too, without passing them on."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    takers = {node.name for tree in trees.values() for node in ast.walk(tree)
              if _takes_limits(node)}
    out = set()
    for name, tree in trees.items():
        for caller in filter(_takes_limits, ast.walk(tree)):
            for call in ast.walk(caller):
                if (isinstance(call, ast.Call) and _callee(call) in takers
                        and not _passes_limits(call)):
                    out.add(f"{name}:{call.lineno} {caller.name} -> {_callee(call)}")
    return sorted(out)


def test_the_walk_finds_a_dropped_limit():
    source = ("def search(m, limits=None):\n    return m\n"
              "def careful(m, limits):\n    return search(m, limits), search(m, limits=limits)\n"
              "def careless(m, *, limits):\n"
              "    def inner():\n        return lib.search(m)\n"
              "    return search(m, 3), inner(), print(m)\n"
              "def free(m):\n    return search(m)\n")
    assert dropped_limits({"x": source}) == ["x:7 careless -> search", "x:8 careless -> search"]


def test_no_function_drops_the_limits_it_was_given():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dropped_limits(sources) == []
