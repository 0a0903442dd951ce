"""Every name that a module of the package imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must occur as a name somewhere in the module, or
be listed in the module's ``__all__`` (the package's re-exports)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finsemi"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from x import a, b as c, d\n__all__ = ['d']\nprint(a, re.I)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
