"""The package exports only what its own code runs, and imports only what
it uses.

Every name in `deltagrad.__all__` must be used, as a name or an attribute,
by some module of the package or of the benchmark other than `__init__.py`.
A use inside the defining module counts (`laplace_noise` calls
`sample_laplace`, `_update` builds an `UpdateOutcome`); the definition
itself is a `def` or `class` statement and does not. A helper that only
tests call belongs in tests/oracles.py.

Every module-level import of a package module other than `__init__.py`
must be named by that module's code, unless its statement says
`noqa: F401` (a name kept for others to patch).
"""

import ast
from pathlib import Path

import pytest

import deltagrad

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for path in sorted((ROOT / "src" / "deltagrad").glob("*.py"))
           + sorted((ROOT / "dgbench").glob("*.py")) if path.name != "__init__.py"]


def _names_used(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


USED = set().union(*map(_names_used, MODULES))


@pytest.mark.parametrize("name", deltagrad.__all__)
def test_exported_name_is_used_by_the_package(name):
    assert name in USED, f"{name} is exported, but only tests use it"


def _unused_imports(path):
    """`line name` for each module-level import of `path` that its code
    never names, skipping `__future__` and statements marked `noqa: F401`."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in names:
                unused.append(f"{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", [path for path in MODULES if path.parent.name == "deltagrad"],
                         ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []
