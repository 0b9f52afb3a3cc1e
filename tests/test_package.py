"""The package exports only what its own code runs.

Every name in `deltagrad.__all__` must be used, as a name or an attribute,
by some module of the package or of the benchmark other than `__init__.py`.
A use inside the defining module counts (`laplace_noise` calls
`sample_laplace`, `_update` builds an `UpdateOutcome`); the definition
itself is a `def` or `class` statement and does not. A helper that only
tests call belongs in tests/oracles.py.
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
