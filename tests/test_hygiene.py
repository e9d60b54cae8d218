"""Source hygiene: no module under ``src/landmetrics`` keeps a dead import.

No linter ships with the package's test dependencies, so this check
parses each module with ``ast`` instead.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "landmetrics"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that are never read and not in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_spares_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json\n"
              "from .series import TimeSeries, _fmt\n"
              "from .errors import ValidationError\n"
              "__all__ = ['ValidationError']\n"
              "def f(x: TimeSeries):\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["_fmt (line 4)", "json (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
