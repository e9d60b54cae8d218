"""Source hygiene: no module under ``src/landmetrics`` keeps a dead import,
a public function, class, method or property that no code outside the
tests calls, or a dataclass field that nothing reads, and only ``series``
writes files.  The package imports exactly the third-party packages that
``pyproject.toml`` declares, a CLI run never loads scipy, and ``hpi`` and
``summarize`` load neither ``numpy.random`` nor ``hashlib``.

No linter ships with the package's test dependencies, so this check
parses each module with ``ast`` instead.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "landmetrics"
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


def _sources(tops=("src", "tests", "scripts")) -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text()
            for top in tops for p in sorted((ROOT / top).rglob("*.py"))}


#: the code whose references keep a public name alive: a name that only
#: tests call is dead
CALLERS = ("src", "scripts", "perfbench")


def _without(text: str, node) -> str:
    """``text`` less the lines of ``node``'s definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    lines = text.splitlines()
    return "\n".join(lines[:first - 1] + lines[node.end_lineno:])


def dead_public_names(sources: dict[str, str], package) -> list[str]:
    """Public top-level functions and classes of the ``package`` paths
    whose name appears in no text of ``sources`` (path -> source) outside
    their own definition, decorators and body included."""
    dead = []
    for path in sorted(package):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(_without(text, node) if other == path else text)
                       for other, text in sources.items()):
                dead.append(f"{path}: {node.name}")
    return dead


def test_dead_name_detector_flags_names_used_only_at_their_definition():
    module = ("import functools\n"
              "@functools.cache\n"
              "def helper():\n"
              "    return 1\n"
              "def entry():\n"
              "    return helper()\n"
              "def lonely(n):\n"
              "    \"\"\"lonely recurses into lonely.\"\"\"\n"
              "    return lonely(n - 1) if n else 0\n"
              "class Orphan:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n")
    sources = {"pkg/mod.py": module, "tests/test_mod.py": "from pkg.mod import entry\n"}
    assert dead_public_names(sources, {"pkg/mod.py"}) == [
        "pkg/mod.py: lonely", "pkg/mod.py: Orphan"]


def test_package_has_no_dead_public_names():
    package = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert dead_public_names(_sources(CALLERS), package) == []


def dead_public_methods(sources: dict[str, str], package) -> list[str]:
    """Public methods and properties of the top-level classes of the
    ``package`` paths with no ``.name`` reference in any text of
    ``sources`` outside their own definition."""
    dead = []
    for path in sorted(package):
        for cls in ast.parse(sources[path]).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("_")):
                    continue
                attribute = re.compile(rf"\.{re.escape(node.name)}\b")
                if not any(attribute.search(_without(text, node) if other == path else text)
                           for other, text in sources.items()):
                    dead.append(f"{path}: {cls.name}.{node.name}")
    return dead


def test_dead_method_detector_needs_an_attribute_reference():
    module = ("class Fit:\n"
              "    @property\n"
              "    def n_obs(self):\n"
              "        return 3\n"
              "    def coefficient(self, label):\n"
              "        return self.coefficient(label)\n"
              "    def table(self):\n"
              "        return self.n_obs\n"
              "    def _private(self):\n"
              "        pass\n"
              "def render(fit):\n"
              "    return fit.table()\n"
              "def unused(fit):\n"
              "    return coefficient\n")
    sources = {"pkg/mod.py": module, "tests/test_mod.py": "from pkg.mod import render\n"}
    assert dead_public_methods(sources, {"pkg/mod.py"}) == ["pkg/mod.py: Fit.coefficient"]


def test_package_has_no_dead_public_methods():
    package = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert dead_public_methods(_sources(CALLERS), package) == []


def _reads(source: str) -> set[str]:
    """Attribute names that ``source`` reads: by ``.name`` or as the
    constant name of a ``getattr`` call."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def dead_fields(sources: dict[str, str], package) -> list[str]:
    """Fields of the top-level dataclasses of the ``package`` paths that
    no text of ``sources`` reads."""
    read = set().union(*map(_reads, sources.values()))
    dead = []
    for path in sorted(package):
        for cls in ast.parse(sources[path]).body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0].endswith("dataclass")
                    for d in cls.decorator_list)):
                continue
            dead += [f"{path}: {cls.name}.{node.target.id}" for node in cls.body
                     if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    return dead


def test_dead_field_detector_needs_a_read():
    module = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Fit:\n"
              "    n_obs: int\n"
              "    label: str\n"
              "    rss: float\n"
              "    unused: float\n"
              "    def table(self):\n"
              "        return self.n_obs\n"
              "class Plain:\n"
              "    width: int\n"
              "def make(rss):\n"
              "    return Fit(n_obs=1, label='a', rss=rss, unused=0.0)\n")
    sources = {"pkg/mod.py": module,
               "tests/test_mod.py": "def check(fit):\n    return getattr(fit, 'label')\n"}
    assert dead_fields(sources, {"pkg/mod.py"}) == ["pkg/mod.py: Fit.rss",
                                                    "pkg/mod.py: Fit.unused"]


def test_package_has_no_dead_dataclass_fields():
    package = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert dead_fields(_sources(), package) == []


def file_writes(source: str) -> list[str]:
    """Calls that write a file: ``open`` with a mode that is not plainly a
    read mode, ``csv.writer`` and ``json.dump``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and set(m.value) <= set("rbt")
                       for m in modes):
                found.append(f"open (line {node.lineno})")
        elif name in ("csv.writer", "json.dump"):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_write_detector_flags_writes_and_spares_reads():
    source = ("import csv, json\n"
              "open(p)\n"
              "open(p, 'rb')\n"
              "open(p, newline='')\n"
              "open(p, 'w', newline='')\n"
              "open(p, mode='a')\n"
              "open(p, 'r+')\n"
              "open(p, m)\n"
              "csv.reader(fh)\n"
              "csv.writer(fh)\n"
              "json.dumps(x)\n"
              "json.dump(x, fh)\n")
    assert file_writes(source) == [
        "open (line 5)", "open (line 6)", "open (line 7)", "open (line 8)",
        "csv.writer (line 10)", "json.dump (line 12)"]


def test_only_series_writes_files():
    writes = {p.name: file_writes(p.read_text()) for p in MODULES}
    assert writes.pop("series.py")
    assert {name: calls for name, calls in writes.items() if calls} == {}


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the packages that ``source`` imports, anywhere in
    it, other than the standard library and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "__future__"}


def test_import_detector_skips_stdlib_and_relative_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy.linalg as la\n"
              "from .series import TimeSeries\n"
              "from collections import abc\n"
              "def f():\n"
              "    from scipy.special import betainc\n")
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_runtime_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # distribution names equal import names for every dependency so far
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in MODULES))
    assert imported == declared


def _modules_after(commands, out_dir) -> set[str]:
    """The modules loaded in a fresh interpreter after it imports
    ``landmetrics.cli`` and runs each command on the demo config."""
    demo = ROOT / "fixtures" / "demo" / "run.cfg"
    code = ("import sys\n"
            "import landmetrics.cli as cli\n"
            f"for command in {list(commands)!r}:\n"
            f"    assert cli.main([command, '--config', {str(demo)!r},"
            f" '--out-dir', {str(out_dir)!r}]) == 0\n"
            "print(sorted(sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout))


def test_cli_run_never_imports_scipy(tmp_path):
    modules = _modules_after(["granger"], tmp_path)
    assert sorted(m for m in modules if m.partition(".")[0] == "scipy") == []


def test_hpi_and_summarize_load_neither_numpy_random_nor_hashlib(tmp_path):
    modules = _modules_after(["hpi", "summarize"], tmp_path)
    assert "numpy.random" not in modules     # synthkit.stream loads it on the first draw
    assert "hashlib" not in modules          # only the pipeline report hashes its config


def test_bubble_never_imports_numpy_ma(tmp_path):
    # np.quantile calls np.unique, whose first call imports numpy.ma
    assert "numpy.ma" not in _modules_after(["bubble"], tmp_path)
