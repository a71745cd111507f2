"""The CLI's curve builders hold no physics: they call the library.  The
package's ``__init__`` re-exports nothing that code reads, and the commands
that compute with ``math`` alone start without NumPy.  Committed code
imports only the standard library and the packages that pyproject.toml
declares.  And README's Benchmark list names every committed benchmark
result.

Parses ``src/pnsqkd/cli.py`` with ``ast`` and resolves every dotted
reference through the module's imports, so ``np.clip`` under
``import numpy as np`` reads as ``numpy.clip``.  Information measures,
error rates and square roots belong in the library modules, where the tests
of those modules see them; array work, NumPy included, belongs there too.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "pnsqkd" / "cli.py"
FORBIDDEN = ("qmath", "information", "photonics.qber_total", "math.sqrt", "numpy")


def _qualified_references(tree):
    """Yield the full dotted name of every import and reference in the tree;
    a module of the package is named without the package prefix."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                aliases[local] = alias.name if alias.asname else local
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level or source.startswith("pnsqkd"):
                source = source.removeprefix("pnsqkd").lstrip(".")
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{source}.{alias.name}".lstrip(".")
                yield aliases[alias.asname or alias.name]
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            yield ".".join([aliases[node.id]] + parts[::-1])


def _forbidden(name):
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


def test_cli_computes_no_formula():
    tree = ast.parse(CLI.read_text(), str(CLI))
    assert sorted({n for n in _qualified_references(tree) if _forbidden(n)}) == []


def test_the_check_sees_each_spelling():
    source = ("import math\nimport numpy as np\nfrom . import photonics, qmath\n"
              "from .qmath import binary_information as h\nfrom numpy import linspace\n"
              "x = math.sqrt(2) + np.clip(1, 0, 2) + h(photonics.qber_total(m, 1, 2))")
    found = {n for n in _qualified_references(ast.parse(source)) if _forbidden(n)}
    assert found == {"qmath", "qmath.binary_information", "math.sqrt", "numpy", "numpy.clip",
                     "numpy.linspace", "photonics.qber_total"}


def test_importing_the_package_binds_and_loads_only_what_it_needs():
    # code imports the submodules it reads; the package resolves
    # eig_hermitian on first access, for the benchmark's tracing test only
    probe = ("import sys, types, pnsqkd\n"
             "print(*[k for k, v in vars(pnsqkd).items() if not k.startswith('_')"
             " and not isinstance(v, types.ModuleType)])\n"
             "print(*[m for m in sys.modules if m.startswith('pnsqkd.')"
             " or m.partition('.')[0] == 'numpy'])\n"
             "print(pnsqkd.__version__)\n"
             "print(pnsqkd.eig_hermitian is pnsqkd.qmath.eig_hermitian)")
    names, loaded, version, same = _python("-c", probe).splitlines()
    assert names.split() == []
    assert loaded.split() == []
    assert version
    assert same == "True"


# a fresh interpreter imports the package from src/
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _python(*args):
    """stdout of a fresh interpreter run with ``args``."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_ENV,
                          timeout=60, check=True).stdout


_SCALAR_COMMANDS = [line.split() for line in (ROOT / "tests" / "numpy_free_commands.txt")
                    .read_text().splitlines() if line.strip() and not line.startswith("#")]
# a short run of each command that loads NumPy: dcrit through
# usd_optimal_pok's eigensolve, ieclon23 and report through the QR of
# sifted_points, validate through its anchors
_NUMPY_COMMANDS = (["curve", "ieclon23", "--gamma", "0.2:0.4:0.2"],
                   ["curve", "dcrit", "--nb", "2:3"], ["report", "geneva-lausanne"],
                   ["validate"])


def test_the_scalar_commands_start_without_numpy():
    # one cold process runs them in turn and lists, after each, the first
    # numpy module loaded and dataclasses and inspect if loaded (inspect,
    # which both of the others import, brings about 11 ms of modules)
    probe = ("import contextlib, io, sys\nfrom pnsqkd import cli\n"
             f"for argv in {_SCALAR_COMMANDS!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             "    print(code, *[m for m in sys.modules if m.partition('.')[0] == 'numpy'][:1],\n"
             "          *[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert _python("-c", probe).splitlines() == ["0"] * len(_SCALAR_COMMANDS)


def test_each_numpy_command_runs_in_a_fresh_process():
    # the tier-1 process has every module loaded, so only a fresh one shows
    # a module that a command reads without importing it
    procs = [subprocess.Popen([sys.executable, "-m", "pnsqkd.cli", *argv], env=_ENV,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for argv in _NUMPY_COMMANDS]
    failed = []
    for argv, proc in zip(_NUMPY_COMMANDS, procs):
        _, err = proc.communicate(timeout=60)
        if proc.returncode:
            failed.append((argv, proc.returncode, err))
    assert failed == []


def test_readme_lists_every_benchmark_result():
    # one "* `BENCH_<n>.json`: ..." entry per file in the section's list
    section = ROOT.joinpath("README.md").read_text().partition("\n## Benchmark\n")[2]
    section = section.partition("\n## ")[0]
    entries = re.findall(r"^\* `(BENCH_\w+\.json)`", section, flags=re.MULTILINE)
    files = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert len(entries) == len(set(entries))
    assert sorted(entries) == files


# pyproject.toml declares numpy for the package and pytest and hypothesis
# for its test extra, which is all that CI installs
_SRC_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "pnsqkd"}
_TEST_IMPORTS = _SRC_IMPORTS | {"pytest", "hypothesis", "perfbench"} | {
    path.stem for path in (ROOT / "tests").glob("*.py")}
_ALLOWED_IMPORTS = {"src": _SRC_IMPORTS, "tests": _TEST_IMPORTS, "perfbench": _TEST_IMPORTS}


def _imported_packages(source):
    """The top-level name of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("directory", _ALLOWED_IMPORTS)
def test_committed_code_imports_only_declared_packages(directory):
    undeclared = {(path.relative_to(ROOT).as_posix(), name)
                  for path in (ROOT / directory).rglob("*.py")
                  for name in _imported_packages(path.read_text())
                  if name not in _ALLOWED_IMPORTS[directory]}
    assert sorted(undeclared) == []


def test_the_import_check_sees_each_spelling():
    source = ("import mpmath\nimport numpy.linalg as la, os.path\nfrom sympy.abc import x\n"
              "from . import qmath\nfrom .photonics import transmission\n"
              "def f():\n    import scipy.special\n")
    assert sorted(_imported_packages(source)) == ["mpmath", "numpy", "os", "scipy", "sympy"]
