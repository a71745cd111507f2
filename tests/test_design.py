"""The CLI's curve builders hold no physics: they call the library.  The
package's ``__init__`` re-exports nothing that code reads.  And README's
Benchmark list names every committed benchmark result.

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

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "pnsqkd" / "cli.py"
FORBIDDEN = ("qmath", "photonics.qber_total", "math.sqrt", "numpy")


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
    # code imports the submodules it reads; the package binds eig_hermitian
    # only for the benchmark's tracing test
    probe = ("import sys, types, pnsqkd\n"
             "print(*[k for k, v in vars(pnsqkd).items() if not k.startswith('_')"
             " and not isinstance(v, types.ModuleType)])\n"
             "print(*[m for m in sys.modules if m.startswith('pnsqkd.')])\n"
             "print(pnsqkd.__version__)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    names, loaded, version = proc.stdout.splitlines()
    assert names.split() == ["eig_hermitian"]
    assert version
    unneeded = {f"pnsqkd.{m}" for m in ("attacks", "cloning", "keyrate", "validation", "cli")}
    assert unneeded.isdisjoint(loaded.split())


def test_readme_lists_every_benchmark_result():
    # one "* `BENCH_<n>.json`: ..." entry per file in the section's list
    section = ROOT.joinpath("README.md").read_text().partition("\n## Benchmark\n")[2]
    section = section.partition("\n## ")[0]
    entries = re.findall(r"^\* `(BENCH_\w+\.json)`", section, flags=re.MULTILINE)
    files = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert len(entries) == len(set(entries))
    assert sorted(entries) == files
