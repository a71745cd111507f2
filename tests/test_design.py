"""The CLI's curve builders hold no physics: they call the library.

Parses ``src/pnsqkd/cli.py`` with ``ast`` and resolves every dotted
reference through the module's imports, so ``np.clip`` under
``import numpy as np`` reads as ``numpy.clip``.  Information measures,
error rates, square roots and clipping belong in the library modules, where
the tests of those modules see them.
"""
import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "pnsqkd" / "cli.py"
FORBIDDEN = ("qmath", "photonics.qber_total", "math.sqrt", "numpy.clip")


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
              "from .qmath import binary_information as h\n"
              "x = math.sqrt(2) + np.clip(1, 0, 2) + h(photonics.qber_total(m, 1, 2))")
    found = {n for n in _qualified_references(ast.parse(source)) if _forbidden(n)}
    assert found == {"qmath", "qmath.binary_information", "math.sqrt", "numpy.clip",
                     "photonics.qber_total"}
