"""Every public definition of the package is reached by the program or by
the acceptance suite.

Parses ``src/pnsqkd/*.py`` with ``ast``, so names in docstrings and
comments do not count.  A public top-level function, class or constant of
a module other than ``__init__`` passes when code in some module of the
package other than ``__init__`` refers to it outside its own definition,
or when ``tests/test_acceptance.py`` refers to it.  A reference is a bare
name in a module that defines or imports it, or ``module.name`` where
``module`` is the defining module.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnsqkd"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _public_definitions(tree):
    """{name: top-level node} for public functions, classes and constants."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return {name: node for name, node in defs.items() if not name.startswith("_")}


def _bindings(tree):
    """Map each local name to the (module, name) it stands for: package
    modules imported by name, and names imported from package modules."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and not source.startswith("pnsqkd"):
            continue
        source = source.removeprefix("pnsqkd").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = (source, alias.name)
            else:
                modules[local] = alias.name
    return modules, names


def _references(tree, own_module):
    """Yield ((module, name), node) for every reference in the tree."""
    modules, names = _bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield names.get(node.id, (own_module, node.id)), node
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield (modules[node.value.id], node.attr), node


def _inside(node, definition):
    return any(child is node for child in ast.walk(definition))


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    trees.pop("__init__")
    definitions = {(module, name): node
                   for module, tree in trees.items()
                   for name, node in _public_definitions(tree).items()}
    used = set()
    for module, tree in trees.items():
        for key, node in _references(tree, module):
            if key in definitions and not _inside(node, definitions[key]):
                used.add(key)
    acceptance = ast.parse(ACCEPTANCE.read_text(), str(ACCEPTANCE))
    used.update(key for key, _ in _references(acceptance, None))
    return sorted(f"{module}.{name}" for module, name in set(definitions) - used)


def test_every_public_definition_is_reached():
    assert _unreferenced() == []
