"""The package holds no code that nothing in it uses."""

import ast
from pathlib import Path

import peprime

SRC = Path(peprime.__file__).resolve().parent

# names kept without a caller in the package, each for a reason outside it
UNREFERENCED_OK = {
    "priming_recipe": "perfbench/pipeline.py picks each workload's priming with it",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_used_in_the_package():
    modules = _modules()
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in modules.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    unused = [f"{mod}.{qual}" for mod, tree in modules.items()
              for qual, name in _definitions(tree)
              if name not in used and qual not in UNREFERENCED_OK]
    assert unused == []


def test_allowed_names_still_exist():
    defined = {qual for tree in _modules().values() for qual, _ in _definitions(tree)}
    assert set(UNREFERENCED_OK) <= defined


def test_package_binds_only_its_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    assert bound == {"__version__"}
    assert all(isinstance(node, ast.Assign)
               or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
               for node in tree.body), "only the docstring and assignments"
