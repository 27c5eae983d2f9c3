"""Every name a module of src/screwplan imports is used in that module.

Two kinds of import are exempt: ``from __future__`` imports, and the
names perfbench's tracer rebinds in a module (``BINDINGS`` in
perfbench/spans.py), which a module may import only so that they can be
rebound.  The package's ``__init__`` uses what its ``__all__`` names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "screwplan"


def _assigned(tree, target):
    """The literal value assigned to a top-level name, or ()."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target
                for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def rebound_names():
    """module -> the names the tracer rebinds in it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    out = {}
    for _, module, name in _assigned(tree, "BINDINGS"):
        out.setdefault(module, set()).add(name)
    return out


def unused_imports(path, exempt):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_assigned(tree, "__all__"))
    return sorted(imported - used - exempt)


def test_every_import_is_used():
    rebound = rebound_names()
    assert rebound, "no BINDINGS read from perfbench/spans.py"
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        module = ("screwplan" if path.stem == "__init__"
                  else f"screwplan.{path.stem}")
        names = unused_imports(path, rebound.get(module, set()))
        if names:
            unused[path.name] = names
    assert unused == {}
