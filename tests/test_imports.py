"""Every name a module of src/screwplan imports is used in that module,
and every name it defines is read by the program.

Two kinds of import are exempt: ``from __future__`` imports, and the
names perfbench's tracer rebinds in a module (``BINDINGS`` in
perfbench/spans.py), which a module may import only so that they can be
rebound.  The package's ``__init__`` uses what its ``__all__`` names.

A module-level function, class or constant counts as read when a name
or attribute by its name is read in gallery/ or perfbench/ code, or in
src/screwplan outside its own definition by code that is itself read;
a name the tracer rebinds counts too.  A method, property or
staticmethod of a class counts as read when that code reads an
attribute by its name; dunders are exempt.  An import or an ``__all__``
entry alone does not: code that only the tests reach belongs in tests/.
"""

import ast
import copy
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


# "module.py::name" and "module.py::Class.member" of definitions that may
# go unread; keep it empty
UNREAD_ALLOWED = frozenset()


def _reads(tree):
    """The names read in tree, as a Name or as an attribute, and the
    names read as an attribute alone."""
    loads = [n for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))
             and isinstance(n.ctx, ast.Load)]
    attrs = {n.attr for n in loads if isinstance(n, ast.Attribute)}
    return attrs | {n.id for n in loads if isinstance(n, ast.Name)}, attrs


def _defines(stmt):
    """The names a top-level def, class or assignment defines, dunders
    left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return {n for n in names if not n.startswith("__")}


def _units(module, stmt):
    """(label, names, member, reads) of a top-level statement and, when
    it is a class, of each method, property or staticmethod it defines
    with a name that is not a dunder.  A member is its own unit, which
    only an attribute read reaches; the class keeps the rest of its
    body."""
    members = [s for s in stmt.body if isinstance(s, ast.FunctionDef)
               and not s.name.startswith("__")] \
        if isinstance(stmt, ast.ClassDef) else []
    rest = stmt
    if members:
        rest = copy.copy(stmt)
        rest.body = [s for s in stmt.body if s not in members]
    yield module, _defines(stmt), False, _reads(rest)
    for m in members:
        yield f"{module}::{stmt.name}.{m.name}", {m.name}, True, _reads(m)


def unread_definitions():
    """Sorted "module.py::name" of the definitions in src/screwplan that
    no program code reaches, and "module.py::Class.member" of the class
    members.  The walk starts from the top-level statements that define
    no name (imports, format registrations, the command line's main
    guard) and the definitions gallery/, perfbench/ or the tracer read;
    a definition is reached when a reached statement reads its name,
    and a member when one reads it as an attribute.  Names are matched
    by spelling alone."""
    outside = [_reads(ast.parse(path.read_text()))
               for folder in ("gallery", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    names = set().union(*(n for n, _ in outside),
                        *rebound_names().values())
    attrs = set().union(*(a for _, a in outside))
    units = [unit for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body
             for unit in _units(path.name, stmt)]

    def read_by(unit, names, attrs):
        _, defined, member, _ = unit
        return defined & (attrs if member else names)

    todo = [i for i, unit in enumerate(units)
            if not unit[1] or read_by(unit, names, attrs)]
    reached = set(todo)
    while todo:
        read = units[todo.pop()][3]
        for i, unit in enumerate(units):
            if i not in reached and read_by(unit, *read):
                reached.add(i)
                todo.append(i)
    return sorted(label if member else f"{label}::{name}"
                  for i, (label, defined, member, _) in enumerate(units)
                  if i not in reached for name in defined)


def test_every_definition_is_read():
    unread = [n for n in unread_definitions() if n not in UNREAD_ALLOWED]
    assert unread == [], f"no program code reads {', '.join(unread)}"
