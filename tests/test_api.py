"""Static guards on the package source.

No unused module-level import or private helper, no one-return private
function called from one line only, no public function or class without
a caller in the package, no dataclass field that the package never
reads, a clean __all__, no raise of a bare ValueError, no module that
uses another module's private names, oracles that import no closed form,
and a CLI import that loads neither fractions nor decimal.

No linter runs on this tree, so a deletion that leaves an import, a
private helper or an __all__ entry behind is caught here instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointfam

SRC = Path(pointfam.__file__).parent


def _imported_names(tree: ast.Module):
    """(name bound, line) for every import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(pointfam.__all__)  # re-exports are the package's use of them
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_all_names_resolve_once():
    names = pointfam.__all__
    assert len(names) == len(set(names)), "duplicate names in pointfam.__all__"
    missing = [name for name in names if not hasattr(pointfam, name)]
    assert not missing, f"pointfam.__all__ names missing attributes: {missing}"


def _definitions(tree: ast.Module):
    """(name, first line, last line, is a function or class) of every function, class or constant at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno, isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _src_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _unused_in_src(keep) -> list[str]:
    """The module-level definitions that keep(name, is_def) selects and no src code uses, as "file: name (line)".

    A use inside the definition itself (recursion) does not count; neither
    does a test, nor an import, so a re-export from __init__ is no use.
    """
    trees = _src_trees()
    uses = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((file, node.lineno))
    return [
        f"{file}: {name} (line {first})"
        for file, tree in trees.items()
        for name, first, last, is_def in _definitions(tree)
        if keep(name, is_def)
        and all(where == file and first <= line <= last for where, line in uses.get(name, []))
    ]


def test_private_helpers_are_used_in_src():
    unused = _unused_in_src(lambda name, is_def: name.startswith("_") and not name.startswith("__"))
    assert not unused, f"private helpers no src code uses: {', '.join(unused)}"


def test_no_one_line_private_function_with_one_call_site():
    # A private function that only returns an expression, called from one line, reads better written out there.
    trees = _src_trees()
    sites = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                sites.setdefault(name, set()).add((file, node.lineno))
    flagged = [
        f"{file}: {node.name} (line {node.lineno})"
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and len(body := node.body[1:] if ast.get_docstring(node) is not None else node.body) == 1
        and isinstance(body[0], ast.Return) and len(sites.get(node.name, ())) == 1
    ]
    assert not flagged, f"one-return private functions with one call site: {', '.join(flagged)}"


# Called by acceptance criterion 3 (the two levels of one interaction are orthogonal), not by a command.
_PUBLIC_WITHOUT_A_CALLER = {"orthogonality_sum"}


def test_public_functions_and_classes_have_a_caller_in_src():
    # A public name needs a caller in a command, a suite or another module; a test alone is not one.
    unused = _unused_in_src(lambda name, is_def: is_def and not name.startswith("_")
                            and name not in _PUBLIC_WITHOUT_A_CALLER)
    assert not unused, f"public functions and classes no src code uses: {', '.join(unused)}"


# Written out whole through dataclasses.asdict, so each field reaches the output without being read by name.
_WRITTEN_WHOLE = {"ResidualReport", "InteractionParams"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for node in cls.decorator_list:
        node = node.func if isinstance(node, ast.Call) else node
        if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == "dataclass":
            return True
    return False


def test_dataclass_fields_are_read_in_src():
    # A stored field that only tests read is computed and kept for nothing; a read inside the class body is no use.
    trees = _src_trees()
    reads = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((file, node.lineno))
    unread = [
        f"{file}: {cls.name}.{field.target.id} (line {field.lineno})"
        for file, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) and cls.name not in _WRITTEN_WHOLE
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and all(where == file and cls.lineno <= line <= cls.end_lineno
                for where, line in reads.get(field.target.id, []))
    ]
    assert not unread, f"dataclass fields no src code reads: {', '.join(unread)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_untyped_value_errors(path):
    # Every refusal is a PointFamError subclass, so the CLI reports it in one line with exit 1.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None]
    lines = [node.lineno for node in raised if isinstance(node, ast.Name) and node.id == "ValueError"]
    assert not lines, f"{path.name} raises ValueError at lines {lines}; raise a PointFamError subclass"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_uses_another_modules_private_names():
    # A module's _private names are its own to change; a name another module needs is made public.
    uses = []
    for file, tree in _src_trees().items():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "pointfam")]
        modules = {alias.asname or alias.name for node in imports if not node.module or node.module == "pointfam"
                   for alias in node.names}  # from . import one_body
        uses += [f"{file}: {node.module}.{alias.name} (line {node.lineno})"
                 for node in imports for alias in node.names if _is_private(alias.name)]
        uses += [f"{file}: {node.value.id}.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and _is_private(node.attr)]
    assert not uses, f"private names used from another module: {', '.join(uses)}"


def test_oracles_import_no_closed_form():
    # verify.py checks the closed forms, so it may share only parameters and errors with them.
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pointfam"):
            path = (node.module or "").removeprefix("pointfam").lstrip(".")
            modules |= {path.split(".")[0]} if path else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.partition(".")[2] or "pointfam" for alias in node.names
                        if alias.name.split(".")[0] == "pointfam"}
    assert modules <= {"core", "errors"}, f"verify.py imports pointfam modules {sorted(modules - {'core', 'errors'})}"


def test_cli_import_loads_no_fractions_or_decimal():
    # The float writer's tables are built at import with int arithmetic; either module would add to every start-up.
    code = "import sys, pointfam.cli; print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
