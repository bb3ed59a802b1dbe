"""Source hygiene: every name a module imports is referenced in it, every
module-level ``_name`` function or assignment is read somewhere in the
package, every entry of the series kernels is called, only ``series.py``
reads the storage of a ``TailSeries``, every import sits at module
level in an acyclic module graph, importing the CLI loads neither
``dataclasses`` nor ``inspect``, each rule the base-field classes
share is written once, in ``_Element`` or ``_BaseField``, and element
operators coerce their operands in one place, ``_coerced``.

``__init__.py`` is skipped by the import check, since it imports names
only to re-export them.  The source checks parse with ``ast`` alone,
so no linter is needed.
"""

import ast
import os
import pathlib
import subprocess
import sys

from padicdyn.localfield import (CappedField, ExactElement, ExactField,
                                 ExtensionField, PadicElement, _Element)

SRC = pathlib.Path(__file__).parent.parent / "src" / "padicdyn"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "ExtElement"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))


def unused_imports(path):
    tree = ast.parse(path.read_text())
    return sorted(set(_imported(tree)) - set(_referenced(tree)))


def test_no_unused_imports():
    unused = {path.name: unused_imports(path)
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


# the flat form of a series, its backend kernel and its element cache
SERIES_STORAGE = {"_flat", "_kernel", "_coeffs"}


def storage_reads(path):
    tree = ast.parse(path.read_text())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in SERIES_STORAGE})


def test_only_series_reads_series_storage():
    reads = {path.name: storage_reads(path)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "series.py"}
    assert {name: attrs for name, attrs in reads.items() if attrs} == {}


def _defined(stmt):
    """The names a module-level statement defines: a function's, or the
    plain names an assignment binds."""
    if isinstance(stmt, ast.FunctionDef):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            yield from (node.id for node in ast.walk(target)
                        if isinstance(node, ast.Name))


def _private_names(tree):
    """Module-level ``_name`` functions and assignments, dunders left
    out."""
    return {name for stmt in tree.body for name in _defined(stmt)
            if name.startswith("_") and not name.startswith("__")}


def _outside_references(tree):
    """Names and attributes read in a module, a function's reads of its
    own name (recursion) and the names assignments bind left out."""
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                yield name


def test_every_private_function_is_referenced():
    """A module-level ``_name`` function or constant that nothing in the
    package reads is a helper left behind by a deletion."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values()
            for name in _outside_references(tree)}
    unread = {module: sorted(_private_names(tree) - read)
              for module, tree in trees.items()}
    assert {module: names for module, names in unread.items() if names} == {}


def test_every_kernel_entry_is_called():
    """Every ``_Kernel`` field is read as an attribute in ``series.py``
    outside the ``_CAPPED`` and ``_EXACT`` tables that fill it: an entry
    nothing calls is a helper left behind by a deletion."""
    tree = ast.parse((SRC / "series.py").read_text())
    fields, read = set(), set()
    for stmt in tree.body:
        names = set(_defined(stmt))
        if "_Kernel" in names:
            fields = set(stmt.value.args[1].value.split())
        elif not names & {"_CAPPED", "_EXACT"}:
            read |= {node.attr for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute)}
    assert fields and sorted(fields - read) == []


def _function_local_imports(tree):
    """Line numbers of imports inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def test_no_function_local_imports():
    """A function-local import hides a module dependency, and with it a
    cycle, from the module header."""
    local = {path.name: sorted(set(_function_local_imports(
                 ast.parse(path.read_text()))))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in local.items() if lines} == {}


def _package_imports(tree, modules):
    """The package modules a module imports: ``from . import m``,
    ``from .m import ...`` and ``import padicdyn.m``; the package itself
    is ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                yield node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield alias.name if alias.name in modules else "__init__"
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "padicdyn":
            parts = node.module.split(".")
            yield parts[1] if len(parts) > 1 else "__init__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "padicdyn":
                    yield parts[1] if len(parts) > 1 else "__init__"


def test_module_import_graph_is_acyclic():
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {path.stem: set(_package_imports(ast.parse(path.read_text()),
                                             modules))
             for path in sorted(SRC.glob("*.py"))}
    assert all(deps <= modules for deps in graph.values()), graph
    # Kahn's algorithm: a module is placed once everything it imports is
    placed, left = [], dict(graph)
    while left:
        ready = sorted(m for m, deps in left.items() if deps <= set(placed))
        assert ready, f"import cycle among {sorted(left)}"
        placed += ready
        for m in ready:
            del left[m]
    assert placed.index("errors") < placed.index("localfield") \
        < placed.index("series") < placed.index("boettcher")


def test_cli_import_loads_no_dataclasses():
    """A CLI job is one process, mostly interpreter start and import:
    records are named tuples, so ``import padicdyn.cli`` in a fresh
    interpreter loads neither ``dataclasses`` nor the ``inspect`` it
    pulls in."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, padicdyn.cli; print(sorted({'dataclasses', "
             "'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_base_field_rules_are_written_once():
    """Coercion, ``-`` and ``**`` come from ``_Element``, and ``embed``,
    ``zero`` and ``one`` from ``_BaseField``: no base-field class defines
    its own.  Read from each class's own ``__dict__``, where
    ``perfbench/tracing.py`` finds the operators it counts; that is why
    ``PadicElement.__rtruediv__``, the one exception, binds
    ``_Element``'s."""
    own = {cls: set(vars(cls)) for cls in (ExactElement, PadicElement,
                                           ExactField, CappedField)}
    assert not {"_coerce"} & (own[ExactElement] | own[PadicElement])
    assert not {"__sub__", "__pow__"} & own[ExactElement]
    assert not {"embed", "zero", "one"} & (own[ExactField]
                                           | own[CappedField])
    derived = {name for name, f in vars(_Element).items() if callable(f)}
    assert derived & own[PadicElement] == {"__rtruediv__"}
    assert vars(PadicElement)["__rtruediv__"] is vars(_Element)["__rtruediv__"]


def _coerce_calls(tree):
    """The module-level definitions in which ``self._coerce(...)`` is
    called."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr == "_coerce" \
                    and getattr(func.value, "id", None) == "self":
                yield stmt.name


def test_operators_coerce_in_one_place():
    """Every element operator brings its operand into the field through
    the ``_coerced`` decorator, the one caller of ``self._coerce``;
    ``ExtElement`` coerces through ``ExtensionField.embed``, which has
    no ``from_rational`` beside it."""
    calls = {path.name: sorted(_coerce_calls(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: defs for name, defs in calls.items() if defs} == {
        "localfield.py": ["_coerced"]}
    assert "from_rational" not in vars(ExtensionField)
