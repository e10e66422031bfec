"""Lint: every name a `harrop` module imports is read somewhere in it, every
module-level private function or class is used somewhere in the package, and
outside `formulas.py` only `analysis.py` imports `canonical_key` or
`normalize_clause`, no handler catches `Exception`, `BaseException` or
everything, and no function of the term kernel, the parser or the formula
views calls itself.

For imports, `__init__.py` is skipped because its imports are the package's
re-exports, and `from __future__` imports are compiler directives, not names.
A private definition counts as used when its name is read, as a name, an
attribute or an imported name, outside its own body: a function that only
calls itself is dead code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "harrop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"imported but never read: {', '.join(unused)}"


# how a clause is keyed and shaped is read through the analysis' clause table
CLAUSE_TABLE_ONLY = {"canonical_key", "normalize_clause"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("formulas.py", "analysis.py")],
    ids=lambda p: p.name)
def test_clause_keys_and_normal_forms_come_from_the_analysis(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & CLAUSE_TABLE_ONLY, sorted(imported & CLAUSE_TABLE_ONLY)


def _names_read(node: ast.AST) -> list[str]:
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.extend(alias.name for alias in n.names)
    return out


def test_no_unused_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for name in _names_read(tree):
            reads[name] = reads.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                own = _names_read(node).count(node.name)
                if reads.get(node.name, 0) <= own:
                    unused.append(f"{module}: {node.name} (line {node.lineno})")
    assert not unused, f"private and never used in the package: {', '.join(unused)}"


BROAD = {"Exception", "BaseException"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    """Only the package's own errors are caught as "expected": a handler for
    `Exception`, `BaseException` or everything would turn a defect into an
    outcome."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    broad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or isinstance(t, ast.Name) and t.id in BROAD for t in types):
                broad.append(f"line {node.lineno}")
    assert not broad, f"broad exception handlers: {', '.join(broad)}"


# functions allowed to call themselves, as (module, enclosing function, name):
# the formula printer's `go` still recurses once per nesting level
RECURSIVE_ALLOWED = {("formulas.py", "printer", "go")}


def _functions(node: ast.AST, outer: str = ""):
    """Every function under node, nested ones and methods included, with the
    name of the function it is nested in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield outer, child
            yield from _functions(child, child.name)
        else:
            yield from _functions(child, outer)


def _calls_itself(fn: ast.FunctionDef) -> bool:
    """fn calls its own name, or `self.<its name>` when it is a method."""
    return any(isinstance(c, ast.Call) and (
                   isinstance(c.func, ast.Name) and c.func.id == fn.name
                   or isinstance(c.func, ast.Attribute) and c.func.attr == fn.name
                   and isinstance(c.func.value, ast.Name) and c.func.value.id == "self")
               for c in ast.walk(fn))


def test_no_kernel_function_calls_itself():
    """Every term walk in the kernel, the parser and elaborator, and the
    formula grammar views run on explicit stacks, so nesting depth is not
    bounded by the recursion limit: no function in these modules, nested ones
    and methods included, calls itself by name."""
    recursive = []
    for module in ("terms.py", "parser.py", "formulas.py"):
        path = SRC / module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        recursive += [f"{module}: {fn.name} (line {fn.lineno})" for outer, fn in _functions(tree)
                      if (module, outer, fn.name) not in RECURSIVE_ALLOWED and _calls_itself(fn)]
    assert not recursive, f"recursive functions: {', '.join(recursive)}"
