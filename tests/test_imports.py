"""Lint: every name a `harrop` module imports is read somewhere in it, every
module-level private function or class is used somewhere in the package, and
outside `formulas.py` only `analysis.py` imports `canonical_key` or
`normalize_clause`, no handler catches `Exception`, `BaseException` or
everything, no function calls itself or sits on a cycle of calls, and
nothing is taken in that nothing reads: every parameter of a `def` is read
in its body (`self` and `cls` are exempt, and so are lambdas, whose
signature `map_leaves` fixes), every local name a `def` stores is read in
it (`_` is exempt), and every class field, annotated or named in
`__slots__`, is read as an attribute somewhere in the package or its tests.

The package re-exports nothing: importing `harrop` loads none of its
modules, and a `solve` process loads neither `dataclasses` nor `inspect`.
`from __future__` imports are compiler directives, not names.  A private
definition counts as used when its name is read, as a name, an attribute or
an imported name, outside its own body: a function that only calls itself
is dead code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "harrop"
TESTS = Path(__file__).parent
MODULES = sorted(SRC.glob("*.py"))


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


def test_importing_the_package_loads_none_of_its_modules():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, harrop; "
         "print(harrop.__file__); print(sorted(m for m in sys.modules if m.startswith('harrop.')))"],
        env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [str(SRC / "__init__.py"), "[]"]


def test_a_solve_process_loads_no_record_machinery():
    """After `import harrop.cli` and one `solve`, a fresh process holds
    neither `dataclasses` nor the `inspect` it imports: every record of the
    package is a plain slotted class."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, harrop.cli; "
         "code = harrop.cli.main(sys.argv[1:]); "
         "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)",
         "solve", str(SRC.parent.parent / "corpus" / "append.hh"),
         "append (cons 1 nil) (cons 2 nil) L", "--trace"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.startswith("Proved\n")
    assert out.stderr == "0 []\n"


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


def _own(node: ast.AST):
    """The nodes under node that are its own: a nested function or class is
    yielded but not entered."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))


def _call_graph(sources: dict[str, str]) -> dict[tuple[str, str], set[tuple[str, str]]]:
    """Every function of the given modules, nested ones and methods included,
    as (module, dotted path) -> the functions of these modules it may call.
    A function may call every function nested in it, and every function it
    names, called or handed on as a value (`map_leaves(t, leaf)`): a name `f`
    is the `f` of the innermost enclosing scope that defines one, else an `f`
    imported from one of the modules; `self.f` is the method `f` of the
    enclosing class."""
    graph: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        imported = {alias.asname or alias.name: (f"{node.module}.py", alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and f"{node.module}.py" in sources
                    for alias in node.names}
        # (node, its dotted path, the scopes around it, innermost first, each
        # mapping a name to the dotted path it defines, the enclosing class)
        todo = [(tree, "", [], "")]
        while todo:
            node, path, outer, cls = todo.pop()
            own = list(_own(node))
            defs = {n.name: f"{path}.{n.name}".lstrip(".") for n in own
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            # a class body's names are not in scope in its methods
            scopes = outer if isinstance(node, ast.ClassDef) else [defs] + outer
            if isinstance(node, ast.FunctionDef):
                callees = graph[module, path] = {(module, inner) for inner in defs.values()}
                for n in own:
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        target = next((s[n.id] for s in scopes if n.id in s), None)
                        if target is not None:
                            callees.add((module, target))
                        elif n.id in imported:
                            callees.add(imported[n.id])
                    elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                          and n.value.id == "self" and cls):
                        callees.add((module, f"{cls}.{n.attr}"))
            for n in own:
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                    inner = defs[n.name]
                    todo.append((n, inner, scopes, inner if isinstance(n, ast.ClassDef) else cls))
    return graph


def _call_cycles(graph) -> list[set[tuple[str, str]]]:
    """The functions on a call cycle, one set per strongly connected group."""
    reach = {}
    for start in graph:
        seen: set = set()
        todo = list(graph[start])
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(graph.get(v, ()))
        reach[start] = seen
    cycles: list[set] = []
    for v in graph:
        group = {u for u in reach[v] if v in reach.get(u, ())}
        if v in group and group not in cycles:
            cycles.append(group)
    return cycles


def test_no_kernel_function_calls_itself():
    """Every term walk in the kernel, the parser and elaborator, the formula
    grammar views and printer, the search engine, the analysis, the Abella
    emitter and the command line runs on explicit stacks, so nesting depth
    is not bounded by the recursion limit: no function in these modules,
    nested ones and methods included, calls itself or sits on a cycle of
    calls."""
    graph = _call_graph({m.name: m.read_text(encoding="utf-8") for m in MODULES})
    cycles = [sorted(c) for c in _call_cycles(graph)]
    assert not cycles, f"recursive functions: {cycles}"


def test_the_call_graph_sees_recursion():
    sources = {"parser.py": (
        "from .terms import shift as sh\n"
        "def a(): b()\n"
        "def b(): a()\n"
        "def c():\n"
        "    def go(): go()\n"
        "    return go\n"
        "def d():\n"
        "    def c(): pass\n"
        "    c()\n"
        "class K:\n"
        "    def m(self): return self.m()\n"
        "    def n(self): return n()\n"
        "def n(): return sh()\n"
        "def f():\n"
        "    def leaf(): return f()\n"
        "    return h(leaf)\n"
        "def g():\n"
        "    def unused(): return g()\n"
        "def h(fn): return fn()\n"
        "def p(): return h(q)\n"
        "def q(): return p()\n"
        "class L:\n"
        "    def m(self): return h(self.n)\n"
        "    def n(self): return self.m()\n"), "terms.py": "def shift(): n()\nfrom .parser import n\n"}
    assert sorted(sorted(c) for c in _call_cycles(_call_graph(sources))) == [
        [("parser.py", "K.m")],
        [("parser.py", "L.m"), ("parser.py", "L.n")],
        [("parser.py", "a"), ("parser.py", "b")],
        [("parser.py", "c.go")],
        [("parser.py", "f"), ("parser.py", "f.leaf")],
        [("parser.py", "g"), ("parser.py", "g.unused")],
        [("parser.py", "n"), ("terms.py", "shift")],
        [("parser.py", "p"), ("parser.py", "q")],
    ]


def _unread_parameters(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{node.name}: {p.arg} (line {node.lineno})"
                    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                    if p is not None and p.arg not in ("self", "cls", *read)]
    return out


def _unread_locals(tree: ast.AST) -> list[str]:
    """Names a function stores and nothing in it, nested functions included,
    loads; `_` is exempt, and so is a name the function declares `global` or
    `nonlocal`, whose reader is outside it.  An augmented assignment loads its
    target."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            own = list(_own(node))
            outer = {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
                     for name in n.names}
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.target.id for n in ast.walk(node)
                     if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
            stored: dict[str, int] = {}  # name -> its first store's line
            for n in own:
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    stored[n.id] = min(n.lineno, stored.get(n.id, n.lineno))
            out += [f"{node.name}: {name} (line {line})" for name, line in stored.items()
                    if name not in read | outer | {"_"}]
    return out


def _declared_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """A class's fields with their lines: its annotated names, then the
    string literals of its `__slots__`; a tuple the slots unpack, as in
    `(*_fields, "ty")`, is read where the class body assigns it."""
    out = [(stmt.target.id, stmt.lineno) for stmt in node.body
           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assigned = {t.id: stmt for stmt in node.body if isinstance(stmt, ast.Assign)
                for t in stmt.targets if isinstance(t, ast.Name)}
    slots = assigned.get("__slots__")
    for elt in slots.value.elts if slots and isinstance(slots.value, ast.Tuple) else ():
        if isinstance(elt, ast.Starred):
            part = assigned[elt.value.id]
            out += [(e.value, part.lineno) for e in part.value.elts]
        else:
            out.append((elt.value, slots.lineno))
    return out


def _unread_fields(trees: dict[str, ast.AST], reads: set[str]) -> list[str]:
    return [f"{module}: {node.name}.{name} (line {line})"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for name, line in _declared_fields(node) if name not in reads]


def _attributes_read(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = _unread_parameters(tree)
    assert not unread, f"parameters never read: {', '.join(unread)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = _unread_locals(tree)
    assert not unread, f"local names never read: {', '.join(unread)}"


def test_every_class_field_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    reads = set().union(*map(_attributes_read, trees.values()), *(
        _attributes_read(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
        for p in sorted(TESTS.glob("*.py"))))
    unread = _unread_fields(trees, reads)
    assert not unread, f"class fields never read: {', '.join(unread)}"


def test_the_unread_lint_sees_unread_inputs():
    tree = ast.parse(
        "class K:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    def m(self, x, *rest, y, **kw):\n"
        "        f = lambda u, k: u\n"
        "        return x, kw, self.a\n"
        "def g(p, q):\n"
        "    def inner(r): return p\n"
        "    return inner\n"
        "def h(xs):\n"
        "    a, _ = xs\n"
        "    a, n, total = xs\n"
        "    n += 1\n"
        "    def bump():\n"
        "        nonlocal total\n"
        "        total = 1\n"
        "    bump()\n"
        "    return [y for y in xs], total\n"
        "class S:\n"
        "    _fields = ('c', 'd')\n"
        "    __slots__ = (*_fields, 'e', 'f')\n"
        "    def m(self): return self.d, self.f\n"
        "class T:\n"
        "    __slots__ = _fields = ('g',)\n")
    assert sorted(_unread_parameters(tree)) == [
        "g: q (line 7)", "inner: r (line 8)", "m: rest (line 4)", "m: y (line 4)"]
    assert _unread_fields({"k.py": tree}, _attributes_read(tree)) == [
        "k.py: K.b (line 3)", "k.py: S.c (line 20)", "k.py: S.e (line 21)",
        "k.py: T.g (line 24)"]
    assert sorted(_unread_locals(tree)) == ["h: a (line 11)", "m: f (line 5)"]
