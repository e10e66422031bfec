"""Concrete syntax for `.hh` specification files.

    kind <name> type.              declare an atomic type
    type <name> <type-expr>.       declare a constant
    <goal> => ... => <atom>.       a program clause (chained => accepted)
    <atom>.                        a fact
    pi <x> : <ty> \\ <body>        explicit universal quantification
    <x> : <ty> \\ <body>           abstraction (the annotation is optional)
    g1 & g2                        conjunction (binds tighter than =>)
    true                           the trivial goal
    % ...                          line comment

Application binds tightest, then `&`, then `=>`; both connectives are right
associative, so `a & b & c => d => e` reads `(a & (b & c)) => (d => e)`.
A binder's body extends as far right as it can, to the end of the enclosing
parenthesis or expression, so `f x \\ g x & h` applies `f` to `x \\ (g x & h)`.
Expressions are read by one loop on explicit stacks, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.

Identifiers starting with an uppercase letter (or underscore) are implicitly
pi-quantified at the clause head; their types are inferred by first-order
unification over the clause and an unresolved type is an error.  A `%` line
whose first word is `strengthen` or `context` is collected as a directive
rather than skipped.  Input is UTF-8 and insensitive to line breaks except
inside directives.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import ParseError, ProgramTypeError, SignatureError, UnknownIdentifier
from .formulas import (
    BIN_TY, LOGICAL_NAMES, TOP,
    Program, check_clause, check_goal, quantify,
)
from .terms import (
    AND_NAME, IMP_NAME, O, PI_NAME, Abs, App, Bound, Const, Meta, RESERVED_TYPES,
    Signature, Term, Ty, TyArr, TyCon, Var,
)


# -- tokens ------------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", ".": "DOT", ":": "COLON",
    "\\": "BACKSLASH", "&": "AMP", ",": "COMMA",
}
_KEYWORDS = {"kind", "type", "pi", "true"}
_DIRECTIVE = re.compile(r"%(strengthen|context)(?![\w'])")  # the whole word only


@dataclass(frozen=True)
class Token:
    kind: str   # IDENT, KW, IMP, ARROW, punctuation kinds, DIRECTIVE, EOF
    text: str
    line: int
    col: int


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_" or c.isdigit()


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            j = i
            while j < n and src[j] != "\n":
                j += 1
            text = src[i:j]
            if _DIRECTIVE.match(text):
                toks.append(Token("DIRECTIVE", text, line, col))
            i = j
            continue
        if src.startswith("=>", i):
            toks.append(Token("IMP", "=>", line, col))
            i += 2
            col += 2
            continue
        if src.startswith("->", i):
            toks.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            toks.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if _ident_start(c):
            j = i
            while j < n and _ident_char(src[j]):
                j += 1
            text = src[i:j]
            kind = "KW" if text in _KEYWORDS else "IDENT"
            toks.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# -- parse trees --------------------------------------------------------------------

@dataclass(frozen=True)
class PNode:
    line: int
    col: int


@dataclass(frozen=True)
class PName(PNode):
    name: str


@dataclass(frozen=True)
class PTrue(PNode):
    pass


@dataclass(frozen=True)
class PApp(PNode):
    fn: PNode
    arg: PNode


@dataclass(frozen=True)
class PBinder(PNode):
    """`x \\ body`, or `pi x \\ body` when `quant` is set."""
    name: str
    ann: Ty | None
    body: PNode
    quant: bool


@dataclass(frozen=True)
class PBinary(PNode):
    op: str  # IMP_NAME or AND_NAME
    left: PNode
    right: PNode


@dataclass(frozen=True)
class Directive:
    kind: str  # "strengthen" | "context"
    text: str  # raw text after the keyword, without the trailing dot
    line: int
    col: int


@dataclass(frozen=True)
class ParsedFile:
    program: Program
    directives: tuple[Directive, ...]


class _TokenStream:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()


# -- type expressions ------------------------------------------------------------------

def _parse_tyexpr(ts: _TokenStream, kinds: set[str]) -> Ty:
    left = _parse_tyfactor(ts, kinds)
    if ts.peek().kind == "ARROW":
        ts.next()
        return TyArr(left, _parse_tyexpr(ts, kinds))
    return left


def _parse_tyfactor(ts: _TokenStream, kinds: set[str]) -> Ty:
    t = ts.peek()
    if t.kind == "LPAREN":
        ts.next()
        ty = _parse_tyexpr(ts, kinds)
        ts.expect("RPAREN", "')'")
        return ty
    if t.kind == "IDENT":
        ts.next()
        if t.text == "o":
            return O
        if t.text not in kinds:
            raise ParseError(f"unknown type {t.text!r}", t.line, t.col)
        return TyCon(t.text)
    raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)


# -- expression grammar ------------------------------------------------------------------

_PREC = {"IMP": 0, "AMP": 1}  # both right associative; application binds tighter
_CONNECTIVE = {"IMP": IMP_NAME, "AMP": AND_NAME}


def _parse_expr(ts: _TokenStream, kinds: set[str]) -> PNode:
    """Read one expression, stopping before the first token that cannot
    continue it.  Each open frame (the whole expression, a `(` or a binder
    header) keeps its own operand and operator stacks; a token that neither
    starts an operand nor is an operator ends the innermost frame, and goes
    on to end every binder frame up to the nearest `(`."""
    frames: list[tuple[tuple | None, list[PNode], list[Token]]] = [(None, [], [])]
    while True:
        binder, vals, ops = frames[-1]
        t = ts.peek()
        kind = t.kind
        if kind == "IDENT" or kind == "LPAREN" or (kind == "KW" and t.text in ("true", "pi")):
            ts.next()
            if kind == "LPAREN":
                frames.append((None, [], []))
                continue
            if t.text == "pi" or (kind == "IDENT"
                                  and ts.peek().kind in ("BACKSLASH", "COLON")):
                frames.append((_binder_header(ts, kinds, t), [], []))
                continue
            node = PTrue(t.line, t.col) if t.text == "true" else PName(t.line, t.col, t.text)
        elif len(vals) == len(ops):
            raise ParseError(f"expected a term, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        elif kind in _PREC:
            _reduce(vals, ops, _PREC[kind])
            ops.append(ts.next())
            continue
        else:
            _reduce(vals, ops, -1)
            frames.pop()
            node = vals[0]
            if binder is not None:
                head, name, ann, quant = binder
                node = PBinder(head.line, head.col, name, ann, node, quant)
            elif not frames:
                return node
            else:
                ts.expect("RPAREN", "')'")
            vals, ops = frames[-1][1:]
        if len(vals) > len(ops):  # an operand that follows an operand is applied to it
            vals[-1] = PApp(vals[-1].line, vals[-1].col, vals[-1], node)
        else:
            vals.append(node)


def _binder_header(ts: _TokenStream, kinds: set[str], head: Token) -> tuple:
    """The rest of `pi x : ty \\` or `x : ty \\` (the annotation is optional)
    after its first token, as (head, name, annotation, quant)."""
    quant = head.kind == "KW"
    name = ts.expect("IDENT", "a bound name") if quant else head
    ann = None
    if ts.peek().kind == "COLON":
        ts.next()
        ann = _parse_tyexpr(ts, kinds)
    ts.expect("BACKSLASH", "'\\'")
    return head, name.text, ann, quant


def _reduce(vals: list[PNode], ops: list[Token], above: int) -> None:
    """Combine the pending operators that bind more tightly than `above`."""
    while ops and _PREC[ops[-1].kind] > above:
        op = ops.pop()
        right = vals.pop()
        vals[-1] = PBinary(op.line, op.col, _CONNECTIVE[op.kind], vals[-1], right)


# -- type inference over parse trees --------------------------------------------------------

@dataclass(frozen=True)
class TyMeta(Ty):
    """A type unknown; only ever lives inside the elaborator."""
    uid: int

    def __repr__(self):
        return f"?t{self.uid}"


class _TyTable:
    def __init__(self):
        self.binding: dict[int, Ty] = {}
        self.counter = 0

    def fresh(self) -> TyMeta:
        self.counter += 1
        return TyMeta(self.counter)

    def resolve(self, ty: Ty) -> Ty:
        while isinstance(ty, TyMeta) and ty.uid in self.binding:
            ty = self.binding[ty.uid]
        return ty

    def resolve_deep(self, ty: Ty) -> Ty:
        ty = self.resolve(ty)
        if isinstance(ty, TyArr):
            return TyArr(self.resolve_deep(ty.dom), self.resolve_deep(ty.cod))
        return ty

    def _occurs(self, uid: int, ty: Ty) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, TyMeta):
            return ty.uid == uid
        if isinstance(ty, TyArr):
            return self._occurs(uid, ty.dom) or self._occurs(uid, ty.cod)
        return False

    def unify(self, a: Ty, b: Ty, where: PNode) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, TyMeta):
            if self._occurs(a.uid, b):
                raise ParseError("circular type constraint", where.line, where.col)
            self.binding[a.uid] = b
            return
        if isinstance(b, TyMeta):
            self.unify(b, a, where)
            return
        if isinstance(a, TyArr) and isinstance(b, TyArr):
            self.unify(a.dom, b.dom, where)
            self.unify(a.cod, b.cod, where)
            return
        raise ParseError(f"type mismatch: {a!r} vs {b!r}", where.line, where.col)


def _is_implicit(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


# Typed intermediate nodes: (tag, type, ...) tuples.  Tags: true, const,
# bound, impl, app, lam, pi, and a connective's name (IMP_NAME or AND_NAME).

def _infer(node: PNode, env: list[tuple[str, Ty]], sig: Signature,
           impl: dict[str, Ty], table: _TyTable):
    """The typed node of `node`; `env` holds the enclosing binders, innermost
    first, so a bound name's position in it is its de Bruijn index."""
    if isinstance(node, PTrue):
        return ("true", O)
    if isinstance(node, PName):
        for i, (name, ty) in enumerate(env):
            if name == node.name:
                return ("bound", ty, i)
        if _is_implicit(node.name):
            if node.name not in impl:
                impl[node.name] = table.fresh()
            return ("impl", impl[node.name], node.name)
        declared = sig.lookup(node.name)
        if declared is None:
            raise UnknownIdentifier(node.name)
        return ("const", declared, node.name)
    if isinstance(node, PApp):
        f = _infer(node.fn, env, sig, impl, table)
        a = _infer(node.arg, env, sig, impl, table)
        res = table.fresh()
        table.unify(f[1], TyArr(a[1], res), node)
        return ("app", res, f, a)
    if isinstance(node, PBinder):
        ty = node.ann or table.fresh()
        b = _infer(node.body, [(node.name, ty)] + env, sig, impl, table)
        if not node.quant:
            return ("lam", TyArr(ty, b[1]), node.name, ty, b)
        table.unify(b[1], O, node)
        return ("pi", O, node.name, ty, b)
    l = _infer(node.left, env, sig, impl, table)
    r = _infer(node.right, env, sig, impl, table)
    table.unify(l[1], O, node)
    table.unify(r[1], O, node)
    return (node.op, O, l, r)


def _has_tymeta(ty: Ty) -> bool:
    if isinstance(ty, TyMeta):
        return True
    if isinstance(ty, TyArr):
        return _has_tymeta(ty.dom) or _has_tymeta(ty.cod)
    return False


def elaborate(node: PNode, sig: Signature, mode: str = "clause") -> Term:
    """Turn a parse tree into a term.

    mode "clause": implicit capitals are pi-quantified at the front, the
    result must be type o and fit the clause grammar.
    mode "goal": capitals become free variables; goal grammar enforced.
    mode "query": capitals become engine metavariables (logic-programming
    reading of a query); goal grammar enforced.
    """
    table = _TyTable()
    impl: dict[str, Ty] = {}
    tnode = _infer(node, [], sig, impl, table)
    table.unify(tnode[1], O, node)
    impl_order: list[str] = []
    meta_uids: dict[str, int] = {}

    def ground(ty: Ty) -> Ty:
        ty = table.resolve_deep(ty)
        if _has_tymeta(ty):
            raise ParseError("ambiguous type; add an annotation", node.line, node.col)
        return ty

    def build(tn) -> Term:
        tag = tn[0]
        if tag == "true":
            return TOP
        if tag == "const":
            return Const(tn[2], ground(tn[1]))
        if tag == "bound":
            return Bound(tn[2], ground(tn[1]))
        if tag == "impl":
            name = tn[2]
            if name not in impl_order:
                impl_order.append(name)
            ty = ground(tn[1])
            if mode == "query":
                # numbered per parse; engine metavariables have negative uids
                return Meta(name, ty, meta_uids.setdefault(name, len(meta_uids) + 1))
            return Var(name, ty)
        if tag == "app":
            return App(build(tn[2]), build(tn[3]))
        if tag == "lam" or tag == "pi":
            _, _, name, ty, b = tn
            fn = Abs(ground(ty), build(b), name)
            return fn if tag == "lam" else App(Const(PI_NAME, TyArr(fn.ty, O)), fn)
        return App(App(Const(tag, BIN_TY), build(tn[2])), build(tn[3]))

    term = build(tnode)
    if mode == "clause":
        # build grounded every implicit, so each type resolves without a meta
        term = quantify([(name, table.resolve_deep(impl[name])) for name in impl_order],
                        term)
        check_clause(term)
    else:
        check_goal(term)
    return term


# -- programs --------------------------------------------------------------------------------

BASE_KINDS = ("olist",)  # reserved for the emitted Abella side; not usable in .hh


def parse_source(src: str) -> ParsedFile:
    """Parse declarations, clauses and directives from `.hh` source text."""
    ts = _TokenStream(tokenize(src))
    sig = Signature()
    kinds: set[str] = set()
    kind_order: list[str] = []
    clauses: list[Term] = []
    directives: list[Directive] = []
    clause_index = 0
    while ts.peek().kind != "EOF":
        t = ts.peek()
        if t.kind == "DIRECTIVE":
            ts.next()
            kind = _DIRECTIVE.match(t.text)[1]
            rest = t.text[len(kind) + 1:].strip()
            if not rest.endswith("."):
                raise ParseError(f"%{kind} directive must end with '.'", t.line, t.col)
            directives.append(Directive(kind, rest[:-1].strip(), t.line, t.col))
            continue
        if t.kind == "KW" and t.text == "kind":
            ts.next()
            name = ts.expect("IDENT", "a type name")
            kw = ts.expect("KW", "'type'")
            if kw.text != "type":
                raise ParseError("expected 'type'", kw.line, kw.col)
            ts.expect("DOT", "'.'")
            if name.text in RESERVED_TYPES or name.text in BASE_KINDS:
                raise ParseError(f"type name {name.text!r} is reserved",
                                 name.line, name.col)
            if name.text in kinds:
                raise ParseError(f"type {name.text!r} declared twice",
                                 name.line, name.col)
            kinds.add(name.text)
            kind_order.append(name.text)
            continue
        if t.kind == "KW" and t.text == "type":
            ts.next()
            name = ts.expect("IDENT", "a constant name")
            ty = _parse_tyexpr(ts, kinds)
            ts.expect("DOT", "'.'")
            if name.text in LOGICAL_NAMES:
                raise ParseError(f"constant name {name.text!r} is reserved",
                                 name.line, name.col)
            try:
                sig = sig.extend_const(name.text, ty)
            except SignatureError:
                raise ParseError(f"constant {name.text!r} declared twice",
                                 name.line, name.col)
            continue
        node = _parse_expr(ts, kinds)
        ts.expect("DOT", "'.' at end of clause")
        try:
            term = elaborate(node, sig, mode="clause")
        except UnknownIdentifier as e:
            raise ProgramTypeError(clause_index, str(e))
        clauses.append(term)
        clause_index += 1
    program = Program(sig, tuple(clauses), tuple(kind_order))
    return ParsedFile(program, tuple(directives))


def parse_program(src: str) -> Program:
    return parse_source(src).program


def parse_goal(src: str, program: Program, mode: str = "goal") -> Term:
    """Parse a standalone goal against a program's signature."""
    return _parse_alone(src, program, mode, "end of goal")


def parse_clause(src: str, program: Program) -> Term:
    """Parse a standalone clause against a program's signature."""
    return _parse_alone(src, program, "clause", "end of clause")


def _parse_alone(src: str, program: Program, mode: str, end: str) -> Term:
    ts = _TokenStream(tokenize(src))
    node = _parse_expr(ts, set(program.kinds))
    ts.expect("EOF", end)
    return elaborate(node, program.sig, mode=mode)


@contextmanager
def _reported_at(d: Directive):
    """Give a parse error inside a directive the directive's own position:
    its parts are re-joined text whose positions mean nothing in the file."""
    try:
        yield
    except ParseError as e:
        raise ParseError(e.msg, d.line, d.col) from None


def split_directive_strengthen(d: Directive, program: Program):
    """Parse `%strengthen <name> from <clause> in <goal>.` into parts."""
    with _reported_at(d):
        names = [t for t in tokenize(d.text) if t.kind != "EOF"]
        if not names or names[0].kind != "IDENT":
            raise ParseError("expected a context name after %strengthen", d.line, d.col)
        ctx_name = names[0].text
        # locate 'from' ... 'in' keywords at paren depth 0
        depth = 0
        from_i = in_i = None
        for i, t in enumerate(names[1:], start=1):
            if t.kind == "LPAREN":
                depth += 1
            elif t.kind == "RPAREN":
                depth -= 1
            elif t.kind == "IDENT" and depth == 0:
                if t.text == "from" and from_i is None:
                    from_i = i
                elif t.text == "in":
                    in_i = i
        if from_i is None or in_i is None or in_i <= from_i:
            raise ParseError("%strengthen expects '<ctx> from <clause> in <goal>'",
                             d.line, d.col)
        clause_txt = _untokenize(names[from_i + 1:in_i])
        goal_txt = _untokenize(names[in_i + 1:])
        return ctx_name, parse_clause(clause_txt, program), parse_goal(goal_txt, program)


def split_directive_context(d: Directive, program: Program):
    """Parse `%context <name> <clause>.` into (name, clause)."""
    with _reported_at(d):
        toks = [t for t in tokenize(d.text) if t.kind != "EOF"]
        if not toks or toks[0].kind != "IDENT":
            raise ParseError("expected a context name after %context", d.line, d.col)
        return toks[0].text, parse_clause(_untokenize(toks[1:]), program)


def _untokenize(toks: list[Token]) -> str:
    return " ".join(t.text for t in toks)
