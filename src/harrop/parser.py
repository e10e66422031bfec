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

The tokenizer is one loop over one compiled regex: each match is the spaces
before a token and the token itself (a line break, a symbol, a word or a
comment), and a column is the offset from the last line break.

An expression is read into postfix code, a flat list of instructions
`(tag, line, col, ...)`, each at the position its construct is reported at:
operands `("name", l, c, text)` and `("true", l, c)`; `("app", l, c)` at the
function's root; `("bind", l, c, name, ann)` opening a binder and `("lam" |
"pi", l, c)` closing it after its body, both at its first token; and a
connective `(IMP_NAME | AND_NAME, l, c)` at its token.  The last instruction
is the root.  Elaboration is two loops over the code: type inference, on a
stack of operand types and a list of open binders, which records what each
name and binder resolved to; then term building, on a stack of terms.  An
application whose function's type is already an arrow unifies the arrow's
domain with the argument's type, unless the two are already equal, and
takes its codomain; only an unknown function type is unified with a fresh
arrow.  No stage recurses, so nesting depth is bounded by memory, not by
the interpreter's recursion limit.  The term loop builds a clause twice at
once: in named form, which the clause grammar is checked on, and closed by
its implicit `pi`s, hashed as it is built.  `ParsedFile.program` keeps both
(`Program.named`) and the predicates met, so the analysis neither closes,
re-hashes nor walks a static clause again.  Constants, `pi`s and atomic
types are made once per program and shared by every term that holds them.

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
from typing import NamedTuple

from .errors import ParseError, ProgramTypeError, UnknownIdentifier
from .formulas import CONNECTIVES, TOP, Clauses, Program, check_clause, check_goal, is_pred_ty
from .terms import (
    AND_NAME, IMP_NAME, O, PI_NAME, Abs, App, Bound, Const, Meta, RESERVED_TYPES,
    Signature, Term, Ty, TyArr, TyCon, Var, arrow, ty_text,
)


# -- tokens ------------------------------------------------------------------------

_SYMBOL = {
    "=>": "IMP", "->": "ARROW", "(": "LPAREN", ")": "RPAREN", ".": "DOT",
    ":": "COLON", "\\": "BACKSLASH", "&": "AMP", ",": "COMMA",
}
_KEYWORDS = {"kind", "type", "pi", "true"}
_DIRECTIVE = re.compile(r"%(strengthen|context)(?![\w'])")  # the whole word only
# Spaces other than a line break, then one of: (1) a line break, (2) a symbol,
# (3) a word, (4) a comment, (5) any other character, or the end of the input.
_TOKEN = re.compile(r"[^\S\n]*(?:(\n)|(=>|->|[().:\\&,])|(\w[\w']*)|(%[^\n]*)|(.)|\Z)")


class Token(NamedTuple):
    kind: str   # IDENT, KW, IMP, ARROW, punctuation kinds, DIRECTIVE, EOF
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """Tokens of src, ending in EOF.  Only `\\n` breaks a line, and a column
    counts characters from the last one.  A word starts with a letter, a
    digit or `_` and goes on with letters, digits, numerals, `_` and `'`."""
    toks: list[Token] = []
    add = toks.append
    match = _TOKEN.match
    pos = 0
    line, bol = 1, 0  # bol: the offset of the line's first character
    end = len(src)    # where EOF is reported: a comment's own start if it ends the input
    while True:
        m = match(src, pos)
        i = m.lastindex
        pos = m.end()
        if i == 1:
            line += 1
            bol = pos
            continue
        if i is None:
            add(Token("EOF", "", line, end - bol + 1))
            return toks
        text = m[i]
        col = m.start(i) - bol + 1
        if i == 3:
            c = text[0]
            if c >= "\x80" and not (c.isalpha() or c.isdigit()):  # e.g. a fraction
                raise ParseError(f"unexpected character {c!r}", line, col)
            add(Token("KW" if text in _KEYWORDS else "IDENT", text, line, col))
        elif i == 2:
            add(Token(_SYMBOL[text], text, line, col))
        elif i == 4:
            if _DIRECTIVE.match(text):
                add(Token("DIRECTIVE", text, line, col))
            if pos == len(src):
                end = pos - len(text)
        else:
            raise ParseError(f"unexpected character {text!r}", line, col)


# -- files ---------------------------------------------------------------------------

class Directive:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "strengthen" | "context"
        self.text = text  # raw text after the keyword, without the trailing dot
        self.line, self.col = line, col


class ParsedFile:
    __slots__ = ("program", "directives")

    def __init__(self, program: Program, directives: tuple[Directive, ...]):
        self.program, self.directives = program, directives


class _TokenStream:
    """A cursor over tokens that end in EOF, which `next` never passes."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
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

# one object per atomic type name, so a type check can often stop at `is`
_TYCONS: dict[str, TyCon] = {}


def _parse_tyexpr(ts: _TokenStream, kinds: set[str]) -> Ty:
    """`t1 -> ... -> tn`, arrows associating to the right, read in one loop:
    each `(` opens a frame of factors, and the type that ends a frame is a
    factor of the frame around it, which then expects its `)`."""
    frames: list[list[Ty]] = [[]]
    while True:
        t = ts.next()
        if t.kind == "LPAREN":
            frames.append([])
            continue
        if t.kind != "IDENT":
            raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)
        if t.text == "o":
            ty = O
        elif t.text in kinds:
            ty = _TYCONS.get(t.text) or _TYCONS.setdefault(t.text, TyCon(t.text))
        else:
            raise ParseError(f"unknown type {t.text!r}", t.line, t.col)
        while True:  # ty ends a factor, and every frame that no arrow continues
            frames[-1].append(ty)
            if ts.peek().kind == "ARROW":
                ts.next()
                break
            ty = arrow(*frames.pop())
            if not frames:
                return ty
            ts.expect("RPAREN", "')'")


# -- expressions as postfix code ----------------------------------------------------------

_PREC = {"IMP": 0, "AMP": 1}  # both right associative; application binds tighter
_CONNECTIVE = {"IMP": IMP_NAME, "AMP": AND_NAME}

Code = list[tuple]  # instructions (tag, line, col, ...); see the module docstring
Binders = tuple[tuple[str, Ty], ...]  # names and types, outermost first


def _parse_expr(ts: _TokenStream, kinds: set[str]) -> Code:
    """Read one expression as postfix code, stopping before the first token
    that cannot continue it.  Each open frame (the whole expression, a `(`
    or a binder header) keeps its own operand and operator stacks; an operand
    is only the position of its root, since its code is already emitted.  A
    token that neither starts an operand nor is an operator ends the
    innermost frame, and goes on to end every binder frame up to the
    nearest `(`."""
    code: Code = []
    frames: list[tuple[Token | None, list[tuple[int, int]], list[Token]]] = [(None, [], [])]
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
                code.append(_binder_header(ts, kinds, t))
                frames.append((t, [], []))
                continue
            code.append(("true", t.line, t.col) if t.text == "true"
                        else ("name", t.line, t.col, t.text))
            root = t.line, t.col
        elif len(vals) == len(ops):
            raise ParseError(f"expected a term, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        elif kind in _PREC:
            _reduce(code, vals, ops, _PREC[kind])
            ops.append(ts.next())
            continue
        else:
            _reduce(code, vals, ops, -1)
            frames.pop()
            root = vals[0]
            if binder is not None:
                root = binder.line, binder.col
                code.append(("pi" if binder.kind == "KW" else "lam", *root))
            elif not frames:
                return code
            else:
                ts.expect("RPAREN", "')'")
            vals, ops = frames[-1][1:]
        if len(vals) > len(ops):  # an operand that follows an operand is applied to it
            code.append(("app", *vals[-1]))
        else:
            vals.append(root)


def _binder_header(ts: _TokenStream, kinds: set[str], head: Token) -> tuple:
    """The rest of `pi x : ty \\` or `x : ty \\` (the annotation is optional)
    after its first token, as the instruction that opens the binder."""
    name = ts.expect("IDENT", "a bound name") if head.kind == "KW" else head
    ann = None
    if ts.peek().kind == "COLON":
        ts.next()
        ann = _parse_tyexpr(ts, kinds)
    ts.expect("BACKSLASH", "'\\'")
    return "bind", head.line, head.col, name.text, ann


def _reduce(code: Code, vals: list[tuple[int, int]], ops: list[Token], above: int) -> None:
    """Emit the pending operators that bind more tightly than `above`."""
    while ops and _PREC[ops[-1].kind] > above:
        op = ops.pop()
        vals.pop()
        vals[-1] = op.line, op.col
        code.append((_CONNECTIVE[op.kind], op.line, op.col))


# -- elaboration: two loops over the code ---------------------------------------------------

class TyMeta(Ty):
    """A type unknown; only ever lives inside the elaborator."""
    __slots__ = _fields = ("uid",)

    def __init__(self, uid: int):
        self.uid = uid

    def __repr__(self):
        return f"?t{self.uid}"


def _pi(shared: dict, ty: Ty) -> Const:
    """The `pi` constant for binders of type ty, made once per `shared`."""
    q = shared.get(ty)
    if q is None:
        q = shared[ty] = Const(PI_NAME, TyArr(TyArr(ty, O), O))
    return q


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

    def ground(self, ty: Ty, where: tuple) -> Ty:
        """ty with every bound unknown replaced by its binding; an unbound one
        makes the type ambiguous, an error at the instruction `where`."""
        done: list[Ty] = []
        todo: list[Ty | None] = [ty]
        while todo:
            t = todo.pop()
            if t is None:  # an arrow whose domain and codomain are done
                cod = done.pop()
                done[-1] = TyArr(done[-1], cod)
                continue
            t = self.resolve(t)
            if isinstance(t, TyMeta):
                raise ParseError("ambiguous type; add an annotation", where[1], where[2])
            if isinstance(t, TyArr):
                todo += (None, t.cod, t.dom)
            else:
                done.append(t)
        return done[0]

    def unify(self, a: Ty, b: Ty, where: tuple) -> None:
        """Make a and b equal, or raise at the instruction `where`; pairs are taken
        depth first, domains first, as the recursive unification took them.  A
        mismatch names the two types with each bound unknown written out."""
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            a, b = self.resolve(a), self.resolve(b)
            if a == b:
                continue
            if isinstance(b, TyMeta) and not isinstance(a, TyMeta):
                a, b = b, a
            if isinstance(a, TyMeta):
                inside = [b]  # the occurs check
                while inside:
                    t = self.resolve(inside.pop())
                    if t == a:
                        raise ParseError("circular type constraint", where[1], where[2])
                    if isinstance(t, TyArr):
                        inside += (t.dom, t.cod)
                self.binding[a.uid] = b
            elif isinstance(a, TyArr) and isinstance(b, TyArr):
                todo += ((a.cod, b.cod), (a.dom, b.dom))
            else:
                raise ParseError(f"type mismatch: {ty_text(a, self.resolve)} vs "
                                 f"{ty_text(b, self.resolve)}", where[1], where[2])


def elaborate(code: Code, sig: Signature, mode: str = "clause",
              shared: dict | None = None) -> tuple[Term, Binders, Term]:
    """Turn postfix code into a term.  Returns the term, its implicit
    binders (names and types, outermost first) and its named form.

    mode "clause": implicit capitals are pi-quantified at the front, the
    result must be type o and fit the clause grammar.  One term loop builds
    the clause in two forms.  In the named form the implicit capitals are
    free variables; the grammar check reads it, so no check opens a binder.
    In the closed form, the term returned, they are the indices of the `pi`s
    that close it.  A subterm with no implicit variable is one object in
    both, and each App and Abs of the closed form gets its hash as it is
    built, children first, by the rule `terms` hashes them with.
    mode "goal": capitals become free variables; goal grammar enforced.
    mode "query": capitals become engine metavariables (logic-programming
    reading of a query); goal grammar enforced.
    A goal has no implicit binders and is its own named form.

    `shared` holds leaves for every term parsed against one signature (a
    constant's meaning never changes once declared): each constant under
    its name, in first-occurrence order, and each `pi` under its binder's
    type.  Without it the leaves are shared within the one term.
    """
    shared = {} if shared is None else shared
    table = _TyTable()
    root = code[-1]
    impl: dict[str, Ty] = {}   # implicit names, in order of first occurrence
    picks: list = []  # in code order, what each name resolved to (a de Bruijn
                      # index, an implicit's name or a constant) and each binder's type
    types: list[Ty] = []
    env: list[tuple[str, Ty]] = []  # the open binders, innermost last
    for ins in code:
        tag = ins[0]
        if tag == "name":
            name = ins[3]
            i = len(env) - 1
            while i >= 0 and env[i][0] != name:
                i -= 1
            if i >= 0:
                ty = env[i][1]
                picks.append(len(env) - 1 - i)  # a de Bruijn index
            else:
                if name[0].isupper() or name[0] == "_":  # implicit
                    ty = impl.get(name)
                    if ty is None:
                        ty = impl[name] = table.fresh()
                    else:  # as far as it is known, so an equal argument needs no unify
                        ty = table.resolve(ty)
                    picks.append(name)
                else:
                    c = shared.get(name)
                    if c is None:
                        if (ty := sig.lookup(name)) is None:
                            raise UnknownIdentifier(name)
                        c = shared[name] = Const(name, ty)
                    ty = c.ty
                    picks.append(c)
            types.append(ty)
        elif tag == "true":
            types.append(O)
        elif tag == "app":
            arg = types.pop()
            fn = table.resolve(types[-1])
            if isinstance(fn, TyArr):  # known to be an arrow: no fresh unknown is needed,
                table.counter += 1     # but its number is skipped, so later ones keep theirs
                if fn.dom is not arg and fn.dom != arg:
                    table.unify(fn.dom, arg, ins)
                types[-1] = fn.cod
            else:
                res = table.fresh()
                table.unify(fn, TyArr(arg, res), ins)
                types[-1] = res
        elif tag == "bind":
            ty = ins[4] or table.fresh()
            env.append((ins[3], ty))
            picks.append(ty)
        elif tag == "lam":
            types[-1] = TyArr(env.pop()[1], types[-1])
        elif tag == "pi":
            env.pop()
            table.unify(types[-1], O, ins)
            types[-1] = O
        else:  # a connective
            right = types.pop()
            table.unify(types[-1], O, ins)
            table.unify(right, O, ins)
            types[-1] = O
    table.unify(types[0], O, root)

    closing = mode == "clause"
    free: dict[str, Term] = {}  # query metavariables are numbered per parse;
    for uid, name in enumerate(impl, 1):  # the engine's have negative uids
        ty = table.ground(impl[name], root)
        free[name] = Meta(name, ty, uid) if mode == "query" else Var(name, ty)
    # an implicit's index outside every binder of the clause: the first is outermost
    outside = {name: len(impl) - 1 - i for i, name in enumerate(impl)}
    out: list[Term] = []  # the terms built, in named form
    shut: list[Term | None] = []  # each one's closed form, None when it is the same
    binders: list[tuple[str, Ty]] = []  # names and ground types, innermost last
    pick = iter(picks)
    for ins in code:
        tag = ins[0]
        if tag == "name":
            p = next(pick)
            if p.__class__ is int:
                out.append(Bound(p, binders[-1 - p][1]))
                shut.append(None)
            elif p.__class__ is str:
                v = free[p]
                out.append(v)
                shut.append(Bound(len(binders) + outside[p], v.ty) if closing else None)
            else:
                out.append(p)
                shut.append(None)
        elif tag == "true":
            out.append(TOP)
            shut.append(None)
        elif tag == "app":
            arg, c_arg = out.pop(), shut.pop()
            fn, c_fn = out[-1], shut[-1]
            out[-1] = App(fn, arg)
            if c_fn is not None or c_arg is not None:
                shut[-1] = App(fn if c_fn is None else c_fn, arg if c_arg is None else c_arg)
            if closing:
                t = shut[-1] or out[-1]
                t._hash = hash((t.fn, t.arg))
        elif tag == "bind":
            binders.append((ins[3], table.ground(next(pick), root)))
        elif tag == "lam" or tag == "pi":
            name, ty = binders.pop()
            out[-1] = Abs(ty, out[-1], name)
            if shut[-1] is not None:
                shut[-1] = Abs(ty, shut[-1], name)
            if closing:
                t = shut[-1] or out[-1]
                t._hash = hash((ty, t.body))
            if tag == "pi":
                q = _pi(shared, ty)
                out[-1] = App(q, out[-1])
                if shut[-1] is not None:
                    shut[-1] = App(q, shut[-1])
                if closing:
                    t = shut[-1] or out[-1]
                    t._hash = hash((q, t.arg))
        else:
            right, c_right = out.pop(), shut.pop()
            left, c_left = out[-1], shut[-1]
            op = CONNECTIVES[tag]
            out[-1] = App(App(op, left), right)
            if c_left is not None or c_right is not None:
                shut[-1] = App(App(op, left if c_left is None else c_left),
                               right if c_right is None else c_right)
            if closing:
                t = shut[-1] or out[-1]
                t.fn._hash = hash((op, t.fn.arg))
                t._hash = hash((t.fn, t.arg))
    named = out[0]
    if not closing:
        check_goal(named)
        return named, (), named
    check_clause(named)
    term = shut[0] or named
    implicit = tuple((name, v.ty) for name, v in free.items())
    for name, ty in reversed(implicit):  # the pis that close it, as `quantify` makes them
        t = Abs(ty, term, name)
        t._hash = hash((ty, term))
        q = _pi(shared, ty)
        term = App(q, t)
        term._hash = hash((q, t))
    return term, implicit, named

# -- programs --------------------------------------------------------------------------------

BASE_KINDS = ("olist",)  # reserved for the emitted Abella side; not usable in .hh


def parse_source(src: str) -> ParsedFile:
    """Parse declarations, clauses and directives from `.hh` source text."""
    ts = _TokenStream(tokenize(src))
    sig = Signature()
    kinds: set[str] = set()
    kind_order: list[str] = []
    clauses: list[Term] = []
    named: list[tuple[Binders, Term]] = []
    shared: dict = {}
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
            if name.text in sig:
                raise ParseError(f"constant {name.text!r} declared twice",
                                 name.line, name.col)
            sig.consts[name.text] = ty  # this parse's own table, not yet shared
            continue
        code = _parse_expr(ts, kinds)
        ts.expect("DOT", "'.' at end of clause")
        try:
            term, implicit, form = elaborate(code, sig, "clause", shared)
        except UnknownIdentifier as e:
            raise ProgramTypeError(clause_index, str(e))
        clauses.append(term)
        named.append((implicit, form))
        clause_index += 1
    preds = tuple(k for k, c in shared.items() if k.__class__ is str and is_pred_ty(c.ty))
    program = Program(sig, Clauses(clauses, sig), tuple(kind_order), tuple(named), preds)
    return ParsedFile(program, tuple(directives))


def parse_program(src: str) -> Program:
    return parse_source(src).program


def parse_goal(src: str, program: Program, mode: str = "goal") -> Term:
    """Parse a standalone goal against a program's signature."""
    return _parse_alone(tokenize(src), program, mode)


def parse_clause(src: str, program: Program) -> Term:
    """Parse a standalone clause against a program's signature."""
    return _parse_alone(tokenize(src), program, "clause")


def _parse_alone(toks: list[Token], program: Program, mode: str) -> Term:
    """Elaborate tokens that end in EOF as one clause or goal."""
    ts = _TokenStream(toks)
    code = _parse_expr(ts, set(program.kinds))
    ts.expect("EOF", "end of clause" if mode == "clause" else "end of goal")
    return elaborate(code, program.sig, mode)[0]


@contextmanager
def _reported_at(d: Directive):
    """Give a parse error inside a directive the directive's own position:
    its tokens' positions count from the start of its text, not of the file."""
    try:
        yield
    except ParseError as e:
        raise ParseError(e.msg, d.line, d.col) from None


def split_directive_strengthen(d: Directive, program: Program):
    """Parse `%strengthen <name> from <clause> in <goal>.` into parts."""
    with _reported_at(d):
        toks = tokenize(d.text)
        if toks[0].kind != "IDENT":
            raise ParseError("expected a context name after %strengthen", d.line, d.col)
        # locate 'from' ... 'in' keywords at paren depth 0
        depth = 0
        from_i = in_i = None
        for i, t in enumerate(toks[1:], start=1):
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
        clause = _parse_alone([*toks[from_i + 1:in_i], toks[-1]], program, "clause")
        return toks[0].text, clause, _parse_alone(toks[in_i + 1:], program, "goal")


def split_directive_context(d: Directive, program: Program):
    """Parse `%context <name> <clause>.` into (name, clause)."""
    with _reported_at(d):
        toks = tokenize(d.text)
        if toks[0].kind != "IDENT":
            raise ParseError("expected a context name after %context", d.line, d.col)
        return toks[0].text, _parse_alone(toks[1:], program, "clause")
