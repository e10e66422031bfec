"""Simply-typed lambda-calculus kernel.

Terms use a locally nameless representation: bound variables are de Bruijn
indices (`Bound`), free variables and constants are named.  Binder nodes keep
the surface name only as a printing hint, excluded from equality, so plain
`==` on terms is alpha-equivalence.  Types are checked eagerly, Church style:
every node can report its type locally and ill-typed applications cannot be
constructed.

Nodes are plain slotted classes, so no attribute but the declared ones can
be set.  Each node's `__init__` sets four facts: its type `ty`, `ground` (no
`Meta` below it), `normal` and `loose`, one more than its largest loose de
Bruijn index (0 when it is closed; a `Bound` k has k + 1).  `normal` is
conservative: it may be False on a beta-eta-normal term but is never True on
one that is not (an `Abs` whose body is an application to index 0 is left
for `normalize` to decide).  An `App` or `Abs` reads these from its
children, so building one costs O(1), and its hash, which ignores binder
hints as `==` does, is computed on first use, children first with an
explicit stack, and kept; a builder that has its children's hashes at hand
may store it at once by the same rule (the parser does).  An arrow type
stores hash((dom, cod)) when it is built, in O(1), as its parts hold
theirs.  None of them shows in `repr` or `==`.  Arrow types, App and Abs
share one `==`, `_equal`, which walks pairs on an explicit stack, so
neither hashing nor comparing a type or term is bounded by the recursion
limit.  A leaf compares, hashes and shows the fields its class names in
`_fields`, as a dataclass would.

`instantiate` is the one way to open binders and `abstract` the one way to
close them, each in one rebuild however many binders there are.  Every walk
that only looks at or replaces leaves (any node that is not `Abs` or `App`)
goes through one of two traversals.  `map_leaves` rebuilds a term with each
leaf replaced by a function of the leaf and the number of binders above it;
shifting, opening, closing and metavariable substitution are leaf functions
over it.  Sharing rule: it returns every subterm in which nothing changed as
the same object, so an unchanged term costs no allocation and no type check;
`resolver` does not even enter a ground subtree, and `shift` and
`instantiate` do not enter a subterm with no loose index at or above the
number of binders above it (its `loose` says so), so shifting a closed term
costs O(1).  `leaves` yields the leaves from left to right.  `normalize`
keeps the sharing rule and returns a `normal` term at once; `infer_type`
checks only the leaves, as each `App` and `Abs` checked itself when built.
Every walk runs on an explicit stack and no kernel function calls itself:
term depth is not bounded by recursion.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .errors import SignatureError, TypeMismatch, UnknownIdentifier


class _Node:
    """A type or term node: `==`, hash and `Class(field=value, ...)` by `_fields`."""
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields) if cls._fields else None  # the fields at once

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _equal(s: TyArr | App | Abs, t: object) -> bool:
    """`==` of arrow types and of App and Abs nodes, on one explicit stack:
    the same shape and equal leaves, an Abs's binder type compared as one
    more pair and its hint ignored; a pair of one object is not entered.
    Another class is left to its own comparison."""
    if t.__class__ is not s.__class__:
        return NotImplemented
    stack: list[Ty | Term] = []  # pending pairs, flattened: a, b, a, b, ...
    a, b = s, t
    while True:
        if a is not b:
            cls = a.__class__
            if cls is not b.__class__:
                return False
            if cls is App:  # compare the functions now, the arguments later
                stack.append(a.arg)
                stack.append(b.arg)
                a, b = a.fn, b.fn
                continue
            if cls is Abs:  # the binder types now, the bodies later
                stack.append(a.body)
                stack.append(b.body)
                a, b = a.arg_ty, b.arg_ty
                continue
            if cls is TyArr:  # the domains now, the codomains later
                stack.append(a.cod)
                stack.append(b.cod)
                a, b = a.dom, b.dom
                continue
            if not a == b:
                return False
        if not stack:
            return True
        b = stack.pop()
        a = stack.pop()


# -- types ---------------------------------------------------------------------

class Ty(_Node):
    """A simple type; its repr is the concrete syntax, arrows associating to
    the right, so every printer writes types with `{ty!r}`."""
    __slots__ = ()


class TyCon(Ty):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class TyArr(Ty):
    """`dom -> cod`.  Its `==` is `_equal`, as App's and Abs's are, and its
    hash, hash((dom, cod)), is stored when it is built."""
    __slots__ = ("dom", "cod", "_hash")
    __eq__ = _equal

    def __init__(self, dom: Ty, cod: Ty):
        self.dom, self.cod = dom, cod
        self._hash = hash((dom, cod))

    def __repr__(self):
        return ty_text(self)

    def __hash__(self):
        return self._hash


O = TyCon("o")        # type of object-logic formulas
BIN_TY = TyArr(O, TyArr(O, O))  # the type of `=>` and `&`
RESERVED_TYPES = frozenset({"o", "prop"})  # prop: emitted Abella text

IMP_NAME = "=>"
AND_NAME = "&"
TOP_NAME = "true"
PI_NAME = "pi"
LOGICAL_NAMES = frozenset({IMP_NAME, AND_NAME, TOP_NAME, PI_NAME})


def arrow(*tys: Ty) -> Ty:
    """Right-associated arrow type from a list of types (last is the result)."""
    if not tys:
        raise ValueError("arrow() needs at least one type")
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = TyArr(t, out)
    return out


def ty_text(ty: Ty, resolve: Callable[[Ty], Ty] | None = None) -> str:
    """ty's concrete syntax, arrows associating to the right, written from an
    explicit stack of types and the text between them.  `resolve`, when
    given, maps each type to the one it stands for before it is written."""
    out: list[str] = []
    todo: list[Ty | str] = [ty]
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
            continue
        if resolve is not None:
            t = resolve(t)
        if isinstance(t, TyArr):
            dom = t.dom if resolve is None else resolve(t.dom)
            todo += (t.cod, ") -> ", dom, "(") if isinstance(dom, TyArr) \
                else (t.cod, " -> ", dom)
        else:
            out.append(repr(t))
    return "".join(out)


def ty_flatten(ty: Ty) -> tuple[list[Ty], Ty]:
    """Split a type into (argument types, final result type)."""
    args = []
    while isinstance(ty, TyArr):
        args.append(ty.dom)
        ty = ty.cod
    return args, ty


# -- terms ---------------------------------------------------------------------

class Term(_Node):
    __slots__ = ()
    # defaults for the leaves; App and Abs hold their own, set when built
    ground = True   # no Meta below this node
    normal = True   # conservatively beta-eta-normal
    loose = 0       # one more than the largest loose index below this node


class Const(Term):
    __slots__ = _fields = ("name", "ty")

    def __init__(self, name: str, ty: Ty):
        self.name, self.ty = name, ty


class Var(Term):
    """A free, named variable."""
    __slots__ = _fields = ("name", "ty")
    __init__ = Const.__init__


class Meta(Term):
    """An instantiable variable used by the proof-search engine."""
    __slots__ = _fields = ("name", "ty", "uid")
    ground = False

    def __init__(self, name: str, ty: Ty, uid: int):
        self.name, self.ty, self.uid = name, ty, uid


class Bound(Term):
    _fields = ("idx", "ty")
    __slots__ = (*_fields, "loose")

    def __init__(self, idx: int, ty: Ty):
        self.idx, self.ty, self.loose = idx, ty, idx + 1


def _cached_hash(t: App | Abs) -> int:
    """The hash of an App or Abs, kept once computed."""
    try:
        return t._hash
    except AttributeError:
        return _fill_hashes(t)


class Abs(Term):
    _fields = ("arg_ty", "body", "hint")  # the hint is shown but not compared
    __slots__ = (*_fields, "ty", "ground", "normal", "loose", "_hash")
    __eq__ = _equal
    __hash__ = _cached_hash

    def __init__(self, arg_ty: Ty, body: Term, hint: str = "x"):
        self.arg_ty, self.body, self.hint = arg_ty, body, hint
        self.ty = TyArr(arg_ty, body.ty)
        self.ground = body.ground
        loose = body.loose
        self.loose = loose - 1 if loose else 0
        self.normal = body.normal and not (
            body.__class__ is App and body.arg.__class__ is Bound and body.arg.idx == 0)


class App(Term):
    _fields = ("fn", "arg")
    __slots__ = (*_fields, "ty", "ground", "normal", "loose", "_hash")
    __eq__ = _equal
    __hash__ = _cached_hash

    def __init__(self, fn: Term, arg: Term):
        fty = fn.ty
        if fty.__class__ is not TyArr:
            raise TypeMismatch(f"applying a non-function of type {fty!r}")
        if fty.dom is not arg.ty and fty.dom != arg.ty:
            raise TypeMismatch(f"argument type {arg.ty!r} does not match domain {fty.dom!r}")
        self.fn, self.arg, self.ty = fn, arg, fty.cod
        self.ground = fn.ground and arg.ground
        loose, a = fn.loose, arg.loose
        self.loose = a if a > loose else loose
        self.normal = fn.normal and arg.normal and fn.__class__ is not Abs


def _fill_hashes(t: App | Abs) -> int:
    """Cache the hash of t and of every App/Abs below it that has none,
    children first, so that no hash call recurses: an App hashes as
    hash((fn, arg)) and an Abs as hash((arg_ty, body))."""
    stack = [t]
    while stack:
        n = stack[-1]
        parts = (n.fn, n.arg) if n.__class__ is App else (n.arg_ty, n.body)
        ready = True
        for k in parts:
            if (k.__class__ is App or k.__class__ is Abs) and not hasattr(k, "_hash"):
                stack.append(k)
                ready = False
        if ready:  # a node shared below t may be hashed twice, to the same value
            stack.pop()
            n._hash = hash(parts)
    return t._hash


# -- the two traversals ------------------------------------------------------------

def map_leaves(t: Term, f: Callable[[Term, int], Term],
               metas_only: bool = False, loose_only: bool = False) -> Term:
    """`t` with each leaf u (any node but Abs/App) replaced by f(u, k), where
    k is the number of binders above u, from left to right.  A subterm in
    which nothing changed is returned as the same object, so callers may
    test results with `is`.  With metas_only, f only ever changes a Meta
    leaf, so ground subterms are returned without being entered.  With
    loose_only, f only ever changes a Bound leaf whose index is at least k,
    so a subterm with no such index (`loose` at most k) is not entered."""
    out: list[Term] = []  # rebuilt subterms, in order
    stack: list[tuple[Term, int]] = []  # arguments to enter, and (node, -1) to rebuild
    u, k = t, 0
    while True:
        while True:  # descend along fn chains to a leaf, or to a subterm not entered
            if metas_only and u.ground or loose_only and u.loose <= k:
                out.append(u)
                break
            if u.__class__ is App:
                stack.append((u, -1))
                stack.append((u.arg, k))
                u = u.fn
            elif u.__class__ is Abs:
                stack.append((u, -1))
                u, k = u.body, k + 1
            else:
                out.append(f(u, k))
                break
        while stack:  # rebuild the nodes whose children are done
            u, k = stack.pop()
            if k >= 0:  # an argument: enter it
                break
            if u.__class__ is App:
                arg = out.pop()
                out[-1] = u if out[-1] is u.fn and arg is u.arg else App(out[-1], arg)
            else:
                out[-1] = u if out[-1] is u.body else Abs(u.arg_ty, out[-1], u.hint)
        else:
            return out[0]


def leaves(t: Term) -> Iterator[tuple[Term, int]]:
    """The leaves of t from left to right, each with the number of binders above it."""
    stack = [(t, 0)]
    while stack:
        u, k = stack.pop()
        while True:  # descend in place; only arguments wait on the stack
            if isinstance(u, App):
                stack.append((u.arg, k))
                u = u.fn
            elif isinstance(u, Abs):
                u = u.body
                k += 1
            else:
                yield u, k
                break


# -- binders: the one way to open them and the one way to close them ---------------

def shift(t: Term, d: int) -> Term:
    """t with every loose index raised by d; a closed t is returned at once."""
    if d == 0 or not t.loose:
        return t
    return map_leaves(t, lambda u, k: Bound(u.idx + d, u.ty), loose_only=True)


def instantiate(t: Term, values: Sequence[Term]) -> Term:
    """Open the m = len(values) binders t sits under, outermost first: each
    of the m outermost loose indices of t becomes its value, shifted under
    the binders inside t, and every index beyond them is lowered by m, in
    one rebuild however many binders are opened."""
    m = len(values)

    def leaf(u: Term, k: int) -> Term:  # only a Bound with u.idx >= k gets here
        j = u.idx - k
        return shift(values[m - 1 - j], k) if j < m else Bound(u.idx - m, u.ty)

    return map_leaves(t, leaf, loose_only=True) if m else t


def abstract(t: Term, binders: Sequence[tuple[str, Ty]]) -> Term:
    """t with each free variable named in binders (outermost first) replaced
    by its binder's index, in one rebuild: the mirror of `instantiate`.  A
    name given twice is bound by the inner binder; a variable used at a type
    other than its binder's raises TypeMismatch."""
    n = len(binders)
    position = {name: i for i, (name, _) in enumerate(binders)}  # the inner one wins

    def leaf(u: Term, k: int) -> Term:
        i = position.get(u.name) if u.__class__ is Var else None
        if i is None:
            return u
        ty = binders[i][1]
        if u.ty != ty:
            raise TypeMismatch(f"variable {u.name} used at type {u.ty!r}, bound at {ty!r}")
        return Bound(k + n - 1 - i, ty)

    return map_leaves(t, leaf) if n else t


def lam(name: str, ty: Ty, body: Term) -> Term:
    """Abstract the free variable `name : ty` out of body."""
    return Abs(ty, abstract(body, ((name, ty),)), name)


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind applications: returns (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def app_spine(head: Term, args: list[Term] | tuple[Term, ...]) -> Term:
    out = head
    for a in args:
        out = App(out, a)
    return out


# -- free variables / occurrence checks ------------------------------------------

def free_vars(t: Term) -> set[str]:
    return {u.name for u, _ in leaves(t) if isinstance(u, Var)}


def free_vars_ordered(t: Term) -> list[Var]:
    """Free Var nodes in first-occurrence order (each name once)."""
    seen: dict[str, Var] = {}
    for u, _ in leaves(t):
        if isinstance(u, Var):
            seen.setdefault(u.name, u)
    return list(seen.values())


def metas_of(t: Term) -> list[Meta]:
    if t.ground:
        return []
    seen: dict[int, Meta] = {}
    for u, _ in leaves(t):
        if isinstance(u, Meta):
            seen.setdefault(u.uid, u)
    return list(seen.values())


# -- metavariable substitution ----------------------------------------------------

def resolver(binding: dict[int, Term]) -> Callable[[Term], Term]:
    """The substitution of binding's metavariables, following chained
    bindings, as one function for any number of terms.  Each bound
    metavariable is resolved once, however often and in however many terms
    it occurs (the result is shifted under binders, at no cost when it is
    closed); ground subterms are not entered.  Chains are followed on an
    explicit stack: a binding that holds bound metavariables not yet
    resolved is resolved again after them, so a chain's length is not
    bounded by the recursion limit.  Bindings must be acyclic (a cycle
    raises ValueError)."""
    resolved: dict[int, Term] = {}
    missing: list[int] = []  # bound, unresolved metavariables the last rebuild met

    def ready(u: Term, k: int) -> Term:
        # only Meta leaves get here: every other leaf is ground
        r = resolved.get(u.uid)
        if r is None:
            if u.uid in binding:
                missing.append(u.uid)
            return u
        return shift(r, k)

    def leaf(u: Term, k: int) -> Term:
        if u.uid in binding and u.uid not in resolved:
            todo, waiting = [u.uid], set()  # waiting: rebuilt with some of todo missing
            while todo:
                uid = todo[-1]
                if uid in resolved:
                    todo.pop()
                    continue
                r = map_leaves(binding[uid], ready, metas_only=True)
                if not missing:
                    resolved[uid] = r
                    waiting.discard(todo.pop())
                    continue
                if waiting.intersection(missing):
                    raise ValueError("cyclic metavariable binding")
                waiting.add(uid)
                todo.extend(missing)
                missing.clear()
        return ready(u, k)

    return lambda t: map_leaves(t, leaf, metas_only=True)


def subst_metas(t: Term, binding: dict[int, Term]) -> Term:
    """Replace bound metavariables; shifts replacements under binders."""
    return resolver(binding)(t)


# -- normalization ------------------------------------------------------------------

def normalize(t: Term) -> Term:
    """Beta-eta-normal form, equal (binder hints too) to full beta, then eta,
    in one walk.  While an application's head is an abstraction, its binders
    are opened with the arguments as they stand, in one `instantiate`; only
    a rigid head's arguments are normalized, so no abstraction a contraction
    consumes was eta-contracted.  An `Abs` is eta-contracted once its body is."""
    if t.normal:
        return t
    out: list[Term] = []  # normal forms of the finished subterms, in order
    stack: list = [t]  # terms, and (abs,) or (head, apps or None, n) to finish
    while stack:
        u = stack.pop()
        if u.__class__ is not tuple:
            if u.normal:
                out.append(u)
            elif u.__class__ is Abs:
                stack += ((u,), u.body)
            else:
                head, apps, rest = u, [], []  # rest: the arguments, leftmost last
                while head.__class__ is App and not head.normal:
                    apps.append(head)
                    rest.append(head.arg)
                    head = head.fn
                while head.__class__ is Abs and rest:
                    values = []
                    while head.__class__ is Abs and rest:
                        values.append(rest.pop())
                        head = head.body
                    head, apps = instantiate(head, values), None
                    while head.__class__ is App and not head.normal:
                        rest.append(head.arg)
                        head = head.fn
                stack.append((head, apps, len(rest)) if rest else head)
                stack += rest
        elif len(u) == 1:
            u, body = u[0], out[-1]
            if body.__class__ is App and body.arg.__class__ is Bound \
                    and body.arg.idx == 0 and not any(  # index 0 not used in fn
                        v.__class__ is Bound and v.idx == d for v, d in leaves(body.fn)):
                out[-1] = shift(body.fn, -1)
            else:
                out[-1] = u if body is u.body else Abs(u.arg_ty, body, u.hint)
        else:
            r, apps, n = u
            for i, a in enumerate(out[-n:]):
                app = apps[-1 - i] if apps else None  # the application a came from
                r = app if app is not None and r is app.fn and a is app.arg else App(r, a)
            del out[-n:]
            out.append(r)
    return out[0]


# -- signatures ------------------------------------------------------------------------

class Signature:
    """A map from constant names to types, not changed once shared:
    `extend_const` returns an extended copy (`parse_source` fills its own
    table in place before it returns it)."""

    __slots__ = ("consts",)

    def __init__(self, consts: dict[str, Ty] | None = None):
        self.consts: dict[str, Ty] = dict(consts or {})

    def lookup(self, name: str) -> Ty | None:
        return self.consts.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.consts

    def extend_const(self, name: str, ty: Ty) -> "Signature":
        if name in self:
            raise SignatureError(f"identifier already declared: {name}")
        out = Signature(self.consts)
        out.consts[name] = ty
        return out


def _logical_ty_ok(name: str, ty: Ty) -> bool:
    if name in (IMP_NAME, AND_NAME):
        return ty == BIN_TY
    if name == TOP_NAME:
        return ty == O
    # pi_t : (t -> o) -> o for each type t
    return (isinstance(ty, TyArr) and isinstance(ty.dom, TyArr)
            and ty.dom.cod == O and ty.cod == O)


def infer_type(sig: Signature, t: Term, known: dict[int, Term] | None = None) -> Ty:
    """Type of t under sig.  Each App and Abs checked its own type when
    built, so only the leaves are checked, left to right, each with the
    binder types above it (a linked list, innermost first).  Raises
    UnknownIdentifier for a constant/variable absent from sig, TypeMismatch
    for one at another type, a mistyped logical constant, or an index that
    is dangling or disagrees with its binder.

    `known`, when given, holds closed App and Abs subterms already found
    well typed under this same sig, by id (it keeps them alive): none of
    them is entered, and every closed one this call enters joins it once
    all of t has checked."""
    stack: list[tuple[Term, tuple | None]] = [(t, None)]
    entered: list[Term] = []
    while stack:
        u, env = stack.pop()
        while True:  # descend in place; only arguments wait on the stack
            if known is not None and not u.loose and isinstance(u, (App, Abs)):
                if id(u) in known:
                    break
                entered.append(u)
            if isinstance(u, App):
                stack.append((u.arg, env))
                u = u.fn
            elif isinstance(u, Abs):
                env = (u.arg_ty, env)
                u = u.body
            else:
                break
        if isinstance(u, Const) and u.name in LOGICAL_NAMES:
            if not _logical_ty_ok(u.name, u.ty):
                raise TypeMismatch(f"logical constant {u.name} used at {u.ty!r}")
        elif isinstance(u, (Const, Var)):
            declared = sig.lookup(u.name)
            if declared is None:
                raise UnknownIdentifier(u.name)
            if declared != u.ty:
                raise TypeMismatch(
                    f"{u.name} declared at {declared!r} but used at {u.ty!r}")
        elif isinstance(u, Bound):
            for _ in range(u.idx):
                env = env and env[1]
            if env is None:
                raise TypeMismatch(f"dangling bound index {u.idx}")
            if env[0] != u.ty:
                raise TypeMismatch(
                    f"bound variable annotated {u.ty!r} under binder of {env[0]!r}")
        elif not isinstance(u, (Meta, App, Abs)):  # an App or Abs here is known
            raise TypeMismatch(f"unrecognized term node {u!r}")
    if known is not None:
        known.update((id(u), u) for u in entered)
    return t.ty


# -- printing ---------------------------------------------------------------------------

def fresh_name(base: str, taken: set[str],
               next_suffix: dict[str, int] | None = None) -> str:
    """base, or base with the least numeric suffix absent from taken.

    A caller naming a run of binders against a taken set that only grows
    passes one next_suffix dict for the whole run: a base's least absent
    suffix then never decreases, so each scan resumes where the last one for
    that base stopped, and n binders with one hint cost O(n), not O(n^2)."""
    if base not in taken:
        return base
    next_suffix = {} if next_suffix is None else next_suffix
    i = next_suffix.get(base, 1)
    while f"{base}{i}" in taken:
        i += 1
    next_suffix[base] = i + 1
    return f"{base}{i}"
