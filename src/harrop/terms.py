"""Simply-typed lambda-calculus kernel.

Terms use a locally nameless representation: bound variables are de Bruijn
indices (`Bound`), free variables and constants are named.  Binder nodes keep
the surface name only as a printing hint, excluded from equality, so plain
`==` on terms is alpha-equivalence.  Types are checked eagerly, Church style:
every node can report its type locally and ill-typed applications cannot be
constructed.

Every node carries three facts, fixed when it is built: its type `ty`,
`ground` (no `Meta` below it) and `normal`.  `normal` is conservative: it may
be False on a beta-eta-normal term but is never True on one that is not (an
`Abs` whose body is an application to index 0 is left for `eta_contract` to
decide).  An `App` or `Abs` reads these from its children, so building one
costs O(1), and its hash, which ignores binder hints as `==` does, is
computed on first use, children first with an explicit stack, and kept.
None of them shows in `repr` or `==`, and `==` too walks an explicit stack,
so neither hashing nor comparing a term is bounded by the recursion limit.

Every walk that only looks at or replaces leaves (any node that is not `Abs`
or `App`) goes through one of two traversals.  `map_leaves` rebuilds a term
with each leaf replaced by a function of the leaf and the number of binders
above it; shifting, opening, closing and metavariable substitution are leaf
functions over it.  Sharing rule: it returns every subterm in which nothing
changed as the same object, so an unchanged term costs no allocation and no
type check, and metavariable substitution (`resolver`) does not even enter a
ground subtree.  `leaves` yields the leaves from left to right with an
explicit stack; free variables, metavariables and index occurrences
are read through it, at any term depth.  Normalization and type
inference are not leaf walks and recurse on their own; normalization keeps
the same sharing rule and returns a `normal` term at once, so a term already
in normal form comes back as itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import SignatureError, TypeMismatch, UnknownIdentifier


# -- types ---------------------------------------------------------------------

@dataclass(frozen=True)
class Ty:
    """A simple type; its repr is the concrete syntax, arrows associating to
    the right, so every printer writes types with `{ty!r}`."""


@dataclass(frozen=True)
class TyCon(Ty):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class TyArr(Ty):
    dom: Ty
    cod: Ty

    def __repr__(self):
        d = f"({self.dom!r})" if isinstance(self.dom, TyArr) else repr(self.dom)
        return f"{d} -> {self.cod!r}"


O = TyCon("o")        # type of object-logic formulas
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


def ty_flatten(ty: Ty) -> tuple[list[Ty], Ty]:
    """Split a type into (argument types, final result type)."""
    args = []
    while isinstance(ty, TyArr):
        args.append(ty.dom)
        ty = ty.cod
    return args, ty


# -- terms ---------------------------------------------------------------------

_set = object.__setattr__  # how a frozen dataclass sets a field after __init__


@dataclass(frozen=True, slots=True)
class Term:
    # defaults for the leaves; App and Abs hold their own, set when built
    ground = True   # no Meta below this node
    normal = True   # conservatively beta-eta-normal


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str
    ty: Ty


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A free, named variable."""
    name: str
    ty: Ty


@dataclass(frozen=True, slots=True)
class Meta(Term):
    """An instantiable variable used by the proof-search engine."""
    name: str
    ty: Ty
    uid: int
    ground = False


@dataclass(frozen=True, slots=True)
class Bound(Term):
    idx: int
    ty: Ty


def _equal(s: App | Abs, t: object) -> bool:
    """`==` of App and Abs nodes, on an explicit stack: the same shape, equal
    leaves and equal binder types, ignoring hints; a pair of one object is
    not entered.  Another class is left to its own comparison."""
    if t.__class__ is not s.__class__:
        return NotImplemented
    stack: list[Term] = []  # pending pairs, flattened: a, b, a, b, ...
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
            if cls is Abs:
                if not a.arg_ty == b.arg_ty:
                    return False
                a, b = a.body, b.body
                continue
            if not a == b:
                return False
        if not stack:
            return True
        b = stack.pop()
        a = stack.pop()


@dataclass(frozen=True, slots=True)
class Abs(Term):
    arg_ty: Ty
    body: Term
    hint: str = field(default="x", compare=False)
    ty: Ty = field(init=False, repr=False, compare=False)
    ground: bool = field(init=False, repr=False, compare=False)
    normal: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        body = self.body
        _set(self, "ty", TyArr(self.arg_ty, body.ty))
        _set(self, "ground", body.ground)
        _set(self, "normal", body.normal and not (
            isinstance(body, App) and isinstance(body.arg, Bound) and body.arg.idx == 0))

    __eq__ = _equal

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _fill_hashes(self)


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term
    ty: Ty = field(init=False, repr=False, compare=False)
    ground: bool = field(init=False, repr=False, compare=False)
    normal: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fn, arg = self.fn, self.arg
        fty = fn.ty
        if not isinstance(fty, TyArr):
            raise TypeMismatch(f"applying a non-function of type {fty!r}")
        if fty.dom is not arg.ty and fty.dom != arg.ty:
            raise TypeMismatch(f"argument type {arg.ty!r} does not match domain {fty.dom!r}")
        _set(self, "ty", fty.cod)
        _set(self, "ground", fn.ground and arg.ground)
        _set(self, "normal", fn.normal and arg.normal and not isinstance(fn, Abs))

    __eq__ = _equal

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _fill_hashes(self)


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
            _set(n, "_hash", hash(parts))
    return t._hash


def type_of(t: Term) -> Ty:
    """The structural type of a term (no signature consulted)."""
    return t.ty


# -- the two traversals ------------------------------------------------------------

def map_leaves(t: Term, f: Callable[[Term, int], Term],
               metas_only: bool = False) -> Term:
    """`t` with each leaf u (any node but Abs/App) replaced by f(u, k), where
    k is the number of binders above u.  A subterm in which nothing changed
    is returned as the same object, so callers may test results with `is`.
    With metas_only, f only ever changes a Meta leaf, so ground subterms are
    returned without being entered."""
    def go(u: Term, k: int) -> Term:
        if metas_only and u.ground:
            return u
        if isinstance(u, App):
            fn = go(u.fn, k)
            arg = go(u.arg, k)
            return u if fn is u.fn and arg is u.arg else App(fn, arg)
        if isinstance(u, Abs):
            body = go(u.body, k + 1)
            return u if body is u.body else Abs(u.arg_ty, body, u.hint)
        return f(u, k)

    return go(t, 0)


def leaves(t: Term) -> Iterator[tuple[Term, int]]:
    """The leaves of t from left to right, each with the number of binders
    above it; an explicit stack, so term depth is not bounded by recursion."""
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


# -- de Bruijn plumbing ----------------------------------------------------------

def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    if d == 0:
        return t
    return map_leaves(t, lambda u, k: Bound(u.idx + d, u.ty)
                      if isinstance(u, Bound) and u.idx >= cutoff + k else u)


def open_term(body: Term, repl: Term, depth: int = 0) -> Term:
    """Replace Bound(depth) with repl, removing one binder level."""
    def leaf(u: Term, k: int) -> Term:
        if isinstance(u, Bound):
            if u.idx == depth + k:
                return shift(repl, depth + k)
            if u.idx > depth + k:
                return Bound(u.idx - 1, u.ty)
        return u

    return map_leaves(body, leaf)


def close_term(t: Term, name: str, ty: Ty, depth: int = 0) -> Term:
    def leaf(u: Term, k: int) -> Term:
        if isinstance(u, Var) and u.name == name:
            if u.ty != ty:
                raise TypeMismatch(f"variable {name} used at type {u.ty!r}, bound at {ty!r}")
            return Bound(depth + k, ty)
        return u

    return map_leaves(t, leaf)


def lam(name: str, ty: Ty, body: Term) -> Term:
    """Abstract the free variable `name : ty` out of body."""
    return Abs(ty, close_term(body, name, ty), name)


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


def _uses_index(t: Term, idx: int) -> bool:
    return any(isinstance(u, Bound) and u.idx == idx + k for u, k in leaves(t))


# -- metavariable substitution ----------------------------------------------------

def resolver(binding: dict[int, Term]) -> Callable[[Term], Term]:
    """The substitution of binding's metavariables, following chained
    bindings, as one function for any number of terms.  Each bound
    metavariable is resolved once, however often and in however many terms
    it occurs (the result is shifted under binders); ground subterms are not
    entered.  Bindings must be acyclic."""
    resolved: dict[int, Term] = {}

    def leaf(u: Term, k: int) -> Term:
        # only Meta leaves get here: every other leaf is ground
        r = resolved.get(u.uid)
        if r is None:
            if u.uid not in binding:
                return u
            r = resolved[u.uid] = map_leaves(binding[u.uid], leaf, metas_only=True)
        return shift(r, k)

    return lambda t: map_leaves(t, leaf, metas_only=True)


def subst_metas(t: Term, binding: dict[int, Term]) -> Term:
    """Replace bound metavariables; shifts replacements under binders."""
    return resolver(binding)(t)


# -- normalization ------------------------------------------------------------------

def beta_normalize(t: Term) -> Term:
    """Full beta-normal form, normal (leftmost-outermost) order."""
    if t.normal:
        return t
    if isinstance(t, App):
        fn = beta_normalize(t.fn)
        if isinstance(fn, Abs):
            return beta_normalize(open_term(fn.body, t.arg))
        arg = beta_normalize(t.arg)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Abs):
        body = beta_normalize(t.body)
        return t if body is t.body else Abs(t.arg_ty, body, t.hint)
    return t


def eta_contract(t: Term) -> Term:
    """Bottom-up eta-contraction; on beta-normal input the result is eta-normal."""
    if t.normal:
        return t
    if isinstance(t, App):
        fn, arg = eta_contract(t.fn), eta_contract(t.arg)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Abs):
        body = eta_contract(t.body)
        if isinstance(body, App) and isinstance(body.arg, Bound) and body.arg.idx == 0 \
                and not _uses_index(body.fn, 0):
            return shift(body.fn, -1)
        return t if body is t.body else Abs(t.arg_ty, body, t.hint)
    return t


def normalize(t: Term) -> Term:
    """Beta-eta-normal form: full beta first, then eta to a fixed point."""
    return eta_contract(beta_normalize(t))


# -- signatures ------------------------------------------------------------------------

class Signature:
    """An immutable map from constant names to types."""

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

    def __repr__(self):
        return f"Signature({', '.join(f'{n}:{t!r}' for n, t in self.consts.items())})"


def _logical_ty_ok(name: str, ty: Ty) -> bool:
    bin_ty = TyArr(O, TyArr(O, O))
    if name in (IMP_NAME, AND_NAME):
        return ty == bin_ty
    if name == TOP_NAME:
        return ty == O
    # pi_t : (t -> o) -> o for each type t
    return (isinstance(ty, TyArr) and isinstance(ty.dom, TyArr)
            and ty.dom.cod == O and ty.cod == O)


def infer_type(sig: Signature, t: Term) -> Ty:
    """Type of t under sig, checking the typing rules throughout.

    Raises UnknownIdentifier for constants/variables absent from sig and
    TypeMismatch when an application's domain disagrees with its argument,
    when a declared type conflicts with a node annotation, or when an index
    disagrees with its binder.
    """
    def go(u: Term, env: list[Ty]) -> Ty:
        if isinstance(u, Meta):
            return u.ty
        if isinstance(u, Const) and u.name in LOGICAL_NAMES:
            if not _logical_ty_ok(u.name, u.ty):
                raise TypeMismatch(f"logical constant {u.name} used at {u.ty!r}")
            return u.ty
        if isinstance(u, (Const, Var)):
            declared = sig.lookup(u.name)
            if declared is None:
                raise UnknownIdentifier(u.name)
            if declared != u.ty:
                raise TypeMismatch(
                    f"{u.name} declared at {declared!r} but used at {u.ty!r}")
            return declared
        if isinstance(u, Bound):
            if u.idx >= len(env):
                raise TypeMismatch(f"dangling bound index {u.idx}")
            if env[u.idx] != u.ty:
                raise TypeMismatch(
                    f"bound variable annotated {u.ty!r} under binder of {env[u.idx]!r}")
            return u.ty
        if isinstance(u, Abs):
            body_ty = go(u.body, [u.arg_ty] + env)
            return TyArr(u.arg_ty, body_ty)
        if isinstance(u, App):
            fty = go(u.fn, env)
            aty = go(u.arg, env)
            if not isinstance(fty, TyArr):
                raise TypeMismatch(f"applying a non-function of type {fty!r}")
            if fty.dom != aty:
                raise TypeMismatch(
                    f"argument type {aty!r} does not match domain {fty.dom!r}")
            return fty.cod
        raise TypeMismatch(f"unrecognized term node {u!r}")

    return go(t, [])


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
