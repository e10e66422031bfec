"""Goal formulas and program clauses over the term kernel.

Formulas are ordinary terms of type `o` built with the logical constants
`true`, `&`, `=>` and the `pi` quantifier family, so alpha-equality, beta-eta
normalization and substitution all come from the kernel for free.  This
module supplies the grammar views:

    G ::= true | Ar | G & G | D => G | pi x. G
    D ::= G => Ar | pi x. D          (facts are bare rigid atoms)

All of them read one walk along the `pi`/`=>` spine: `read_spine` follows
`=>` consequents and `pi` bodies and opens no binder.  Goal reduction,
`reduce_spine`, is that walk plus binder naming: it names each pi variable
once and opens the binders passed with `instantiate`, one rebuild per
antecedent and one for the rest.  (The search engine reads a clause's shape
from the same walk.)  `quantify` closes named binders with `abstract`, for
`pi`; the parser closes a clause's implicit variables as it builds it.
The grammar checks, the head (`head_pred`), the body L(G) (`body`) and the
clause shape `pi xs. (G1 & ... & Gn) => A` the collectors match on
(`normalize_clause`, which also keeps each Gi's head and body) classify what
it reaches with `formula_view`; none of them recurses, so formula depth is
bounded by memory, not by the stack.
The Program container, which keeps what the parser knew of each clause,
and its `Clauses`, which record the signature the parser checked them
under, complete the module.

One precedence printer, `printer(syntax, rename)`, writes both concrete
syntaxes, `.hh` (`HH`) and Abella's (`abella.ABELLA`), with free variables
renamed by `rename`.  A `Syntax` record holds all the syntaxes differ in:
`&`'s text (`conj`) and levels (`conj_levels`), whether `pi` shows its type
(`typed_pi`), the metavariable prefix (`meta`) and a binder hint's base name
(`base`).  A printer runs on an explicit stack and serves any number of
formulas.  It prints each formula object once per level, and keeps the text
of every `App` subterm that printed no binder and no index, which depends on
that subterm alone.  A binder only has to avoid the names free beneath it:
its name avoids the formula's own names (its constants and renamed free
variables), kept for every subterm met so a shared one is walked once, and
the binders above.  So a formula's text depends on the formula and `rename`
alone, not on the text around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import NoHead, NonRigidAtomError, NotAClause
from .terms import (
    AND_NAME, BIN_TY, IMP_NAME, LOGICAL_NAMES, PI_NAME, TOP_NAME,
    O, Abs, App, Bound, Const, Meta, Signature, Term, Ty, TyArr, Var,
    abstract, fresh_name, free_vars, free_vars_ordered, instantiate,
    leaves, map_leaves, normalize, shift, spine, ty_flatten,
)

TOP = Const(TOP_NAME, O)
CONNECTIVES = {name: Const(name, BIN_TY) for name in (IMP_NAME, AND_NAME)}


def imp(antecedent: Term, consequent: Term) -> Term:
    return App(App(CONNECTIVES[IMP_NAME], antecedent), consequent)


def conj(left: Term, right: Term) -> Term:
    return App(App(CONNECTIVES[AND_NAME], left), right)


def pi(name: str, ty: Ty, body: Term) -> Term:
    """pi x:ty. body, with body given in named form."""
    return quantify(((name, ty),), body)


def quantify(binders: Sequence[tuple[str, Ty]], body: Term) -> Term:
    """pi x1:t1. ... pi xn:tn. body for the named variables of binders
    (outermost first), with body given in named form: every binder is closed
    in one `abstract` of body, the mirror of `reduce_spine`'s one-pass open."""
    t = abstract(body, binders)
    for name, ty in reversed(binders):
        t = App(Const(PI_NAME, TyArr(TyArr(ty, O), O)), Abs(ty, t, name))
    return t


# -- views -----------------------------------------------------------------------

class GTop:
    __slots__ = ()


class GAtom:
    __slots__ = ("pred", "args", "term")

    def __init__(self, pred: str, args: tuple[Term, ...], term: Term):
        self.pred, self.args, self.term = pred, args, term


class GAnd:
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left, self.right = left, right


class GImp:
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Term, consequent: Term):
        self.antecedent, self.consequent = antecedent, consequent


class GPi:
    __slots__ = ("ty", "fn")  # fn: the abstraction of type ty -> o

    def __init__(self, ty: Ty, fn: Term):
        self.ty, self.fn = ty, fn


GView = GTop | GAtom | GAnd | GImp | GPi


def formula_view(t: Term) -> GView:
    """Classify a type-o term by its top connective.

    Atoms with a non-constant head (variable, metavariable, bound index or
    abstraction) raise NonRigidAtomError, which shows the head in `.hh`
    syntax; `formula_view` never applies reduction, so pass normalized terms.
    """
    head, args = spine(t)
    if isinstance(head, Const):
        if head.name == TOP_NAME and not args:
            return GTop()
        if head.name == AND_NAME and len(args) == 2:
            return GAnd(args[0], args[1])
        if head.name == IMP_NAME and len(args) == 2:
            return GImp(args[0], args[1])
        if head.name == PI_NAME and len(args) == 1:
            fn = args[0]
            fty = fn.ty
            assert isinstance(fty, TyArr)
            return GPi(fty.dom, fn)
        if head.name in LOGICAL_NAMES:
            raise NonRigidAtomError(f"partially applied logical constant {head.name}")
        return GAtom(head.name, tuple(args), t)
    raise NonRigidAtomError(f"formula head is not a predicate constant: {pp_formula(head)}")


# -- goal reduction ----------------------------------------------------------------

# each node of a spine, outermost first: a `pi` node with its abstraction
# and None, or an `=>` node with None and its antecedent
SpineNode = tuple[Term, Abs | None, Term | None]


def read_spine(t: Term) -> tuple[list[SpineNode], Term]:
    """Follow t's `=>` consequents and `pi` bodies until a formula that is
    neither, opening no binder.  Returns the nodes passed, outermost first,
    and the formula reached, under all of them.  An eta-contracted `pi g` is
    read as `pi x. g x`, a new abstraction that is not the node's argument:
    this is the one place that expands it."""
    nodes: list[SpineNode] = []
    while t.__class__ is App:
        fn = t.fn
        if fn.__class__ is App and fn.fn.__class__ is Const and fn.fn.name == IMP_NAME:
            nodes.append((t, None, fn.arg))
            t = t.arg
        elif fn.__class__ is Const and fn.name == PI_NAME:
            g = t.arg
            if g.__class__ is not Abs:
                dom = g.ty.dom
                g = Abs(dom, App(shift(g, 1), Bound(0, dom)))
            nodes.append((t, g, None))
            t = g.body
        else:
            break
    return nodes, t


def reduce_spine(t: Term) -> tuple[list[Var], list[Term], Term]:
    """Goal-reduce t: `read_spine`, then name each pi variable and open the
    binders once in each antecedent and once in the formula reached.
    Returns the pi variables in order, the antecedents and that formula.

    Each pi variable is named fresh_name(hint, free variables of t and the
    names chosen before it).  Nothing is classified here: the caller views
    the antecedents and the rest, so grammar errors come from `formula_view`.
    """
    nodes, rest = read_spine(t)
    taken: set[str] | None = None  # walked only when there is a binder to name
    next_suffix: dict[str, int] = {}
    binders: list[Var] = []
    antecedents: list[Term] = []
    for _, g, a in nodes:
        if g is None:
            antecedents.append(instantiate(a, binders))
            continue
        if taken is None:
            taken = free_vars(t)
        binders.append(Var(fresh_name(g.hint, taken, next_suffix), g.arg_ty))
        taken.add(binders[-1].name)
    return binders, antecedents, instantiate(rest, binders)


# -- grammar validation ------------------------------------------------------------

def check_goal(t: Term) -> None:
    """Check membership in the goal grammar G; raises NonRigidAtomError/NotAClause."""
    _check(t, True)


def check_clause(t: Term) -> None:
    """Check membership in the clause grammar D (facts allowed as bare atoms)."""
    _check(t, False)


def _check(t: Term, goal: bool) -> None:
    """One stack of (formula, in G, reduced) tasks: a formula's antecedents are
    checked in order before the formula they lead to is viewed, and a goal's
    conjuncts after it, left first, so the first error is the recursive one's."""
    todo: list[tuple[Term, bool, bool]] = [(t, goal, False)]
    while todo:
        t, goal, reduced = todo.pop()
        if not reduced:
            _, antecedents, rest = reduce_spine(t)
            todo.append((rest, goal, True))
            todo.extend((a, not goal, False) for a in reversed(antecedents))
            continue
        v = formula_view(t)
        if goal:
            if isinstance(v, GAnd):
                todo += ((v.right, True, False), (v.left, True, False))
        elif not isinstance(v, GAtom):
            raise NotAClause(f"not a program clause: head position holds {type(v).__name__}")


# -- heads and bodies -----------------------------------------------------------------

def atom_view(v: GView) -> GAtom:
    """v, the view of a rigid atom; raises NoHead on true/&."""
    if isinstance(v, GAtom):
        return v
    raise NoHead("true has no rigid head" if isinstance(v, GTop)
                 else "conjunction has no single head")


def head_atom(t: Term) -> Term:
    """The rigid atom a clause or goal reduces to; raises NoHead on true/&."""
    return atom_view(reduce_goal(t)[0]).term


def head_pred(t: Term) -> str:
    """The head predicate: leftmost constant of the head atom."""
    return atom_view(reduce_goal(t)[0]).pred


def reduce_goal(g: Term) -> tuple[GView, list[Term]]:
    """The view of the formula g reduces to, and g's body L(g):

    L(true) = L(A) = L(G1 & G2) = [];  L(D => G) = [D] + L(G);
    L(pi x. G) = L(G).  Order follows the reduction; duplicates are kept once.
    """
    _, antecedents, rest = reduce_spine(g)
    out: list[Term] = []
    for a in antecedents:
        if a not in out:
            out.append(a)
    return formula_view(rest), out


def body(g: Term) -> list[Term]:
    """The clause antecedents exposed while goal-reducing g to its head."""
    return reduce_goal(g)[1]


# -- normalized clause shape ------------------------------------------------------------

@dataclass(frozen=True)
class NormalClause:
    """A clause reshaped as pi binders, a flat antecedent list, and an atomic
    head, with the facts the analysis and the emitter read: the head's
    predicate, and each antecedent's head predicate (None for `true` or a
    conjunction) and body L(Gi), found by `normalize_clause`'s one reduction
    of the clause and of each antecedent, so no reader reduces one again.
    `==` and `repr` read the first three fields, which determine the rest."""
    binders: tuple[tuple[str, Ty], ...]
    antecedents: tuple[Term, ...]
    head: Term  # rigid atom; binder variables occur free
    head_pred: str = field(compare=False, repr=False)
    antecedent_heads: tuple[str | None, ...] = field(compare=False, repr=False)
    antecedent_bodies: tuple[tuple[Term, ...], ...] = field(compare=False, repr=False)


def _flatten_and(g: Term) -> list[Term]:
    """The conjuncts of g, left to right."""
    out: list[Term] = []
    todo = [g]
    while todo:
        g = todo.pop()
        if isinstance(v := formula_view(g), GAnd):
            todo += (v.right, v.left)
        else:
            out.append(g)
    return out


def normalize_clause(d: Term) -> NormalClause:
    """Hoist binders, flatten chained implications and top-level conjunctions.

    Both `G1 => G2 => A` and `(G1 & G2) => A` normalize to antecedents
    [G1, G2] with head A; interleaved pi binders are hoisted to the front.
    Each antecedent is goal-reduced once, for its head and its body; one
    that reduces to a flexible atom raises, as the goal grammar does.
    """
    binders, antecedents, rest = reduce_spine(d)
    flat = tuple(g for a in antecedents for g in _flatten_and(a))
    if not isinstance(view := formula_view(rest), GAtom):
        raise NotAClause("clause head position is not an atom")
    reduced = [reduce_goal(g) for g in flat]
    return NormalClause(tuple((v.name, v.ty) for v in binders), flat, rest, view.pred,
                        tuple(v.pred if isinstance(v, GAtom) else None for v, _ in reduced),
                        tuple(tuple(formulas) for _, formulas in reduced))


# -- canonical keys for clause sets -------------------------------------------------------

def canonical_key(t: Term) -> Term:
    """Identity of formulas in sets: beta-eta normal form with free variables
    renamed positionally.  Binder hints are already ignored by equality."""
    n = normalize(t)
    renaming = {v.name: f"_{i}" for i, v in enumerate(free_vars_ordered(n))}
    if not renaming:  # a closed formula is its own key
        return n
    return map_leaves(n, lambda u, k: Var(renaming[u.name], u.ty)
                      if isinstance(u, Var) else u)


class KeyedSet:
    """An append-only, insertion-ordered set of (key, value) entries, unique
    by key: the first value added under a key is the one kept.  `entries` is
    the list the fixpoint engine reads by position, so it only ever grows.
    A context cell holds formulas under their canonical keys, which the
    analysis' clause table computes, so a cell never keys a formula itself."""

    __slots__ = ("_keys", "entries")

    def __init__(self):
        self._keys: set = set()
        self.entries: list[tuple] = []

    def add_keyed(self, key, value) -> bool:
        if key in self._keys:
            return False
        self._keys.add(key)
        self.entries.append((key, value))
        return True

    def __iter__(self):
        return (value for _, value in self.entries)

    def __len__(self):
        return len(self.entries)

    def has_key(self, key) -> bool:
        return key in self._keys


# -- programs ----------------------------------------------------------------------------

def is_pred_ty(ty: Ty) -> bool:
    _, result = ty_flatten(ty)
    return result == O


class Clauses(tuple):
    """A program's clauses, a tuple to every reader (a slice, copy or sum is
    a plain tuple), with `checked_sig`, the `Signature` object `parse_source`
    checked their types and grammar under (None if none did), and `search`,
    their search entries, built by the first `solve` over them for all."""
    search = None

    def __new__(cls, clauses: Sequence[Term], checked_sig: Signature | None):
        out = super().__new__(cls, clauses)
        out.checked_sig = checked_sig
        return out


@dataclass(frozen=True)
class Program:
    """A signature plus clause list; the static context of all judgments.

    `clauses` is a `Clauses`, whatever sequence the program was made with.
    `named` holds what the parser knew of each clause as it closed it: the
    implicit binders its outer `pi`s close (outermost first) and its named
    form, in which they are free variables.  A program built otherwise has
    none.  `predicates` are the predicate constants occurring in the
    clauses, in first-occurrence order; the parser collects them, and
    otherwise they are read off the clauses once, when the program is made."""
    sig: Signature
    clauses: tuple[Term, ...]
    kinds: tuple[str, ...] = ()
    named: tuple[tuple[tuple[tuple[str, Ty], ...], Term], ...] = \
        field(default=(), compare=False, repr=False)
    predicates: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.clauses, Clauses):
            object.__setattr__(self, "clauses", Clauses(self.clauses, None))
        if self.predicates is None:
            object.__setattr__(self, "predicates", tuple(dict.fromkeys(
                u.name for c in self.clauses for u, _ in leaves(c)
                if isinstance(u, Const) and u.name not in LOGICAL_NAMES
                and is_pred_ty(u.ty))))


# -- formula printing -----------------------------------------------------------------------

@dataclass(frozen=True)
class Syntax:
    """What a concrete syntax decides when `printer` writes a term."""
    conj: str                          # the text between the operands of `&`
    conj_levels: tuple[int, int, int]  # `&`'s weak level, its left and right operands'
    typed_pi: bool                     # `pi x : ty \ body` rather than `pi x\ body`
    meta: str                          # the prefix of a metavariable's name
    base: Callable[[str], str]         # a binder's hint -> the name made fresh for it


HH = Syntax(" & ", (2, 2, 1), True, "?", lambda hint: hint)


def printer(syntax: Syntax = HH, rename: dict[str, str] | None = None) -> Callable[..., str]:
    """One printer in `syntax` for any number of formulas: `show(t, level=0)`
    is t's text entered at `level`, free variables renamed by `rename`.  A
    binder's name avoids t's own names and the binders above it, and no name
    of the text a caller writes around t: the names the Abella emitter writes
    there (`L`, `E`, `X1`, the goal's variables) start with a capital or `_`,
    and `ABELLA.base` lowercases a binder's first letter, so only an `_` name
    can meet one (see `abella`).  The memos are keyed by `id`, so the printer
    keeps every term it was asked to print alive."""
    rename = rename or {}
    # a binary connective -> its text, weak level, and left and right operands' levels
    binary = {IMP_NAME: (" => ", 1, 1, 0), AND_NAME: (syntax.conj, *syntax.conj_levels)}
    # (id of a formula, level) -> the formula, held so that its id is not reused, and its text
    printed: dict[tuple[int, int], tuple[Term, str]] = {}
    plain: dict[int, tuple[str, int]] = {}  # id of an App with no binder or index -> text, weak
    bits: dict[str, int] = {}    # a constant or (renamed) free variable name -> its bit
    masks: dict[int, int] = {}   # id of a subterm -> the bits of its names

    def names_of(t: Term) -> set[str]:
        """The names a binder in t avoids besides the binders above it."""
        todo = [t]
        while todo:
            u = todo[-1]  # popped once the masks of its parts are known
            cls = u.__class__
            if cls is App:
                fn, arg = masks.get(id(u.fn)), masks.get(id(u.arg))
                if fn is None or arg is None:
                    if fn is None:
                        todo.append(u.fn)
                    if arg is None:
                        todo.append(u.arg)
                    continue
                m = fn | arg
            elif cls is Abs:
                if (m := masks.get(id(u.body))) is None:
                    todo.append(u.body)
                    continue
            elif cls is Const or cls is Var:
                name = rename.get(u.name, u.name) if cls is Var else u.name
                m = bits.get(name) or bits.setdefault(name, 1 << len(bits))
            else:
                m = 0
            masks[id(u)] = m
            todo.pop()
        m = masks[id(t)]
        return {name for name, b in bits.items() if m & b}

    # precedence levels: 0 = imp, 1 = and, 2 = application, 3 = atomic; a
    # construct is parenthesized at every level from its own `weak` up.  The
    # loop descends to a term's first part in place.  The stack holds the
    # parts still to print, as (term, level) or as text, above the frame that
    # joins a term's parts, (term, level, `opened` before it, parts, separator,
    # weak); a binder's frame has the separator "", and its name leaves env
    # and avoid there, so no set is built per binder.  `opened` counts the
    # binders and indices printed.  `suffix` passes `fresh_name` where the
    # scan for each base resumes; a binder saves its base's entry on `saved`
    # and restores it when it closes, so the k-th of n nested binders with
    # one hint does not rescan the k - 1 names above it.
    def show(t: Term, level: int = 0) -> str:
        key = (id(t), level)
        if (hit := printed.get(key)) is not None:
            return hit[1]
        out: list[str] = []
        todo: list = []
        env: list[str] = []            # names of the binders above, innermost last
        avoid: set[str] | None = None  # names_of(t) from its first binder on, and env
        suffix: dict[str, int] = {}    # base -> where its next scan starts
        saved: list[tuple[str, int | None]] = []  # each binder above: its base, suffix[base]
        opened, u = 0, t
        while True:
            cls = u.__class__
            if cls is App and (hit := plain.get(id(u))) is None:
                head, args = u, []  # the spine, last argument first
                while head.__class__ is App:
                    args.append(head.arg)
                    head = head.fn
                op = head.name if head.__class__ is Const else None
                if op in binary and len(args) == 2:
                    sep, weak, left, right = binary[op]
                    todo += ((u, level, opened, 2, sep, weak), (args[0], right))
                    u, level = args[1], left
                    continue
                if op != PI_NAME or len(args) != 1 or args[0].__class__ is not Abs:
                    todo.append((u, level, opened, len(args) + 1, " ", 3))
                    for a in args:  # a constant or metavariable is printed when pushed
                        c = a.__class__
                        todo.append(a.name if c is Const else syntax.meta + a.name
                                    if c is Meta else (a, 3))
                    u, level = head, 3
                    continue
                u = args[0]
                pre, post = "pi ", f" : {u.arg_ty!r} \\ " if syntax.typed_pi else "\\ "
            elif cls is Abs:  # binders extend maximally right: parenthesized unless rightmost
                pre, post = "", "\\ "
            else:
                if cls is App:
                    s, weak = hit
                    out.append(f"({s})" if level >= weak else s)
                elif cls is Const or cls is Var:
                    out.append(rename.get(u.name, u.name) if cls is Var else u.name)
                elif cls is Meta:
                    out.append(syntax.meta + u.name)
                else:
                    opened += 1
                    out.append(env[-1 - u.idx] if u.idx < len(env) else f"#{u.idx}")
                while todo:  # join the terms whose parts are all printed
                    item = todo.pop()
                    if item.__class__ is str:
                        out.append(item)
                        continue
                    if len(item) == 2:
                        break
                    u, level, mark, n, sep, weak = item
                    s = sep.join(out[-n:])
                    del out[-n:]
                    if not sep:
                        avoid.remove(env.pop())
                        base, resume = saved.pop()
                        if resume is None:
                            suffix.pop(base, None)
                        else:
                            suffix[base] = resume
                    if opened == mark:  # printed no binder and no index: depends on u alone
                        plain[id(u)] = (s, weak)
                    out.append(f"({s})" if level >= weak else s)
                else:
                    printed[key] = t, out[0]
                    return out[0]
                u, level = item
                continue
            if avoid is None:  # the first binder of t: env is empty
                avoid = names_of(t)
            base = syntax.base(u.hint)
            saved.append((base, suffix.get(base)))
            env.append(fresh_name(base, avoid, suffix))
            avoid.add(env[-1])
            out.append(f"{pre}{env[-1]}{post}")
            todo.append((u, level, opened, 2, "", 1))
            opened += 1
            u, level = u.body, 0

    return show


def pp_formula(t: Term) -> str:
    """The text of one formula; `printer()` prints many."""
    return printer()(t)
