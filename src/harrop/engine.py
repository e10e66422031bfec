"""Bounded-depth proof search for hereditary Harrop sequents.

Search alternates goal reduction (trueR, andR, impR, piR) with backchaining:
once the goal is atomic, a clause is selected from the dynamic context
(most-recent first) or the static context (program order) and focused on
(impL, piL, init).  piL instantiation is delayed through metavariables and
discharged by higher-order pattern unification on beta-eta normal forms;
problems outside the pattern fragment make the search answer Unknown rather
than guess.

Depth counts one unit per focus and per impL; goal-reduction steps are free.
Refuted is reported only when the whole space below the bound was exhausted
without hitting the bound or an unsolvable-by-pattern problem, so both Proved
and Refuted are monotone in the depth bound.

`solve` is the one entry: it checks the depth bound, `_validate` checks the
sequent, and the first answer of the prover whose trace finalizes is the
outcome.  Trace nodes are plain records, compared by identity.  Every
trace pass (finalization, rendering, `rules_preorder`, replay) walks the trace
with an explicit stack (`TraceNode.walk`, or replay's stack of pending
obligations), so trace depth is not bounded by the recursion limit.
`_finalize` resolves the whole trace once: one substitution function for the
final answer, memoized by metavariable, applied once per distinct term in
the trace, so each binding chain is followed once, not once per trace field,
and a closed binding met under binders is not walked again (`shift`
returns a term with no loose index at once).

Each term is resolved once.  A goal or clause is resolved (its bound
metavariables replaced, following chains) and normalized (`_nf`) when it
meets a substitution it has not seen: the goal of a solve, the right
conjunct of `&` and each antecedent, under the substitution the proofs
before them left (skipped when those bound nothing), and a dynamic clause
with metavariables when it is focused on.  A subterm of a resolved term is
resolved under the same substitution, and so is a binder opened with a
fresh eigenvariable or metavariable (one `instantiate`, which makes no
redex), so the left conjunct, the `=>` consequent, a `pi` body, a clause's
head and antecedents and the focus a focus node stores are not resolved
again.  Static clauses are normalized once per solve and are their own
resolved form, as is every ground clause.  `unify` compares and splits a
pair whose heads are both rigid (a constant or a bound index) without
resolving it: a binding never changes a rigid head or its arity, only the
arguments, and those are resolved when their pairs are reached.  Every
pair with a metavariable or abstraction head is resolved first, as the
pattern cases need.

Clauses are selected by head predicate.  Each clause's spine (its `pi` and
`=>` nodes and the formula reached under them, as `formulas.read_spine`
reads it) and shape (its head predicate, the `pi` binders passed before
each `=>`, and its number of `pi` binders) are read once, opening no
binder: static clauses when a solve starts, dynamic ones when impR pushes
them.  An atomic goal focuses only on the clauses with its predicate, in
the same relative order, and skips the others in one loop over the shapes,
building no term.  A skip leaves the search state as the failed focus
attempt it replaces would have: (1) the counter that numbers metavariables
and eigenvariables advances by one per `pi` the attempt would have opened,
those before the implication the depth bound stops at, or all of them; (2)
the incomplete flag is set when the clause has more implications than the
focus depth allows.  So traces, eigenvariable names and outcomes are
unchanged.  A clause whose head is not a predicate constant is never
skipped.  An eta-contracted `pi g` on a spine is read as `pi x. g x`,
which is what focusing opens it to.

A focus builds a clause instance only as far as it is needed: it makes the
`pi` metavariables and checks the depth bound at each `=>` in spine order,
then instantiates the head alone and unifies it with the goal.  Most
attempts fail there, having built one small term.  The antecedents are
instantiated once the head unified, each when its proof starts, and the
intermediate piL and impL focus terms only when an answer's trace is built.

A pattern binding `?M xs := t` reads t once, on an explicit stack (`_scan`):
how ?M occurs in t, t's metavariables and t's constants, which the occurs
check, the constant-stamp check and the stamp lowering then consult in
that order.  A ground t with no eigenvariable newer than ?M passes all
three, so it is not read at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import HarropError, IllFormedSequent, NonRigidAtomError
from .formulas import (
    GAnd, GAtom, GImp, GPi, GTop, SpineNode, check_clause, check_goal, formula_view,
    printer, read_spine,
)
from .terms import (
    O, Abs, App, Bound, Const, Meta, Signature, Term, Ty, TyArr,
    app_spine, infer_type, instantiate, map_leaves, metas_of, normalize,
    resolver, shift, spine, subst_metas, ty_flatten,
)

TOP_R = "topR"
AND_R = "andR"
IMP_R = "impR"
PI_R = "piR"
IMP_L = "impL"
PI_L = "piL"
INIT = "init"
FOCUS = "focus"


# -- sequents -----------------------------------------------------------------

@dataclass(frozen=True)
class Sequent:
    sig: Signature
    static_ctx: tuple[Term, ...]
    dynamic_ctx: tuple[Term, ...]
    goal: Term


# -- outcomes -------------------------------------------------------------------

class TraceNode:
    """One rule application: a plain record, equal only to itself, with
    `object`'s repr."""
    __slots__ = ("rule", "goal", "focus", "witness", "premises")

    def __init__(self, rule: str, goal: Term, focus: Term | None = None,
                 witness: Term | None = None, premises: tuple["TraceNode", ...] = ()):
        self.rule = rule
        self.goal = goal
        self.focus = focus
        self.witness = witness
        self.premises = premises

    def walk(self) -> Iterator[tuple["TraceNode", int]]:
        """Every node in preorder with its depth below self; an explicit
        stack, so trace depth is not bounded by recursion."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((p, depth + 1) for p in reversed(node.premises))

    def rules_preorder(self) -> list[str]:
        return [node.rule for node, _ in self.walk()]


@dataclass(frozen=True)
class Proved:
    trace: TraceNode


@dataclass(frozen=True)
class Refuted:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


SearchOutcome = Proved | Refuted | Unknown


# -- search state ------------------------------------------------------------------

class _State:
    __slots__ = ("counter", "meta_stamp", "eigen_stamp", "eigen_top", "incomplete")

    def __init__(self):
        self.counter = 0
        self.meta_stamp: dict[int, int] = {}
        self.eigen_stamp: dict[str, int] = {}
        self.eigen_top = 0  # the newest eigenvariable's stamp
        self.incomplete = False

    def fresh_eigen(self, ty: Ty, hint: str = "x") -> Const:
        self.counter += 1
        name = f"{hint}#{self.counter}"
        self.eigen_stamp[name] = self.eigen_top = self.counter
        return Const(name, ty)

    def fresh_meta(self, ty: Ty, hint: str = "X") -> Meta:
        # negative uids: never collide with parser-created query metavariables
        self.counter += 1
        uid = -self.counter
        self.meta_stamp[uid] = self.counter
        return Meta(f"{hint}{self.counter}", ty, uid)

    def stamp_of_const(self, name: str) -> int:
        return self.eigen_stamp.get(name, 0)  # program constants are oldest

    def lower_meta(self, uid: int, stamp: int) -> None:
        cur = self.meta_stamp.get(uid, 0)
        if stamp < cur:
            self.meta_stamp[uid] = stamp


Subst = dict[int, Term]


def _nf(t: Term, subst: Subst) -> Term:
    # subst_metas resolves chained bindings, so one pass applies all of subst
    if t.ground:
        return normalize(t)
    if t.__class__ is Meta and t.uid not in subst:
        return t
    return normalize(subst_metas(t, subst))


# -- pattern unification --------------------------------------------------------------

def _open_with(t: Term, c: Term) -> Term:
    if isinstance(t, Abs):
        return instantiate(t.body, (c,))
    return normalize(App(t, c))


def _scan(uid: int, t: Term) -> tuple[str | None, set[int], set[str]]:
    """One walk of the normal term t, on an explicit stack.  Returns how the
    metavariable uid occurs in t ('rigid' when some occurrence has no
    metavariable-headed application above it, else 'flex', or None), the
    uids of t's metavariables, and t's constant names."""
    occ = None
    metas: set[int] = set()
    consts: set[str] = set()
    stack: list[tuple[Term, bool]] = [(t, True)]
    while stack:
        u, rigid = stack.pop()
        head, args = spine(u)
        flex = head.__class__ is Meta
        stack.extend((a, rigid and not flex) for a in reversed(args))
        if flex:
            metas.add(head.uid)
            if head.uid == uid:
                occ = "rigid" if rigid else occ or "flex"
        elif head.__class__ is Const:
            consts.add(head.name)
        elif head.__class__ is Abs:
            stack.append((head.body, rigid))
    return occ, metas, consts


def _try_bind(m: Meta, args: list[Term], t: Term, subst: Subst,
              state: _State) -> tuple[str, Subst]:
    """Attempt m args := t as a pattern problem."""
    names = []
    for a in args:
        if not (isinstance(a, Const) and a.name in state.eigen_stamp):
            return "unknown", subst
        if a.name in names:
            return "unknown", subst
        names.append(a.name)

    stamp = state.meta_stamp.get(m.uid, 0)
    # a ground t with no eigenvariable newer than m passes every check below
    if not (t.ground and state.eigen_top <= stamp):
        occ, t_metas, t_consts = _scan(m.uid, t)
        if occ == "rigid":
            return "fail", subst
        if occ == "flex":
            return "unknown", subst
        for c in t_consts:
            cstamp = state.stamp_of_const(c)
            if cstamp > stamp and c not in names:
                # a constant introduced after this metavariable cannot appear
                # in its instantiation unless abstracted away
                return ("unknown" if t_metas else "fail"), subst
        for uid in t_metas:
            state.lower_meta(uid, stamp)

    sol = t
    for a in reversed(args):
        assert isinstance(a, Const)
        body = map_leaves(sol, lambda u, k: Bound(k, a.ty) if u == a else u)
        sol = Abs(a.ty, body, a.name.split("#")[0])
    return "ok", {**subst, m.uid: sol}


def _rigid_head(t: Term) -> bool:
    while t.__class__ is App:
        t = t.fn
    return t.__class__ is Const or t.__class__ is Bound


def unify(a: Term, b: Term, subst: Subst, state: _State) -> tuple[str, Subst]:
    """Unify beta-eta-normal terms; returns ('ok'|'fail'|'unknown', subst).

    A pair whose heads are both rigid is compared and split as it stands:
    resolving it under subst would keep both heads and their arities and
    only resolve the arguments, which are resolved when they are reached."""
    eqs = [(a, b)]
    while eqs:
        x, y = eqs.pop()
        if x is y:
            continue
        if _rigid_head(x) and _rigid_head(y):
            hx, ax = spine(x)
            hy, ay = spine(y)
        else:
            x, y = _nf(x, subst), _nf(y, subst)
            if x == y:
                continue
            # bind a bare metavariable directly (also keeps binder hints
            # intact); unknown outcomes fall through to the general cases below
            if isinstance(x, Meta) or isinstance(y, Meta):
                m, t = (x, y) if isinstance(x, Meta) else (y, x)
                st, subst2 = _try_bind(m, [], t, subst, state)
                if st == "ok":
                    subst = subst2
                    continue
                if st == "fail":
                    return st, subst
            if isinstance(x, Abs) or isinstance(y, Abs):
                dom = x.arg_ty if isinstance(x, Abs) else y.arg_ty
                c = state.fresh_eigen(dom, "v")
                eqs.append((_open_with(x, c), _open_with(y, c)))
                continue
            hx, ax = spine(x)
            hy, ay = spine(y)
            flex_x = isinstance(hx, Meta)
            flex_y = isinstance(hy, Meta)
            if flex_x and flex_y and hx.uid == hy.uid:
                if ax == ay:
                    continue
                return "unknown", subst
            if flex_x or flex_y:
                if flex_x:
                    st, subst2 = _try_bind(hx, ax, y, subst, state)
                else:
                    st = "unknown"
                if st == "unknown" and flex_y:
                    st, subst2 = _try_bind(hy, ay, x, subst, state)
                if st == "ok":
                    subst = subst2
                    continue
                return st, subst
        # rigid-rigid
        if hx != hy or len(ax) != len(ay):
            return "fail", subst
        eqs.extend(zip(ax, ay))
    return "ok", subst


# -- clause selection -------------------------------------------------------------------

# the spine of a clause as `read_spine` reads it: its `pi` and `=>` nodes,
# outermost first, and the formula reached under all of them
_Spine = tuple[list[SpineNode], Term]


def _meta_hint(node: Term, g: Abs) -> str:
    """The hint of the metavariable focusing opens the `pi` node's
    abstraction g with: its binder's hint, upper-cased, or T when it has none
    or when the node's argument is eta-contracted (g is not that argument)."""
    return g.hint.upper() if g is node.arg and g.hint else "T"


# head predicate, pi binders passed before each `=>`, number of pi binders
_Shape = tuple[str, tuple[int, ...], int]


def _shape(read: _Spine) -> _Shape | None:
    """The shape of a normal clause, from its spine as `read_spine` reads
    it.  None when instantiating its binders could change what focusing
    meets, that is when the head is not a predicate constant; such a clause
    is always focused on."""
    nodes, rest = read
    try:
        v = formula_view(rest)
    except NonRigidAtomError:
        return None
    if not isinstance(v, GAtom):
        return None
    before, pis = [], 0
    for _, g, _ in nodes:
        if g is None:
            before.append(pis)
        else:
            pis += 1
    return v.pred, tuple(before), pis


def _skipped(shape: _Shape, depth: int) -> tuple[int, bool]:
    """What a focus at depth on a clause of this shape leaves in the state
    when its head does not match the goal's: the counter advance (one per
    pi opened before the bound stops it) and whether it hit the bound."""
    _, before, pis = shape
    if len(before) > depth:
        return before[depth], True
    return pis, False


# each clause, normal, with its shape and its spine
_Entry = tuple[Term, _Shape | None, _Spine]


def _entry(clause: Term) -> _Entry:
    read = read_spine(clause)
    return clause, _shape(read), read


class _Env:
    __slots__ = ("static", "dyn")

    def __init__(self, static: tuple[_Entry, ...], dyn: tuple[_Entry, ...]):
        self.static = static
        self.dyn = dyn


# -- the prover ---------------------------------------------------------------------------
#
# Every goal and clause handed to `_prove` and `_focus` is already resolved
# and normal under their subst.

def _prove(env: _Env, g: Term, depth: int, subst: Subst,
           state: _State) -> Iterator[tuple[Subst, TraceNode]]:
    try:
        v = formula_view(g)
    except NonRigidAtomError:
        state.incomplete = True  # flexible goal head: outside the fragment
        return
    if isinstance(v, GTop):
        yield subst, TraceNode(TOP_R, g)
        return
    if isinstance(v, GAnd):
        for s1, tr1 in _prove(env, v.left, depth, subst, state):
            right = v.right if s1 is subst else _nf(v.right, s1)
            for s2, tr2 in _prove(env, right, depth, s1, state):
                yield s2, TraceNode(AND_R, g, premises=(tr1, tr2))
        return
    if isinstance(v, GImp):
        inner = _Env(env.static, env.dyn + (_entry(v.antecedent),))
        for s1, tr1 in _prove(inner, v.consequent, depth, subst, state):
            yield s1, TraceNode(IMP_R, g, premises=(tr1,))
        return
    if isinstance(v, GPi):
        hint = v.fn.hint if isinstance(v.fn, Abs) else "x"
        c = state.fresh_eigen(v.ty, hint)
        for s1, tr1 in _prove(env, _open_with(v.fn, c), depth, subst, state):
            yield s1, TraceNode(PI_R, g, witness=c, premises=(tr1,))
        return
    # atomic: switch to backchaining, on the dynamic clauses (most recent
    # first), then the static ones.  A clause with another head predicate is
    # skipped, and the skip is applied to state where its focus attempt would
    # have run, so the state matches the unindexed search at every answer.
    if depth < 1:
        state.incomplete = True
        return
    for entries in (reversed(env.dyn), env.static):
        for d, shape, read in entries:
            if shape is not None and shape[0] != v.pred:
                advance, hit = _skipped(shape, depth - 1)
                state.counter += advance
                state.incomplete = state.incomplete or hit
                continue
            f = d if d.ground else _nf(d, subst)
            clause = (d, shape, read) if f is d else _entry(f)
            for s1, tr1 in _focus(env, clause, g, depth - 1, subst, state):
                yield s1, TraceNode(FOCUS, g, focus=f, premises=(tr1,))


def _focus(env: _Env, clause: _Entry, goal_atom: Term, depth: int, subst: Subst,
           state: _State) -> Iterator[tuple[Subst, TraceNode]]:
    """Focus on a clause along its spine: piL opens each `pi` with a fresh
    metavariable, and impL checks the depth bound at each `=>`, in spine
    order; then the head is instantiated and unified with the goal.  The
    antecedents are instantiated only once the head unified, and are proved
    innermost first, backtracking on an explicit stack of their provers.
    The intermediate piL and impL focus terms are built with the trace of
    each answer.  A clause whose head is not a predicate constant has no
    derivation: a flexible head is outside the fragment."""
    f, shape, (nodes, rest) = clause
    metas: list[Meta] = []
    ants: list[tuple[Term, int, int]] = []  # antecedent, metavariables above, depth
    for t, g, a in nodes:
        if g is not None:
            metas.append(state.fresh_meta(g.arg_ty, _meta_hint(t, g)))
        elif depth < 1:
            state.incomplete = True
            return
        else:
            depth -= 1
            ants.append((a, len(metas), depth))
    if shape is None:
        try:
            formula_view(rest)  # true or a conjunction: not a clause
        except NonRigidAtomError:
            state.incomplete = True
        return
    head = instantiate(rest, metas)
    st, s1 = unify(head, goal_atom, subst, state)
    if st != "ok":
        if st == "unknown":
            state.incomplete = True
        return
    ants.reverse()  # innermost first

    def start(i: int, s: Subst) -> Iterator[tuple[Subst, TraceNode]]:
        a, m, d = ants[i]
        a = instantiate(a, metas[:m])  # resolved under subst, as f is
        return _prove(env, a if s is subst else _nf(a, s), d, s, state)

    n, s = len(ants), s1
    proofs: list[TraceNode | None] = [None] * n
    provers: list[Iterator[tuple[Subst, TraceNode]]] = []
    while True:
        if len(provers) < n:
            provers.append(start(len(provers), s))
        else:  # every antecedent is proved: an answer
            node, k, p = TraceNode(INIT, goal_atom, focus=head), 0, len(metas)
            for t, g, _ in reversed(nodes):
                if g is not None:
                    p -= 1
                    node = TraceNode(PI_L, goal_atom, instantiate(t, metas[:p]),
                                     metas[p], (node,))
                else:
                    node = TraceNode(IMP_L, goal_atom, instantiate(t, metas[:p]), None,
                                     (node, proofs[k]))
                    k += 1
            yield s, node
        while provers:  # the next answer of the innermost prover that has one
            step = next(provers[-1], None)
            if step is not None:
                break
            provers.pop()
        else:
            return
        s, proofs[len(provers) - 1] = step


# -- the entry point ---------------------------------------------------------------------------

def _validate(sig: Signature, clauses: tuple[Term, ...], goal: Term) -> None:
    """Reject a sequent outside the grammar: the goal is a goal formula of
    type o, and each context clause is a clause of type o."""
    try:
        if infer_type(sig, goal) != O:
            raise IllFormedSequent("goal is not a formula")
        check_goal(goal)
        for d in clauses:
            if infer_type(sig, d) != O:
                raise IllFormedSequent("context clause is not a formula")
            check_clause(d)
    except IllFormedSequent:
        raise
    except HarropError as e:
        raise IllFormedSequent(str(e)) from e


def solve(seq: Sequent, depth: int) -> SearchOutcome:
    """Bounded search for the sequent: the first answer whose trace
    finalizes is Proved, with a replayable trace."""
    if depth < 1:
        raise IllFormedSequent("depth must be at least 1")
    _validate(seq.sig, seq.static_ctx + seq.dynamic_ctx, seq.goal)
    state = _State()
    env = _Env(tuple(_entry(normalize(d)) for d in seq.static_ctx),
               tuple(_entry(normalize(d)) for d in seq.dynamic_ctx))
    for subst, trace in _prove(env, normalize(seq.goal), depth, {}, state):
        resolved = _finalize(trace, subst, seq.sig, state)
        if resolved is not None:
            return Proved(resolved)
        state.incomplete = True
    return Unknown("bound or non-pattern problem hit") if state.incomplete else Refuted()


# -- trace finalization -------------------------------------------------------------------------

def _synthesize(ty: Ty, sig: Signature, fuel: int = 3) -> Term | None:
    """A closed term of the given type from signature constants, if easy."""
    if fuel <= 0:
        return None
    for name, cty in sig.consts.items():
        if cty == ty:
            return Const(name, cty)
    if isinstance(ty, TyArr):
        body = _synthesize(ty.cod, sig, fuel - 1)
        if body is not None:
            return Abs(ty.dom, shift(body, 1), "w")
        return None
    for name, cty in sig.consts.items():
        args, res = ty_flatten(cty)
        if res == ty and args:
            built = []
            for a in args:
                sub = _synthesize(a, sig, fuel - 1)
                if sub is None:
                    break
                built.append(sub)
            else:
                return app_spine(Const(name, cty), built)
    return None


def _finalize(trace: TraceNode, subst: Subst, sig: Signature,
              state: _State) -> TraceNode | None:
    """Apply the final substitution to the trace; synthesize terms for any
    metavariable the proof never constrained.  None if that is impossible.

    One resolver for subst is applied once per distinct field object, so
    each binding chain is followed once for the whole trace; the leftover
    bindings, all ground, are then applied to those results alone."""
    nodes = [node for node, _ in trace.walk()]
    resolve = resolver(subst)
    done: dict[int, Term] = {}  # id of a field object -> its resolved term
    leftovers: dict[int, Term] = {}
    for node in nodes:
        for t in (node.goal, node.focus, node.witness):
            if t is None or id(t) in done:
                continue
            done[id(t)] = r = resolve(t)
            for m in metas_of(r):
                if m.uid not in leftovers:
                    g = _synthesize(m.ty, sig)
                    if g is None:
                        return None
                    leftovers[m.uid] = g
    finish = resolver(leftovers)
    final = {key: normalize(finish(r)) for key, r in done.items()}

    # bottom-up over the reversed preorder: a node's premises are rebuilt
    # before it, and the first premise ends up on top of the stack
    built: list[TraceNode] = []
    for node in reversed(nodes):
        built.append(TraceNode(
            node.rule,
            final[id(node.goal)],
            final[id(node.focus)] if node.focus is not None else None,
            final[id(node.witness)] if node.witness is not None else None,
            tuple(built.pop() for _ in node.premises),
        ))
    return built.pop()


# -- trace replay ----------------------------------------------------------------------------

def replay_trace(seq: Sequent, trace: TraceNode) -> tuple[bool, str]:
    """Check every node against its inference-rule schema."""
    # pending obligations (node, sig, dyn, focus, goal): the node must derive
    # dyn |- goal, or [focus] dyn |- goal when focus is not None; premises are
    # pushed last-first, so nodes are checked in preorder
    stack: list[tuple[TraceNode, Signature, tuple[Term, ...], Term | None, Term]] = [
        (trace, seq.sig, seq.dynamic_ctx, None, seq.goal)]
    try:
        while stack:
            node, sig, dyn, focus, goal = stack.pop()
            if focus is not None and node.focus != normalize(focus):
                return False, f"{node.rule}: focus mismatch"
            if node.goal != normalize(goal):
                return False, f"{node.rule}: goal mismatch"
            if focus is None:
                v = formula_view(node.goal)
                if node.rule == TOP_R:
                    if not isinstance(v, GTop):
                        return False, "topR on non-true"
                elif node.rule == AND_R:
                    if not isinstance(v, GAnd) or len(node.premises) != 2:
                        return False, "andR shape"
                    stack.append((node.premises[1], sig, dyn, None, v.right))
                    stack.append((node.premises[0], sig, dyn, None, v.left))
                elif node.rule == IMP_R:
                    if not isinstance(v, GImp) or len(node.premises) != 1:
                        return False, "impR shape"
                    stack.append((node.premises[0], sig, dyn + (v.antecedent,), None,
                                  v.consequent))
                elif node.rule == PI_R:
                    if not isinstance(v, GPi) or len(node.premises) != 1:
                        return False, "piR shape"
                    c = node.witness
                    if not isinstance(c, Const):
                        return False, "piR witness must be a constant"
                    if c.name in sig:
                        return False, "piR constant not fresh"
                    stack.append((node.premises[0], sig.extend_const(c.name, c.ty),
                                  dyn, None, App(v.fn, c)))
                elif node.rule == FOCUS:
                    if not isinstance(v, GAtom) or len(node.premises) != 1:
                        return False, "focus shape"
                    if node.focus is None or not any(
                            node.focus == normalize(d) for d in dyn + seq.static_ctx):
                        return False, "focused clause not in context"
                    stack.append((node.premises[0], sig, dyn, node.focus, node.goal))
                else:
                    return False, f"unexpected rule {node.rule} in goal position"
                continue
            v = formula_view(node.focus)
            if node.rule == INIT:
                if node.focus != node.goal:
                    return False, "init: focus != goal"
            elif node.rule == IMP_L:
                if not isinstance(v, GImp) or len(node.premises) != 2:
                    return False, "impL shape"
                stack.append((node.premises[1], sig, dyn, None, v.antecedent))
                stack.append((node.premises[0], sig, dyn, v.consequent, goal))
            elif node.rule == PI_L:
                if not isinstance(v, GPi) or len(node.premises) != 1:
                    return False, "piL shape"
                w = node.witness
                if w is None:
                    return False, "piL without witness"
                try:
                    if infer_type(sig, w) != v.ty:
                        return False, "piL witness type mismatch"
                except HarropError as e:
                    return False, f"piL witness ill-typed: {e}"
                stack.append((node.premises[0], sig, dyn, App(v.fn, w), goal))
            else:
                return False, f"unexpected rule {node.rule} in focus position"
    except HarropError as e:  # malformed trace nodes
        return False, f"replay error: {e}"
    return True, ""


# -- trace printing ----------------------------------------------------------------------------

def render_trace(trace: TraceNode) -> str:
    """Indented, one rule per line; stable across runs for fixed inputs."""
    show = printer()  # the trace keeps every printed field alive
    lines: list[str] = []
    for node, depth in trace.walk():
        pad = "  " * depth
        if node.rule in (FOCUS, IMP_L, PI_L, INIT):
            s = f"{pad}{node.rule} [{show(node.focus)}] |- {show(node.goal)}"
        else:
            s = f"{pad}{node.rule} |- {show(node.goal)}"
        if node.witness is not None:
            s += f"  <{show(node.witness)}>"
        lines.append(s)
    return "\n".join(lines) + "\n"
