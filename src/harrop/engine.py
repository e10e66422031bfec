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
sequent, and one loop searches; the first answer whose trace finalizes is
the outcome.  `_validate` skips the static clauses only when `parse_source`
checked them under the sequent's own `Signature` object (`Clauses`), so it
and the parser are the only places that meet a formula outside the
grammar: every clause search focuses on has an atom over a predicate
constant as its head, and every goal it reduces has a rigid head, so no
instantiation makes either flexible.  The loop keeps a goal list (the
success continuation) and a stack of choice points (the failure
continuation).  A goal frame holds a goal, the substitution it was resolved
under, its depth and its clauses, a linked list: the dynamic clauses, most
recent first (impR pushes one cell), over the static ones in program order,
which the first search over a `Clauses` builds and keeps for later ones.
A rule frame sits below its premises' goals and builds its trace node once
they closed, from the proofs they left on the finished-proof list.  A
choice point is an atomic goal with clauses left, with the goal list, the
finished-proof list and the substitution kept by reference: backtracking is
one pop, and tries the next clause with the code a new atomic goal runs.
The counter and the incomplete flag are not restored on backtrack: names
stay fresh across branches, and the flag records any cut branch.

Trace nodes are plain records, compared by identity.  Search and every
trace pass (finalization, rendering, `rules_preorder`, replay) run on
explicit stacks, so proof depth is not bounded by the recursion limit.
`_finalize` resolves the whole trace once: one substitution function for
the final answer, memoized by metavariable, applied once per distinct term
in the trace, so each binding chain is followed once, not once per trace
field, and a closed binding met under binders is not walked again (`shift`
returns a term with no loose index at once).

Each term is resolved once.  A goal is resolved (its bound metavariables
replaced, following chains) and normalized (`_nf`) when it is taken under
another substitution than the one its frame holds: the right conjunct of
`&` and each antecedent, when the proofs before them bound something.  A
dynamic clause with metavariables is resolved when it is focused on.  A
subterm of a resolved term is resolved under the same substitution, and
so is a binder opened with a fresh eigenvariable or metavariable (one
`instantiate`, which makes no redex), so the left conjunct, the `=>`
consequent, a `pi` body, a clause's head and antecedents and the focus a
focus node stores are not resolved again.  Static clauses are normalized
once per `Clauses` and are their own resolved form, as is every ground
clause.  `unify` compares and splits a pair whose heads are both rigid (a
constant or a bound index) without resolving it: a binding never changes a
rigid head or its arity, only the arguments, and those are resolved when
their pairs are reached.  Every pair with a metavariable or abstraction
head is resolved first, as the pattern cases need.

Clauses are selected by head predicate.  Each clause's spine (its `pi` and
`=>` nodes and the formula reached under them, as `formulas.read_spine`
reads it) and shape (its head predicate, the `pi` binders passed before
each `=>`, and its number of `pi` binders) are read once, opening no
binder: static clauses once per `Clauses`, dynamic ones when impR pushes
them.  An atomic goal focuses only on the clauses with its predicate, in
the same relative order, and skips the others in one loop over the shapes,
building no term.  A skip leaves the search state as the failed focus
attempt it replaces would have: (1) the counter that numbers metavariables
and eigenvariables advances by one per `pi` the attempt would have opened,
those before the implication the depth bound stops at, or all of them; (2)
the incomplete flag is set when the clause has more implications than the
focus depth allows.  So traces, eigenvariable names and outcomes are
unchanged.  An eta-contracted `pi g` on a spine is read as `pi x. g x`,
which is what focusing opens it to.

A focus builds a clause instance only as far as it is needed: it makes the
`pi` metavariables and checks the depth bound at each `=>` in spine order,
then instantiates the head alone and unifies it with the goal.  Most
attempts fail there, having built one small term.  Once the head unified,
the antecedents are instantiated and pushed as goals, innermost first,
above a focus frame, which instantiates the piL and impL focus terms when
it builds the answer's trace.

A pattern binding `?M xs := t` reads t once, on an explicit stack (`_scan`):
how ?M occurs in t, t's metavariables and t's constants, which the occurs
check, the constant-stamp check and the stamp lowering then consult in
that order.  A ground t with no eigenvariable newer than ?M passes all
three, so it is not read at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import HarropError, IllFormedSequent
from .formulas import (
    Clauses, GAnd, GAtom, GImp, GPi, GTop, SpineNode, check_clause, check_goal,
    formula_view, printer, read_spine,
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
    pass


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


def _shape(read: _Spine) -> _Shape:
    """The shape of a normal clause, from its spine as `read_spine` reads
    it.  Search meets only clauses whose head is an atom over a predicate
    constant, which no instantiation of its binders changes: `parse_source`
    checked a parsed program's clauses, and `_validate` admits no other."""
    nodes, rest = read
    before, pis = [], 0
    for _, g, _ in nodes:
        if g is None:
            before.append(pis)
        else:
            pis += 1
    return spine(rest)[0].name, tuple(before), pis


# each clause, normal, with its shape and its spine
_Entry = tuple[Term, _Shape, _Spine]


def _entry(clause: Term) -> _Entry:
    read = read_spine(clause)
    return clause, _shape(read), read


# -- the entry point ---------------------------------------------------------------------------

def _validate(sig: Signature, clauses: tuple[Term, ...], goal: Term) -> None:
    """Reject a sequent outside the grammar: the goal is a goal formula of
    type o, and each clause given (`solve` gives no static clause the parser
    checked under the sequent's signature) is a clause of type o."""
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


# Goal frames (None, goal, subst it was resolved under, depth, clauses);
# rule frames (rule, goal, witness) and (FOCUS, goal atom, clause, head,
# spine nodes, metavariables); choice points (goal atom, predicate, focus
# depth, clauses, clauses left, goals, proofs, subst).

def solve(seq: Sequent, depth: int) -> SearchOutcome:
    """Bounded search for the sequent: the first answer whose trace
    finalizes is Proved, with a replayable trace."""
    if depth < 1:
        raise IllFormedSequent("depth must be at least 1")
    static = seq.static_ctx if isinstance(seq.static_ctx, Clauses) \
        else Clauses(seq.static_ctx, None)
    checked = static.checked_sig is seq.sig
    _validate(seq.sig, seq.dynamic_ctx if checked else static + seq.dynamic_ctx, seq.goal)
    state = _State()
    ctx = static.search
    if ctx is None:  # the first search over these clauses reads them
        for d in reversed(static):
            ctx = (_entry(normalize(d)), ctx)
        static.search = ctx
    for d in seq.dynamic_ctx:
        ctx = (_entry(normalize(d)), ctx)
    subst: Subst = {}
    goals = ((None, normalize(seq.goal), subst, depth, ctx), None)
    proofs = None
    choices: list[tuple] = []
    while True:
        if goals is None:  # every goal is proved: an answer
            resolved = _finalize(proofs[0], subst, seq.sig)
            if resolved is not None:
                return Proved(resolved)
            state.incomplete = True
        else:
            frame, goals = goals
            rule = frame[0]
            if rule == FOCUS:  # the antecedents' proofs are on top, outermost first
                _, g, f, head, nodes, metas = frame
                proved = []
                for _, fn, _ in nodes:
                    if fn is None:
                        p, proofs = proofs
                        proved.append(p)
                node, k = TraceNode(INIT, g, focus=head), len(metas)
                for t, fn, _ in reversed(nodes):
                    if fn is not None:
                        k -= 1
                        node = TraceNode(PI_L, g, instantiate(t, metas[:k]), metas[k], (node,))
                    else:
                        node = TraceNode(IMP_L, g, instantiate(t, metas[:k]), None,
                                         (node, proved.pop()))
                proofs = (TraceNode(FOCUS, g, focus=f, premises=(node,)), proofs)
                continue
            if rule is not None:
                p, proofs = proofs
                if rule == AND_R:
                    first, proofs = proofs
                    p = (first, p)
                else:
                    p = (p,)
                proofs = (TraceNode(rule, frame[1], witness=frame[2], premises=p), proofs)
                continue
            _, g, at, depth, ctx = frame
            if at is not subst:
                g = _nf(g, subst)
            v = formula_view(g)
            if isinstance(v, GTop):
                proofs = (TraceNode(TOP_R, g), proofs)
                continue
            if isinstance(v, GAnd):
                goals = ((None, v.left, subst, depth, ctx),
                         ((None, v.right, subst, depth, ctx), ((AND_R, g, None), goals)))
                continue
            if isinstance(v, GImp):
                goals = ((None, v.consequent, subst, depth, (_entry(v.antecedent), ctx)),
                         ((IMP_R, g, None), goals))
                continue
            if isinstance(v, GPi):
                c = state.fresh_eigen(v.ty, v.fn.hint if isinstance(v.fn, Abs) else "x")
                goals = ((None, _open_with(v.fn, c), subst, depth, ctx), ((PI_R, g, c), goals))
                continue
            if depth < 1:
                state.incomplete = True
            else:
                choices.append((g, v.pred, depth - 1, ctx, ctx, goals, proofs, subst))
        while True:  # a focus on the next clause of the newest choice point
            if not choices:
                return Unknown() if state.incomplete else Refuted()
            g, pred, depth, ctx, left, goals, proofs, subst = choices.pop()
            while left is not None:
                (f, shape, read), left = left
                if shape[0] != pred:  # as its focus would fail
                    _, before, pis = shape
                    hit = len(before) > depth
                    state.counter += before[depth] if hit else pis
                    state.incomplete = state.incomplete or hit
                    continue
                clause = f if f.ground else _nf(f, subst)
                if clause is not f:
                    f, shape, read = _entry(clause)
                nodes, rest = read
                metas, ants, d = [], [], depth  # ants: (antecedent, metas above, depth)
                for t, fn, a in nodes:
                    if fn is not None:
                        metas.append(state.fresh_meta(fn.arg_ty, _meta_hint(t, fn)))
                    elif d < 1:
                        state.incomplete = True
                        break
                    else:
                        d -= 1
                        ants.append((a, len(metas), d))
                else:
                    head = instantiate(rest, metas)
                    st, s1 = unify(head, g, subst, state)
                    if st == "ok":
                        break
                    state.incomplete = state.incomplete or st == "unknown"
            else:
                continue  # no clause left: back to the choice point before
            if left is not None:
                choices.append((g, pred, depth, ctx, left, goals, proofs, subst))
            goals = ((FOCUS, g, f, head, nodes, metas), goals)
            for a, k, d in ants:  # the innermost antecedent is proved first
                goals = ((None, instantiate(a, metas[:k]), subst, d, ctx), goals)
            subst = s1
            break


# -- trace finalization -------------------------------------------------------------------------

def _synthesize(ty: Ty, sig: Signature, fuel: int = 3) -> Term | None:
    """A closed term of the given type from signature constants, if easy: a
    constant of that type, else an abstraction over a term of its codomain,
    else the first constructor whose arguments all have terms, each level
    spending one unit of fuel.  Each (type, fuel) pair is answered once, on
    an explicit stack, after every pair it reads."""
    memo: dict[tuple[Ty, int], Term | None] = {}
    todo = [(ty, fuel)]
    while todo:
        t, f = key = todo.pop()
        if key in memo:
            continue
        found = None if f <= 0 else next(
            (Const(name, cty) for name, cty in sig.consts.items() if cty == t), None)
        if f <= 0 or found is not None:
            memo[key] = found
            continue
        if isinstance(t, TyArr):
            ways = [(None, [t.cod])]
        else:
            ways = [(Const(name, cty), args) for name, cty in sig.consts.items()
                    for args, res in (ty_flatten(cty),) if res == t and args]
        missing = [(a, f - 1) for _, args in ways for a in args if (a, f - 1) not in memo]
        if missing:
            todo += [key, *missing]
            continue
        for fn, args in ways:
            built = [memo[a, f - 1] for a in args]
            if all(u is not None for u in built):
                memo[key] = Abs(t.dom, shift(built[0], 1), "w") if fn is None \
                    else app_spine(fn, built)
                break
        else:
            memo[key] = None
    return memo[ty, fuel]


def _finalize(trace: TraceNode, subst: Subst, sig: Signature) -> TraceNode | None:
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
    # per signature object, the closed witness subterms found well typed under
    # it: a list proof's witnesses are the list's suffixes, so each is checked
    # once, not once per step.  A piR branch's signature is another object, as
    # its fresh constant may have another type on a sibling branch.
    typed: dict[Signature, dict[int, Term]] = {}
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
                    if infer_type(sig, w, typed.setdefault(sig, {})) != v.ty:
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
    show = printer()
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
