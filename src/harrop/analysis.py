"""Dynamic-context and predicate-dependency fixpoint analyses.

Two constraint collectors feed one least-fixpoint engine:

  * context constraints: processing each clause `pi xs. (G1 & ... & Gn) => A`
    (and, through a worklist, every clause reachable through antecedent
    bodies) yields `C(hp(Gi)) >= C(hp(A)) u L(Gi)`; the solution C(a)
    over-approximates the formulas that can sit in the dynamic context while
    proving an a-headed goal.
  * dependency constraints: for every predicate a and every clause with head
    predicate a among the static clauses and C(a), the provability of a
    depends on the head predicates of the clause's antecedents; solutions are
    seeded with `a in S(a)`.

One `ClauseTable` per analysis keys (`canonical_key`) and normalizes
(`normalize_clause`) each formula object once, and every stage reads it.
A row is the formula's key and its `NormalClause`, which carries the head
predicates of the formula and of each antecedent and each antecedent's body
L(Gi): the context collector reads the heads and bodies, the dependency
collector and the Abella emitter the heads, and none reduces a formula.
A parsed program's static clauses get their rows when the table is made,
from the facts the parser kept: a closed clause is its own key once normal,
and its hash was stored as it was built, so no key of it is computed or
hashed again; its normal form is its named form's with the implicit binders
in front.  Every other formula (the seeds, the `--ctx` clauses and each
formula an antecedent body exposes) is keyed on first sight, by the context
collector, so the later stages only look entries up.  The table is keyed by
the object, not by its key or by `==`: a normal form carries its own
formula's binder names, which alpha-variants do not share.  A formula
outside the clause grammar, which only a hand-built argument can hold,
raises rather than being skipped.  The dependency collector indexes the
static clauses by head predicate, so its work is linear in the clauses plus
the context entries rather than predicates times clauses.

Both fixpoints run on `_propagate`, a semi-naive round-robin engine.  Cells
are append-only keyed sets whose entries carry their key, so propagation
never re-keys a formula, and each (constraint, source) edge keeps a cursor
into its source cell, so a pass reads only the entries added since the
edge's previous read.  The passes still visit the constraints in their given
order, as the plain round-robin iteration does: skipping entries an edge has
already copied changes no insertion, so every cell fills in exactly the same
order.  That order is observable -- it is the order of the `analyze` and
`strengthen --json` reports and of the context definitions in the emitted
`.thm` files -- which is why the engine does not reorder the constraints.

The strengthening check then asks whether the head predicate of the formula
to discard can be reached from the goal's head predicate.  The analysis is
deliberately conservative: formulas from different conjunctive branches are
pooled, so some dependencies are overestimated.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .errors import UndefinedPredicate
from .formulas import (
    KeyedSet, NormalClause, Program, atom_view, canonical_key,
    head_pred, is_pred_ty, normalize_clause, printer, reduce_goal,
)
from .terms import Term, normalize


class ContextConstraint:
    """One equation C(target) = C(target) u C(p1) u ... u {formulas}."""
    __slots__ = ("target", "includes_context_of", "includes_formulas")

    def __init__(self, target: str, includes_context_of: tuple[str, ...],
                 includes_formulas: tuple[Term, ...]):
        self.target, self.includes_context_of, self.includes_formulas = \
            target, includes_context_of, includes_formulas


class DependencyConstraint:
    """One equation S(target) = S(target) u S(p1) u ... u S(pn)."""
    __slots__ = ("target", "includes_deps_of")

    def __init__(self, target: str, includes_deps_of: tuple[str, ...]):
        self.target, self.includes_deps_of = target, includes_deps_of


ContextMap = dict[str, KeyedSet]  # formulas under their canonical keys
DependencyMap = dict[str, list[str]]


class ClauseTable:
    """The canonical key and normal form of each formula object met, computed
    on first sight.  Rows are keyed by `id`; the table keeps every object it
    saw alive, so an id is never reused while the table lives.

    Given a parsed program, the table starts with a row for each of its
    static clauses, from what the parser knew of it (`Program.named`): a
    closed clause is its own key once normal, and its normal form is its
    named form's, facts and all, with the implicit binders in front, which
    opens nothing unless the clause has an explicit `pi` on its spine."""

    __slots__ = ("_rows", "_objects")

    def __init__(self, program: Program | None = None):
        self._rows: dict[int, tuple[Term, NormalClause]] = {}
        self._objects: list[Term] = []
        if program is None:
            return
        for d, (implicit, named) in zip(program.clauses, program.named):
            if id(d) in self._rows:  # a repeated fact may be one shared object
                continue
            nc = normalize_clause(named)
            nc = NormalClause(implicit + nc.binders, nc.antecedents, nc.head, nc.head_pred,
                              nc.antecedent_heads, nc.antecedent_bodies)
            self._rows[id(d)] = (normalize(d), nc)
            self._objects.append(d)

    def get(self, d: Term) -> tuple[Term, NormalClause]:
        """The key and normal form of d.  A formula outside the clause
        grammar raises `normalize_clause`'s error and gets no row: skipping
        it could drop a clause's dependencies and make a Blocked verdict an
        unsound Validated one."""
        row = self._rows.get(id(d))
        if row is None:
            row = self._rows[id(d)] = (canonical_key(d), normalize_clause(d))
            self._objects.append(d)
        return row


def _pred_universe(preds: list[str], more: Iterable[str]) -> list[str]:
    """The predicates followed by the other names, first occurrence kept."""
    return list(dict.fromkeys([*preds, *more]))


def collect_context_constraints(
        table: ClauseTable, program: Program,
        extra_clauses: tuple[Term, ...] = ()) -> list[ContextConstraint]:
    """Worklist pass over the clauses and every clause nested in antecedent
    bodies; each distinct clause (modulo alpha-equivalence of normal forms)
    adds its constraints once."""
    out: list[ContextConstraint] = []
    worklist: deque[Term] = deque((*program.clauses, *extra_clauses))
    seen: set[Term] = set()
    while worklist:
        key, nc = table.get(worklist.popleft())
        if key in seen:
            continue
        seen.add(key)
        for hp, formulas in zip(nc.antecedent_heads, nc.antecedent_bodies):
            if hp is not None:  # true and conjunctions add no constraint
                out.append(ContextConstraint(hp, (nc.head_pred,), formulas))
            worklist.extend(formulas)
    return out


def collect_dependency_constraints(
        table: ClauseTable, program: Program, ctx: ContextMap,
        extra_static: tuple[Term, ...] = ()) -> list[DependencyConstraint]:
    """For every predicate a and clause D in the static context or C(a) with
    head predicate a, S(a) grows by the dependencies of D's antecedent heads.

    A clause counts once per predicate: a formula of C(a) whose key is
    already among the static clauses adds nothing.  Constraints come out per
    predicate, static clauses first, each group in clause order."""
    static_keys: set[Term] = set()
    by_head: dict[str, list[tuple[str | None, ...]]] = {}
    for d in (*program.clauses, *extra_static):
        key, nc = table.get(d)
        if key in static_keys:
            continue
        static_keys.add(key)
        by_head.setdefault(nc.head_pred, []).append(nc.antecedent_heads)

    out: list[DependencyConstraint] = []
    for a in _pred_universe(program.predicates, ctx):
        bodies = list(by_head.get(a, ()))
        for key, d in ctx[a].entries if a in ctx else ():
            nc = table.get(d)[1]
            if key not in static_keys and nc.head_pred == a:
                bodies.append(nc.antecedent_heads)
        for heads in bodies:  # true and conjunctions add no dependency
            if heads := tuple(hp for hp in heads if hp is not None):
                out.append(DependencyConstraint(a, heads))
    return out


def _propagate(rules: list[tuple[KeyedSet, tuple[list, ...]]]) -> None:
    """Close the target cells under `rules`, each a target cell and the entry
    lists it includes (source cells' `entries`, or a fixed list of keyed
    facts).  Round-robin passes over the rules in order until one pass adds
    nothing; each (rule, source) edge resumes where it stopped reading, and
    reads only up to the source's length when it starts, as a snapshot."""
    cursors = [[0] * len(sources) for _, sources in rules]
    changed = True
    while changed:
        changed = False
        for (target, sources), cursor in zip(rules, cursors):
            for i, entries in enumerate(sources):
                start, cursor[i] = cursor[i], len(entries)
                for key, value in entries[start:cursor[i]]:
                    if target.add_keyed(key, value):
                        changed = True


def solve_context_fixpoint(
        table: ClauseTable, constraints: list[ContextConstraint], preds: list[str],
        seeds: tuple[Term, ...] = ()) -> ContextMap:
    """Least map closed under the constraints above the seeds, which start
    every cell: one for each of preds and of the names the constraints read
    or write, in that order.  Each seed is keyed once, for all the cells."""
    names = (p for c in constraints for p in (c.target, *c.includes_context_of))
    ctx: ContextMap = {p: KeyedSet() for p in _pred_universe(preds, names)}
    keyed = [(table.get(f)[0], f) for f in seeds]
    for cell in ctx.values():
        for key, f in keyed:
            cell.add_keyed(key, f)
    _propagate([(ctx[c.target],
                 ([(table.get(f)[0], f) for f in c.includes_formulas],
                  *(ctx[p].entries for p in c.includes_context_of)))
                for c in constraints])
    return ctx


def solve_dependency_fixpoint(
        constraints: list[DependencyConstraint], preds: list[str]) -> DependencyMap:
    """Least map with a in S(a) closed under the constraints."""
    names = (p for c in constraints for p in (c.target, *c.includes_deps_of))
    cells: dict[str, KeyedSet] = {}
    for p in _pred_universe(preds, names):
        cells[p] = KeyedSet()
        cells[p].add_keyed(p, p)  # a predicate depends on itself
    _propagate([(cells[c.target], tuple(cells[p].entries for p in c.includes_deps_of))
                for c in constraints])
    return {p: list(cell) for p, cell in cells.items()}


# -- the strengthening verdict ------------------------------------------------------

class Validated:
    __slots__ = ("deps", "contexts", "dependencies", "clauses")

    def __init__(self, deps: tuple[str, ...], contexts: ContextMap,
                 dependencies: DependencyMap, clauses: ClauseTable):
        self.deps = deps  # dependency order, goal's predicate first
        self.contexts, self.dependencies = contexts, dependencies
        self.clauses = clauses  # the analysis' table


class Blocked:
    __slots__ = ("pred", "contexts", "dependencies")

    def __init__(self, pred: str, contexts: ContextMap, dependencies: DependencyMap):
        self.pred = pred  # head predicate of the formula that may be depended on
        self.contexts, self.dependencies = contexts, dependencies


Verdict = Validated | Blocked


def _analyze(table: ClauseTable, program: Program, seeds: tuple[Term, ...],
             goal_preds: tuple[str, ...] = ()) -> tuple[ContextMap, DependencyMap]:
    """Run both collectors and fixpoints; the seeds join the static clauses
    and, as one tuple, start every context cell.  Both fixpoints get one
    predicate universe: the predicates of the clauses, every name a context
    constraint reads or writes, and the goal's head (goal_preds)."""
    constraints = collect_context_constraints(table, program, seeds)
    names = (p for c in constraints for p in (c.target, *c.includes_context_of))
    universe = _pred_universe(program.predicates, [*names, *goal_preds])
    ctx = solve_context_fixpoint(table, constraints, universe, seeds)
    dcs = collect_dependency_constraints(table, program, ctx, seeds)
    return ctx, solve_dependency_fixpoint(dcs, universe)


def analyze_program(program: Program) -> tuple[ContextMap, DependencyMap]:
    """The dynamic contexts and dependencies of the program's predicates."""
    return _analyze(ClauseTable(program), program, ())


def check_strengthenable(program: Program, f: Term, g: Term,
                         extra_ctx: tuple[Term, ...] = ()) -> Verdict:
    """The strengthen-tactic preprocessing and dependency check.

    The user-context formulas and the goal's antecedent bodies join the
    static context for the context calculation and seed every predicate's
    dynamic context; strengthening G from F is blocked when hp(F) lands in
    S(hp(G)).
    """
    view, l_g = reduce_goal(g)  # hp(G) and L(G) from one reduction
    hp_g = atom_view(view).pred
    if (ty := program.sig.lookup(hp_g)) is None or not is_pred_ty(ty):
        raise UndefinedPredicate(hp_g)
    hp_f = head_pred(f)
    table = ClauseTable(program)
    ctx, deps = _analyze(table, program, (*extra_ctx, *l_g), (hp_g,))
    reachable = deps[hp_g]
    if hp_f in reachable:
        return Blocked(hp_f, ctx, deps)
    order = (hp_g,) + tuple(sorted(p for p in reachable if p != hp_g))
    return Validated(order, ctx, deps, table)


# -- report serialization --------------------------------------------------------------

def analysis_report(ctx: ContextMap, deps: DependencyMap,
                    verdict: Blocked | None = None) -> dict:
    """JSON-ready document: per-predicate contexts and dependencies, and the
    predicate a blocked verdict stops on."""
    show = printer()
    return {
        "contexts": {p: [show(t) for t in fs] for p, fs in ctx.items()},
        "dependencies": {p: list(names) for p, names in deps.items()},
        "verdict": None if verdict is None else "blocked",
        "blocked_on": None if verdict is None else verdict.pred,
    }


def render_report(doc: dict) -> str:
    lines = ["contexts:"]
    for p, fs in doc["contexts"].items():
        lines.append(f"  C({p}) = {{{', '.join(fs)}}}")
    lines.append("dependencies:")
    for p, names in doc["dependencies"].items():
        lines.append(f"  S({p}) = {{{', '.join(names)}}}")
    return "\n".join(lines) + "\n"
