"""Generation of Abella `.thm` developments for strengthening lemmas.

For a validated plan this module emits, in dependency order: fixed-point
context definitions, context-membership lemmas, the subcontext lemmas the
main proof applies, the (mutually inductive when needed) strengthening
theorem with its tactic script, a `Split` when there are several conjuncts,
the user-context subcontext lemma, and the user-facing theorem.

Hypothesis labels in the generated scripts come from a counter that mirrors
Abella's numbering: a hypothesis number is never reused within a subgoal
lineage, `case` on a backchaining step adds one hypothesis per antecedent,
and each `apply` adds one.

A plan holds the verdict's own keyed context cells and its clause table,
so the emitter keys, normalizes and reduces no formula: a subcontext check
compares the keys the analysis computed (the user context's formulas were
seeds, so the table has their keys), every static clause's and cell
formula's normal form, with the head predicates backchaining reads, comes
from the table, and the goal's head predicate is the plan's first.  Every
row holds one: the table raises on a formula outside the clause grammar.

Formulas are written by `formulas.printer` in the `ABELLA` syntax.  Its
binder names avoid only the formula's own names and the binders above, so
F's text is the same in every conjunct and in the user theorem, and the
plan prints it once.  The names the emitter writes around a formula (`L`,
`E`, `X1`..`Xn`, the goal's variables) start with a capital or an
underscore, and `ABELLA.base` lowercases a binder's first letter, so a
binder can take one only when both start with an underscore, as `_A` in
`{L, (pi _A\\ p _A) |- q _A}`: F is closed, so that shadowing changes nothing.
A context formula's free variables are capitalized clear of the `E` and `L`
around it, so its definition and membership lemma share one rendering, made
once per formula object of the user context and the cells.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from .errors import NotASubcontext, PlanMismatch, UnorderedArtifact
from .formulas import (
    NormalClause, Program, Syntax, head_pred, pp_formula, printer,
)
from .terms import Term, free_vars_ordered, fresh_name, ty_flatten
from .analysis import ClauseTable, ContextMap, Validated


# -- artifact items -----------------------------------------------------------------

TacticScript = tuple[str, ...]


@dataclass(frozen=True)
class SpecRef:
    name: str


@dataclass(frozen=True)
class Define:
    name: str
    ty: str
    clauses: tuple[tuple[str, str | None], ...]  # (head, optional body)


@dataclass(frozen=True)
class Theorem:
    name: str
    formula: str
    proof: TacticScript

    def __post_init__(self):
        if not self.proof:
            raise PlanMismatch(f"theorem {self.name} has an empty proof script")


@dataclass(frozen=True)
class Split:
    source: str
    names: tuple[str, ...]


AbellaItem = SpecRef | Define | Theorem | Split


@dataclass(frozen=True)
class AbellaArtifact:
    items: tuple[AbellaItem, ...]


# -- plans ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrengtheningPlan:
    goal: Term
    strengthen_from: Term
    deps: tuple[str, ...]                       # a1 .. an, goal's predicate first
    contexts: ContextMap                        # the verdict's own cells
    user_ctx_name: str
    user_ctx: tuple[Term, ...]
    clauses: ClauseTable                        # the verdict's clause table
    from_pred: str = field(init=False, repr=False)  # hp(strengthen_from), read once
    from_text: str = field(init=False, repr=False)  # F's Abella text, printed once

    def __post_init__(self):
        object.__setattr__(self, "from_pred", head_pred(self.strengthen_from))
        object.__setattr__(self, "from_text", printer(ABELLA)(self.strengthen_from, 1))
        if not self.deps:
            raise PlanMismatch("a plan needs at least one predicate")
        for a in self.deps:
            if a not in self.contexts:
                raise PlanMismatch(f"no context cell for predicate {a}")


def make_plan(verdict: Validated, f: Term, g: Term,
              user_ctx_name: str, user_ctx: tuple[Term, ...]) -> StrengtheningPlan:
    contexts = {a: verdict.contexts[a] for a in verdict.deps}
    return StrengtheningPlan(g, f, verdict.deps, contexts, user_ctx_name, user_ctx,
                             verdict.clauses)


# -- object-formula rendering: `formulas.printer` in Abella's syntax -----------------------
# `=>`, a conjunction always grouped as `(G1 , G2)`, `pi x\ ...`, metavariables
# by their bare names and binder names lowercased (`x` for none).  Entered at
# level 1, the printer parenthesizes everything but names and applications.

ABELLA = Syntax(" , ", (0, 1, 1), False, "", lambda hint: (hint or "x")[0].lower() + hint[1:])


def _capitalized(names: Iterable[str], reserved: set[str]) -> dict[str, str]:
    """Map each name to a capitalized display name, clear of `reserved` and
    of the names given before it."""
    out: dict[str, str] = {}
    taken = set(reserved)
    for n in names:
        name = fresh_name(n[0].upper() + n[1:] if n else "X", taken)
        taken.add(name)
        out[n] = name
    return out


# -- item generators ---------------------------------------------------------------------

def ctx_name(pred: str) -> str:
    return f"ctx_{pred}"


def ctx_member_name(pred: str) -> str:
    return f"ctx_member_{pred}"


def subctx_name(a: str, b: str) -> str:
    return f"subctx_{a}_{b}"


CtxText = tuple[tuple[str, ...], str]  # a context formula's free variables and text


def render_ctx_formula(f: Term) -> CtxText:
    """A context formula's free variables, capitalized clear of the `E` and
    `L` written around it, in order, and its text at level 1."""
    rename = _capitalized((v.name for v in free_vars_ordered(f)), {"E", "L"})
    return tuple(rename.values()), printer(ABELLA, rename)(f, 1)


def gen_ctx_definition(name: str, texts: Iterable[CtxText]) -> Define:
    """Fixed-point definition admitting nil and each context formula as a cons."""
    clauses: list[tuple[str, str | None]] = [(f"{name} nil", None)]
    clauses += [(f"{name} ({text} :: L)", f"{name} L") for _, text in texts]
    return Define(name, "olist -> prop", tuple(clauses))


def gen_ctx_member_lemma(pred: str, texts: Collection[CtxText]) -> Theorem:
    """Any member of a context-shaped list is one of finitely many formulas;
    with no formulas, membership is contradictory."""
    concl = " \\/ ".join(f"(exists {' '.join(names)}, E = {text})" if names
                          else f"E = {text}" for names, text in texts) or "false"
    formula = f"forall E L, {ctx_name(pred)} L -> member E L -> {concl}"
    script: list[str] = ["induction on 1", "intros", "case H1", "case H2"]
    for _ in texts:
        script += ["case H2", "search", "apply IH to H3 H4", "search"]
    return Theorem(ctx_member_name(pred), formula, tuple(script))


def gen_subctx_lemma(a: str, b: str, ctx_map: ContextMap, name: str, lhs_ctx: str,
                     entries: Collection[tuple[Term, Term]]) -> Theorem:
    """forall L, lhs_ctx L -> ctx_b L, the lemma `name`, valid when each of
    a's context formulas, the (key, formula) `entries`, is in C(b); a proof
    step per entry."""
    target = ctx_map[b]
    missing = next((f for key, f in entries if not target.has_key(key)), None)
    if missing is not None:
        raise NotASubcontext(
            f"context of {a} contains {pp_formula(missing)}, absent from {b}'s")
    formula = f"forall L, {lhs_ctx} L -> {ctx_name(b)} L"
    script = ["induction on 1", "intros", "case H1", "search",
              *["apply IH to H2", "search"] * len(entries)]
    return Theorem(name, formula, tuple(script))


def stren_theorem_name(plan: StrengtheningPlan) -> str:
    return f"stren_{plan.deps[0]}_from_{plan.from_pred}"


def _ih_name(plan: StrengtheningPlan, pred: str) -> str:
    idx = plan.deps.index(pred)
    return "IH" if idx == 0 else f"IH{idx}"


def _strengthening(ctx: str, xs: list[str], f_txt: str, atom: str) -> str:
    """The strengthening statement: forall L xs, CTX L -> {L, F |- A} -> {L |- A}."""
    return (f"forall {' '.join(['L', *xs])}, {ctx} L -> "
            f"{{L, {f_txt} |- {atom}}} -> {{L |- {atom}}}")


def _conjunct_formula(program: Program, pred: str, f_txt: str) -> str:
    """The conjunct for pred, with F's text f_txt in its hypothesis."""
    arg_tys, _ = ty_flatten(program.sig.lookup(pred))
    xs = [f"X{i}" for i in range(1, len(arg_tys) + 1)]
    return _strengthening(ctx_name(pred), xs, f_txt, " ".join([pred] + xs))


def _stren_formula(plan: StrengtheningPlan, program: Program) -> str:
    conjuncts = [_conjunct_formula(program, a, plan.from_text) for a in plan.deps]
    if len(conjuncts) == 1:
        return conjuncts[0]
    return " /\\\n  ".join(f"({c})" for c in conjuncts)


def gen_stren_proof(plan: StrengtheningPlan,
                    program: Program) -> tuple[TacticScript, list[tuple[str, str]]]:
    """The proof script for the mutually-inductive strengthening theorem.

    Also returns the (a, b) subcontext pairs the script applies, in first-use
    order, so the caller can emit exactly the needed subcontext lemmas.
    """
    n = len(plan.deps)
    script: list[str] = ["induction on " + " ".join(["2"] * n)]
    if n >= 2:
        script.append("split")
    pairs: list[tuple[str, str]] = []

    def backchain(a: str, nc: NormalClause, base: int) -> None:
        """Strengthen the antecedent hypotheses H(base+1) .. H(base+m) of a
        clause headed by a, then close the subgoal."""
        c = base + len(nc.antecedents)
        for j, hp in enumerate(nc.antecedent_heads, start=1):
            if hp is None:
                continue  # a `true` antecedent needs no strengthening step
            if hp not in plan.contexts:
                raise PlanMismatch(f"no analysis cell for predicate {hp}")
            if (a, hp) not in pairs:
                pairs.append((a, hp))
            script.append(f"apply {subctx_name(a, hp)} to H1")
            c += 1
            script.append(f"apply {_ih_name(plan, hp)} to H{c} H{base + j}")
            c += 1
        script.append("search")

    for a_i in plan.deps:
        script += ["intros", "case H2"]
        # backchaining on a static clause: antecedent hypotheses from H3
        for d in program.clauses:
            if (nc := plan.clauses.get(d)[1]).head_pred == a_i:
                backchain(a_i, nc, 2)
        # backchaining on the dynamic context (F or a defined context formula)
        script += ["case H4", "case H3"]
        script.append(f"apply {ctx_member_name(a_i)} to H1 H5")
        forms = plan.contexts[a_i]
        if len(forms) > 1:
            script.append("case H6")
        for d in forms:
            script.append("case H3")
            nc = plan.clauses.get(d)[1]
            # antecedent hypotheses from H7; a head that cannot match
            # closes the subgoal outright
            if nc.head_pred == a_i:
                backchain(a_i, nc, 6)
    return tuple(script), pairs


def gen_user_theorem_proof(plan: StrengtheningPlan) -> TacticScript:
    """Proof of the user-entered strengthening theorem via the user-context
    subcontext lemma and the relevant strengthening conjunct."""
    hpg = plan.deps[0]
    part = stren_theorem_name(plan)
    if len(plan.deps) > 1:
        part = f"{part}_1"
    return (
        "intros",
        f"apply {plan.user_ctx_name}_subctx_{ctx_name(hpg)} to H1",
        f"apply {part} to H3 H2",
        "search",
    )


def gen_user_theorem(plan: StrengtheningPlan) -> Theorem:
    goal_vars = [v.name for v in free_vars_ordered(plan.goal)]
    formula = _strengthening(plan.user_ctx_name, goal_vars, plan.from_text,
                             printer(ABELLA)(plan.goal))
    name = f"{stren_theorem_name(plan)}_user"
    return Theorem(name, formula, gen_user_theorem_proof(plan))


def build_development(program: Program, plan: StrengtheningPlan,
                      spec_name: str) -> AbellaArtifact:
    """Assemble the complete `.thm` development for a validated plan."""
    # each formula object of the user context and the cells, rendered once
    held = {id(f): f for fs in (plan.user_ctx, *(plan.contexts[a] for a in plan.deps))
            for f in fs}
    text = {i: render_ctx_formula(f) for i, f in held.items()}
    cells = {a: [text[id(f)] for f in plan.contexts[a]] for a in plan.deps}
    items: list[AbellaItem] = [SpecRef(spec_name), gen_ctx_definition(
        plan.user_ctx_name, [text[id(f)] for f in plan.user_ctx])]
    items += [gen_ctx_definition(ctx_name(a), cells[a]) for a in plan.deps]
    items += [gen_ctx_member_lemma(a, cells[a]) for a in plan.deps]
    script, pairs = gen_stren_proof(plan, program)
    for a, b in pairs:
        items.append(gen_subctx_lemma(a, b, plan.contexts, subctx_name(a, b), ctx_name(a),
                                      plan.contexts[a].entries))
    stren = Theorem(stren_theorem_name(plan), _stren_formula(plan, program), script)
    items.append(stren)
    if len(plan.deps) >= 2:
        names = tuple(f"{stren.name}_{i}" for i in range(1, len(plan.deps) + 1))
        items.append(Split(stren.name, names))
    user, hpg = plan.user_ctx_name, plan.deps[0]
    items.append(gen_subctx_lemma(user, hpg, plan.contexts, f"{user}_subctx_{ctx_name(hpg)}",
                                  user, [(plan.clauses.get(f)[0], f) for f in plan.user_ctx]))
    items.append(gen_user_theorem(plan))
    return AbellaArtifact(tuple(items))


# -- rendering ---------------------------------------------------------------------------

def render(artifact: AbellaArtifact) -> str:
    """Abella concrete syntax; definition-before-use is checked first."""
    _check_ordering(artifact)
    if not artifact.items:
        return ""
    chunks: list[str] = []
    for item in artifact.items:
        if isinstance(item, SpecRef):
            chunks.append(f'Specification "{item.name}".')
        elif isinstance(item, Define):
            lines = [f"Define {item.name} : {item.ty} by"]
            rendered = []
            for head, body_txt in item.clauses:
                rendered.append(f"  {head}" if body_txt is None
                                else f"  {head} := {body_txt}")
            lines.append(";\n".join(rendered) + ".")
            chunks.append("\n".join(lines))
        elif isinstance(item, Theorem):
            lines = [f"Theorem {item.name} : {item.formula}."]
            lines += [f"{t}." for t in item.proof]
            chunks.append("\n".join(lines))
        elif isinstance(item, Split):
            chunks.append(f"Split {item.source} as {', '.join(item.names)}.")
    return "\n\n".join(chunks) + "\n"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_ordering(artifact: AbellaArtifact) -> None:
    names: set[str] = set()
    for item in artifact.items:
        if isinstance(item, (Define, Theorem)):
            names.add(item.name)
        elif isinstance(item, Split):
            names.update(item.names)
    defined: set[str] = set()
    for item in artifact.items:
        if isinstance(item, SpecRef):
            continue
        if isinstance(item, Define):
            text = " ".join(h + " " + (b or "") for h, b in item.clauses)
            own = {item.name}
        elif isinstance(item, Theorem):
            text = item.formula + " " + " ".join(item.proof)
            own = {item.name}
        else:
            text = item.source
            own = set(item.names)
        for tok in _NAME_RE.findall(text):
            if tok in names and tok not in defined and tok not in own:
                raise UnorderedArtifact(f"{tok} referenced before its definition")
        defined.update(own)


# -- companion specification files ------------------------------------------------------------

def echo_sig(program: Program, name: str) -> str:
    lines = [f"sig {name}."]
    for k in program.kinds:
        lines.append(f"kind {k} type.")
    for cname, ty in program.sig.consts.items():
        lines.append(f"type {cname} {ty!r}.")
    return "\n".join(lines) + "\n"


def echo_mod(program: Program, name: str, clauses: ClauseTable) -> str:
    """The `.mod` file of the program, from the normal forms in `clauses`."""
    lines = [f"module {name}."]
    consts = set(program.sig.consts)
    for clause in program.clauses:
        nc = clauses.get(clause)[1]
        rename = _capitalized((bname for bname, _ in nc.binders), consts)
        show = printer(ABELLA, rename)
        head_txt = show(nc.head)
        if nc.antecedents:
            body_txt = ", ".join(show(g, 1) for g in nc.antecedents)
            lines.append(f"{head_txt} :- {body_txt}.")
        else:
            lines.append(f"{head_txt}.")
    return "\n".join(lines) + "\n"
