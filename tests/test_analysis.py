import random
import sys
from pathlib import Path

import pytest

from harrop import analysis, formulas
from harrop.analysis import (
    Blocked, ClauseTable, Validated, analysis_report, analyze_program,
    check_strengthenable,
    collect_context_constraints, collect_dependency_constraints, render_report,
    solve_context_fixpoint, solve_dependency_fixpoint,
)
from harrop.engine import Proved, Refuted, Sequent, solve
from harrop.errors import HarropError, NoHead, NonRigidAtomError, UndefinedPredicate
from harrop.formulas import (
    TOP, Program, body, canonical_key, conj, head_pred, imp, normalize_clause,
    pp_formula,
)
from harrop.parser import (
    parse_clause, parse_goal, parse_program, parse_source,
    split_directive_context, split_directive_strengthen,
)
from harrop.terms import (
    Abs, App, Bound, Const, O, Signature, TyArr, TyCon, Var, free_vars_ordered, map_leaves,
)

from conftest import CORPUS
from genutil import (
    FormulaSet, prop_signature, random_clause, random_goal, random_program_clauses,
    subsets_up_to,
)


def _constraint_set(constraints):
    return {(c.target, tuple(c.includes_context_of),
             tuple(pp_formula(f) for f in c.includes_formulas))
            for c in constraints}


def test_collect_branching_constraints(branching_program):
    # processing the single clause yields the two equations for p; recursing
    # into s => r and r => p adds the pure-flow equations C(s) >= C(r) and
    # C(r) >= C(p)
    cs = collect_context_constraints(ClauseTable(), branching_program)
    assert _constraint_set(cs) == {
        ("p", ("q",), ("s => r",)),
        ("p", ("q",), ("r => p",)),
        ("s", ("r",), ()),
        ("r", ("p",), ()),
    }


def test_collect_append_constraints(append_program):
    cs = collect_context_constraints(ClauseTable(), append_program)
    # Horn clauses carry no formulas into any context
    assert all(not c.includes_formulas for c in cs)


def test_collect_typeof_constraints(typeof_program):
    cs = collect_context_constraints(ClauseTable(), typeof_program)
    with_formulas = [c for c in cs if c.includes_formulas]
    assert len(with_formulas) == 1
    c = with_formulas[0]
    assert c.target == "typeof"
    assert c.includes_context_of == ("typeof",)
    assert [pp_formula(f) for f in c.includes_formulas] == ["typeof x T1"]


def test_branching_context_fixpoint(branching_program):
    cs = collect_context_constraints(ClauseTable(), branching_program)
    ctx = solve_context_fixpoint(ClauseTable(), cs, branching_program.predicates)
    assert [pp_formula(t) for t in ctx["p"]] == ["s => r", "r => p"]
    assert len(ctx["q"]) == 0
    # the flow equations force r's and s's contexts up to p's
    assert [pp_formula(t) for t in ctx["r"]] == ["s => r", "r => p"]
    assert [pp_formula(t) for t in ctx["s"]] == ["s => r", "r => p"]


def test_empty_constraint_set_fixpoint():
    ctx = solve_context_fixpoint(ClauseTable(), [], ["a", "b"])
    assert set(ctx) == {"a", "b"}
    assert all(len(v) == 0 for v in ctx.values())


def test_append_context_fixpoint(append_program):
    ctx, _ = analyze_program(append_program)
    assert all(len(v) == 0 for v in ctx.values())


def test_branching_dependency_constraints(branching_program):
    ctx, _ = analyze_program(branching_program)
    dcs = collect_dependency_constraints(ClauseTable(), branching_program, ctx)
    got = {(c.target, tuple(c.includes_deps_of)) for c in dcs}
    # S(q) >= S(p) u S(p) from the program clause; s => r is recorded for
    # target r and r => p for target p once the contexts are solved
    assert ("q", ("p", "p")) in got
    assert ("p", ("r",)) in got
    assert ("r", ("s",)) in got
    assert not any(c.target == "s" for c in dcs)


def test_append_dependency_constraints(append_program):
    ctx, _ = analyze_program(append_program)
    dcs = collect_dependency_constraints(ClauseTable(), append_program, ctx)
    assert [(c.target, tuple(c.includes_deps_of)) for c in dcs] == [
        ("append", ("append",))]


def test_list_minus_dependencies_disjoint(list_minus_program):
    ctx, deps = analyze_program(list_minus_program)
    dcs = collect_dependency_constraints(ClauseTable(), list_minus_program, ctx)
    for c in dcs:
        if c.target == "list_minus":
            assert "append" not in c.includes_deps_of
        if c.target == "append":
            assert "list_minus" not in c.includes_deps_of
    assert deps["list_minus"] == ["list_minus"]
    assert deps["append"] == ["append"]


def test_branching_dependency_fixpoint(branching_program):
    _, deps = analyze_program(branching_program)
    assert deps["s"] == ["s"]
    assert set(deps["r"]) == {"r", "s"}
    assert set(deps["p"]) == {"p", "r", "s"}
    assert set(deps["q"]) == {"q", "p", "r", "s"}
    # the deliberate overestimation: no goal s is reachable, yet s lands in
    # S(p) because the two conjunctive branches are pooled
    assert "s" in deps["p"]


def test_single_fact_dependency():
    prog = parse_program("type q o.\nq.")
    _, deps = analyze_program(prog)
    assert deps == {"q": ["q"]}


def test_guarded_dependencies(guarded_program):
    _, deps = analyze_program(guarded_program)
    assert set(deps["g"]) == {"g", "a"}
    assert "b" not in deps["g"]
    assert "f" not in deps["g"]


# -- the strengthening verdict ------------------------------------------------------

def test_list_minus_validated(list_minus_program):
    f = parse_clause("append nil L L", list_minus_program)
    g = parse_goal("list_minus X L1 L2", list_minus_program)
    v = check_strengthenable(list_minus_program, f, g)
    assert isinstance(v, Validated)
    assert v.deps == ("list_minus",)


def test_direct_use_blocked():
    prog = parse_program("type f o.\ntype g o.\nf => g.\nf.")
    v = check_strengthenable(prog, parse_clause("f", prog), parse_goal("g", prog))
    assert isinstance(v, Blocked)
    assert v.pred == "f"


def test_transitive_dependency_blocked():
    prog = parse_program("type f o.\ntype a o.\ntype g o.\nf => a.\na => g.\nf.")
    v = check_strengthenable(prog, parse_clause("f", prog), parse_goal("g", prog))
    assert isinstance(v, Blocked)
    assert v.pred == "f"


def test_guarded_validated_both_ways(guarded_program):
    g = parse_goal("g", guarded_program)
    v1 = check_strengthenable(guarded_program, parse_clause("f", guarded_program), g)
    assert isinstance(v1, Validated)
    v2 = check_strengthenable(guarded_program,
                              parse_clause("f => b", guarded_program), g)
    assert isinstance(v2, Validated)


def test_goal_head_must_be_declared(guarded_program):
    g = Const("nonexistent", O)
    with pytest.raises(UndefinedPredicate):
        check_strengthenable(guarded_program,
                             parse_clause("f", guarded_program), g)


def test_a_hand_built_non_clause_is_rejected_not_skipped():
    """The parser admits only clauses.  A hand-built program or user context
    holding `true`, `true & true` or a clause with a flexible head raises the
    grammar error: skipping the formula could drop a dependency and make a
    Blocked verdict Validated."""
    i = TyCon("i")
    sig = Signature({"a": i, "q": O, "r": O})
    q, r = Const("q", O), Const("r", O)
    flex = App(Const("pi", TyArr(TyArr(TyArr(i, O), O), O)),
               Abs(TyArr(i, O), App(Bound(0, TyArr(i, O)), Const("a", i)), "F"))
    for bad in (TOP, conj(TOP, TOP), flex):
        program = Program(sig, (q, bad))
        with pytest.raises(HarropError):
            analyze_program(program)
        with pytest.raises(HarropError):
            check_strengthenable(program, r, q)
        with pytest.raises(HarropError):
            check_strengthenable(Program(sig, (q,)), r, q, (bad,))
    assert isinstance(check_strengthenable(Program(sig, (q,)), r, q, (q,)), Validated)


def test_seeding_enters_every_context(guarded_program):
    extra = parse_clause("b", guarded_program)
    g = parse_goal("g", guarded_program)
    v = check_strengthenable(guarded_program, parse_clause("f", guarded_program),
                             g, (extra,))
    assert isinstance(v, Validated)
    for pred in ("g", "a"):
        assert extra in FormulaSet(list(v.contexts[pred]))


def test_goal_antecedents_seeded(guarded_program):
    # strengthening an implication goal seeds its body into the contexts
    g = parse_goal("b => g", guarded_program)
    v = check_strengthenable(guarded_program,
                             parse_clause("f => b", guarded_program), g)
    b = parse_clause("b", guarded_program)
    assert isinstance(v, Validated)
    assert b in FormulaSet(list(v.contexts["g"]))


# -- structural properties ------------------------------------------------------------

def test_reflexivity_everywhere(branching_program, append_program):
    for prog in (branching_program, append_program):
        _, deps = analyze_program(prog)
        for a, names in deps.items():
            assert a in names


def test_monotonicity_under_clause_addition():
    rng = random.Random(23)
    sig = prop_signature(4)
    for _ in range(60):
        clauses = random_program_clauses(rng, 4, rng.randrange(1, 5), depth=2)
        extra = random_program_clauses(rng, 4, 1, depth=2)
        small = Program(sig, clauses)
        big = Program(sig, clauses + extra)
        ctx_s, deps_s = analyze_program(small)
        ctx_b, deps_b = analyze_program(big)
        for a in ctx_s:
            assert all(ctx_b[a].has_key(key) for key, _ in ctx_s[a].entries)
        for a in deps_s:
            assert set(deps_s[a]) <= set(deps_b[a])


def test_fixpoint_is_least(branching_program):
    # removing any non-seed element from a solved cell violates a constraint:
    # equivalently, re-solving from scratch reproduces exactly the same sets
    cs = collect_context_constraints(ClauseTable(), branching_program)
    ctx = solve_context_fixpoint(ClauseTable(), cs, branching_program.predicates)
    again = solve_context_fixpoint(ClauseTable(), cs, branching_program.predicates)
    for a in ctx:
        assert [canonical_key(t) for t in ctx[a]] == \
            [canonical_key(t) for t in again[a]]
    # dropping one formula from C(p) breaks closure under some constraint
    dropped = [t for t in ctx["p"]][1:]
    violated = False
    for c in cs:
        if c.target == "p":
            have = FormulaSet(dropped)
            need = list(c.includes_formulas)
            for src in c.includes_context_of:
                need.extend(list(ctx[src]))
            if any(f not in have for f in need):
                violated = True
    assert violated


def test_report_fields(branching_program):
    ctx, deps = analyze_program(branching_program)
    doc = analysis_report(ctx, deps)
    assert set(doc) == {"contexts", "dependencies", "verdict", "blocked_on"}
    assert doc["dependencies"]["q"] == ["q", "p", "r", "s"]
    assert doc["contexts"]["p"] == ["s => r", "r => p"]
    text = render_report(doc)
    assert "S(q)" in text and "C(p)" in text


def test_report_records_blocked_verdict():
    prog = parse_program("type f o.\ntype g o.\nf => g.\nf.")
    v = check_strengthenable(prog, parse_clause("f", prog), parse_goal("g", prog))
    doc = analysis_report(v.contexts, v.dependencies, v)
    assert doc["verdict"] == "blocked"
    assert doc["blocked_on"] == "f"


# -- reference: the plain round-robin analysis ------------------------------------------
#
# A compact copy of the straightforward implementation: the context worklist,
# the predicate-by-clause dependency loop that keys and normalizes every
# clause for every predicate, and round-robin passes that re-read whole cells
# until nothing changes.  The fast analysis must fill every cell in exactly
# this order, because the order is what the reports and .thm files print.

def _ref_normalize(d):
    try:
        return normalize_clause(d)
    except HarropError:
        return None


def _ref_head(g):
    try:
        return head_pred(g)
    except (NoHead, NonRigidAtomError):
        return None


def _ref_context_constraints(clauses):
    out, worklist, seen = [], list(clauses), set()
    while worklist:
        d = worklist.pop(0)
        key = canonical_key(d)
        if key in seen:
            continue
        seen.add(key)
        nc = _ref_normalize(d)
        if nc is None:
            continue
        for g in nc.antecedents:
            formulas = tuple(body(g))
            if (hp := _ref_head(g)) is not None:
                out.append((hp, (nc.head_pred,), formulas))
            worklist.extend(formulas)
    return out


def _ref_solve(constraints, names, initial, make, add):
    cells = {}
    for p in names:
        cells.setdefault(p, make(p))
    for target, srcs, _ in constraints:
        for p in (target, *srcs):
            cells.setdefault(p, make(p))
    for p, items in initial.items():
        cells.setdefault(p, make(p))
        for x in items:
            add(cells[p], x)
    changed = True
    while changed:
        changed = False
        for target, srcs, facts in constraints:
            for x in facts:
                changed |= add(cells[target], x)
            for p in srcs:
                for x in list(cells[p]):
                    changed |= add(cells[target], x)
    return cells


def _ref_add_name(cell, q):
    if q in cell:
        return False
    cell.append(q)
    return True


def _ref_analyze(program, extra_static=(), seeds=(), goal_pred=None):
    static = list(program.clauses) + list(extra_static)
    cs = _ref_context_constraints(static)
    preds = program.predicates
    universe = list(preds)
    names = [p for target, sources, _ in cs for p in (target, *sources)]
    for p in names + ([goal_pred] if goal_pred else []):
        if p not in universe:
            universe.append(p)
    seed_map = {p: list(seeds) for p in universe}
    ctx = _ref_solve(cs, preds, seed_map, lambda p: FormulaSet(), FormulaSet.add)
    universe = list(dict.fromkeys([*preds, *ctx]))
    dcs = []
    for a in universe:
        seen = set()
        for d in static + list(ctx.get(a, ())):
            key = canonical_key(d)
            if key in seen:
                continue
            seen.add(key)
            nc = _ref_normalize(d)
            if nc is None or nc.head_pred != a:
                continue
            heads = tuple(h for g in nc.antecedents
                          if (h := _ref_head(g)) is not None)
            if heads:
                dcs.append((a, heads, ()))
    deps = _ref_solve(dcs, universe, {}, lambda p: [p], _ref_add_name)
    return ctx, deps, cs, dcs


def _ref_check(program, f, g, extra_ctx=()):
    seeds = list(extra_ctx) + body(g)
    return _ref_analyze(program, tuple(seeds), seeds, head_pred(g))[:2]


def _as_lists(ctx, deps):
    return ([(p, [(t, pp_formula(t)) for t in fs]) for p, fs in ctx.items()],
            list(deps.items()))


def _assert_same_order(program, f=None, g=None, extra_ctx=()):
    ref_ctx, ref_deps, ref_cs, ref_dcs = _ref_analyze(program)
    want = _as_lists(ref_ctx, ref_deps)
    ctx, deps = analyze_program(program)
    assert _as_lists(ctx, deps) == want
    cs = collect_context_constraints(ClauseTable(), program)
    assert [(c.target, c.includes_context_of, c.includes_formulas)
            for c in cs] == ref_cs
    dcs = collect_dependency_constraints(ClauseTable(), program, ctx)
    assert [(c.target, c.includes_deps_of, ()) for c in dcs] == ref_dcs
    if g is not None:
        v = check_strengthenable(program, f, g, extra_ctx)
        assert _as_lists(v.contexts, v.dependencies) == \
            _as_lists(*_ref_check(program, f, g, extra_ctx))
    return want


def test_insertion_order_matches_round_robin_on_random_programs():
    rng = random.Random(170509025)
    nonempty = 0
    for _ in range(200):
        n = rng.randrange(3, 7)
        sig = prop_signature(n)
        prog = Program(sig, random_program_clauses(rng, n, rng.randrange(2, 9)))
        extra = random_program_clauses(rng, n, rng.randrange(0, 3), depth=2)
        ctx_lists, _ = _assert_same_order(
            prog, random_clause(rng, n, 2), random_goal(rng, n, 2), extra)
        nonempty += any(fs for _, fs in ctx_lists)
    # nested implications: most programs must exercise the context fixpoint
    assert nonempty >= 100


def test_insertion_order_matches_round_robin_on_corpus():
    corpus = Path(__file__).parent.parent / "corpus"
    for path in sorted(corpus.glob("*.hh")):
        parsed = parse_source(path.read_text(encoding="utf-8"))
        prog = parsed.program
        user: dict[str, list] = {}
        for d in parsed.directives:
            if d.kind == "context":
                name, clause = split_directive_context(d, prog)
                user.setdefault(name, []).append(clause)
        requests = [split_directive_strengthen(d, prog)
                    for d in parsed.directives if d.kind == "strengthen"]
        _assert_same_order(prog)
        for name, f, g in requests:
            _assert_same_order(prog, f, g, tuple(user.get(name, ())))


def test_each_clause_keyed_and_normalized_once_per_analysis(monkeypatch):
    # an append family of 40 predicates and 80 clauses: step clauses of a_k
    # call a_(k//2), so the dependency cells form a tree
    n = 40
    lines = ["kind nat type.", "kind list type.", "type nil list.",
             "type cons nat -> list -> list."]
    lines += [f"type a{k} list -> list -> list -> o." for k in range(n)]
    for k in range(n):
        lines.append(f"a{k} nil L L.")
        lines.append(f"a{k // 2} L1 L2 L3 => a{k} (cons X L1) L2 (cons X L3).")
    prog = parse_program("\n".join(lines) + "\n")
    assert len(prog.clauses) == 2 * n
    calls = {"canonical_key": 0, "normalize_clause": 0}
    for name in calls:
        def counted(t, _fn=getattr(analysis, name), _name=name):
            calls[_name] += 1
            return _fn(t)
        monkeypatch.setattr(analysis, name, counted)
    ctx, deps = analyze_program(prog)
    assert all(len(fs) == 0 for fs in ctx.values())
    assert deps["a3"] == ["a3", "a1", "a0"]
    for name, count in calls.items():
        assert count <= len(prog.clauses), (name, count)


def test_one_goal_reduction_per_table_row_and_antecedent(monkeypatch):
    """The analysis reduces each clause-table row's formula once and each of
    its antecedents once, in `normalize_clause`, and reads every head
    predicate from the rows: no stage reduces an antecedent again, and no
    spine is walked outside a `formula_view`.  A request adds two
    reductions: one for the goal's head and body, one for the discarded
    formula's head."""
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import StrengthenRandom, family_program

    made = StrengthenRandom(False).generate(random.Random(1234), "w")
    argv = made.commands[0].argv
    prog = parse_source(made.files[argv[1]]).program
    request = (parse_clause(argv[argv.index("--from") + 1], prog),
               parse_goal(argv[argv.index("--goal") + 1], prog))
    calls = [(check_strengthenable, (prog, *request), 2), (analyze_program, (prog,), 0)]
    for n in (24, 96):
        family = parse_source(family_program(random.Random(n), n)[0]).program
        calls.append((analyze_program, (family,), 0))

    counts = dict.fromkeys(("reduce_spine", "spine", "formula_view"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(formulas, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(formulas, name, counted)
    rows = []
    normalize = analysis.normalize_clause
    monkeypatch.setattr(analysis, "normalize_clause",
                        lambda d: rows.append(normalize(d)) or rows[-1])
    for fn, args, extra in calls:
        rows.clear()
        counts.update(dict.fromkeys(counts, 0))
        result = fn(*args)
        assert sum(len(nc.antecedents) for nc in rows) > 0
        assert counts["reduce_spine"] == \
            sum(1 + len(nc.antecedents) for nc in rows) + extra, (fn.__name__, counts)
        assert counts["spine"] == counts["formula_view"], (fn.__name__, counts)
        if isinstance(result, Validated):  # one normal form per row
            assert len(result.clauses._rows) == len(rows)


# -- soundness of Validated verdicts, checked against the prover ---------------------------
#
# The strengthening lemma for a Validated verdict says: for every context L
# that the cell C(hp(G)) admits, and the user context U, if U, L, F |- G then
# U, L |- G.  So whenever the prover proves U, L, F |- G at some depth, it
# must not refute U, L |- G at that depth: a proof that never uses F is a
# proof without it, and exhaustive failure would mean F was needed.

ORACLE_DEPTH = 8


def _grounded(sig, terms):
    """sig extended by a fresh constant for each free variable of terms, and
    the terms with each free variable replaced by its constant: an instance
    of the universally quantified lemma."""
    consts = {}
    for t in terms:
        for v in free_vars_ordered(t):
            if v.name not in consts:
                consts[v.name] = Const(f"eig_{v.name}", v.ty)
                sig = sig.extend_const(consts[v.name].name, v.ty)
    return sig, [map_leaves(t, lambda u, k: consts[u.name] if isinstance(u, Var) else u)
                 for t in terms]


def _soundness_counterexamples(program, f, g, user):
    """The contexts L (at most two formulas of C(hp(G))) on which the prover
    proves U, L, F |- G but refutes U, L |- G, and how many it proved."""
    verdict = check_strengthenable(program, f, g, user)
    if not isinstance(verdict, Validated):
        return [], 0
    cell = list(verdict.contexts[head_pred(g)])
    bad, proved = [], 0
    for extra in subsets_up_to(cell, 2):
        sig, (f_, g_, *dyn) = _grounded(program.sig, [f, g, *user, *extra])
        with_f = solve(Sequent(sig, program.clauses, (*dyn, f_), g_), ORACLE_DEPTH)
        if isinstance(with_f, Proved):
            proved += 1
            without = solve(Sequent(sig, program.clauses, tuple(dyn), g_), ORACLE_DEPTH)
            if isinstance(without, Refuted):
                bad.append((pp_formula(g), [pp_formula(d) for d in extra]))
    return bad, proved


def test_validated_verdicts_are_sound_against_the_prover():
    # 400 programs at this seed: keeping only every second dependency
    # constraint, or dropping the first one, gives counterexamples here
    rng = random.Random(7)
    validated = proved = 0
    bad = []
    for _ in range(400):
        n = rng.randrange(3, 7)
        prog = Program(prop_signature(n), random_program_clauses(rng, n, rng.randrange(3, 9)))
        user = random_program_clauses(rng, n, rng.randrange(0, 2), depth=2)
        f, g = random_clause(rng, n, 2), random_goal(rng, n, 2)
        found, k = _soundness_counterexamples(prog, f, g, user)
        bad += found
        validated += k > 0
        proved += k
    for path in sorted(CORPUS.glob("*.hh")):  # first-order and higher-order programs
        parsed = parse_source(path.read_text(encoding="utf-8"))
        user: dict[str, list] = {}
        for d in parsed.directives:
            if d.kind == "context":
                name, clause = split_directive_context(d, parsed.program)
                user.setdefault(name, []).append(clause)
        for d in parsed.directives:
            if d.kind == "strengthen":
                name, f, g = split_directive_strengthen(d, parsed.program)
                bad += _soundness_counterexamples(
                    parsed.program, f, g, tuple(user.get(name, ())))[0]
    assert not bad, bad
    # the programs exercise the property, not only verdicts that make it vacuous
    assert validated >= 60 and proved >= 500
