import random
import sys

import pytest

from harrop import engine, formulas, terms
from harrop.cli import main
from harrop.engine import (
    Proved, Refuted, Sequent, TraceNode, Unknown,
    _finalize, _State, _synthesize, render_trace, replay_trace, solve, unify,
)
from harrop.errors import IllFormedSequent, NonRigidAtomError
from harrop.formulas import (
    TOP, GAnd, GAtom, GImp, GPi, GTop, Program, body, formula_view, imp,
    normalize_clause, pi, pp_formula, read_spine,
)
from harrop.parser import parse_clause, parse_goal, parse_program
from harrop.terms import (
    Abs, App, Bound, Const, Meta, O, Signature, TyArr, TyCon, Var, app_spine, arrow,
    instantiate, leaves, map_leaves, metas_of, normalize, shift, spine, subst_metas,
    ty_flatten,
)

from conftest import CORPUS, GOLDEN, corpus_text
from genutil import (
    check_weakening, prop_signature, random_program_clauses, random_goal, subsets_up_to,
)


def _seq(program, goal_text, dyn=(), mode="goal"):
    g = parse_goal(goal_text, program, mode=mode)
    return Sequent(program.sig, program.clauses, tuple(dyn), g)


def test_truth_axiom():
    sig = Signature()
    out = solve(Sequent(sig, (), (), TOP), 1)
    assert isinstance(out, Proved)
    assert out.trace.rule == "topR"
    assert out.trace.premises == ()


def test_typeof_derivation_matches_narration(typeof_program):
    out = solve(_seq(typeof_program, "typeof (abs b (x\\ x)) (arr b b)"), 8)
    assert isinstance(out, Proved)
    rules = out.trace.rules_preorder()
    # head branch first: focus, impL, init; antecedent branch: piR, impR, focus, init
    expected = ["focus", "impL", "init", "piR", "impR", "focus", "init"]
    it = iter(rules)
    assert all(r in it for r in expected), rules
    ok, msg = replay_trace(_seq(typeof_program, "typeof (abs b (x\\ x)) (arr b b)"),
                           out.trace)
    assert ok, msg


def test_append_query_proved(append_program):
    out = solve(_seq(append_program, "append (cons 1 nil) (cons 2 nil) K",
                     mode="query"), 8)
    assert isinstance(out, Proved)


def test_append_wrong_instance_refuted(append_program):
    out = solve(_seq(append_program, "append nil nil (cons 1 nil)"), 6)
    assert isinstance(out, Refuted)


def test_depth_exhaustion_is_unknown():
    prog = parse_program("type p o.\np => p.")
    out = solve(_seq(prog, "p"), 6)
    assert isinstance(out, Unknown)


def test_no_clauses_is_refuted():
    prog = parse_program("type p o.\ntype q o.\nq.")
    assert isinstance(solve(_seq(prog, "p"), 4), Refuted)


def test_non_pattern_problem_is_unknown():
    # focusing instantiates F with a metavariable; unifying F c with c is
    # outside the pattern fragment because c is not an eigenvariable
    prog = parse_program(
        "kind i type.\ntype c i.\ntype p i -> o.\ntype q o.\n"
        "p c.\npi F : i -> i \\ p (F c) => q.")
    out = solve(_seq(prog, "q"), 8)
    assert isinstance(out, Unknown)


# -- backchaining through solve ---------------------------------------------------------

def test_solve_focuses_a_fact():
    prog = parse_program("type a o.\na.")
    out = solve(_seq(prog, "a"), 1)
    assert isinstance(out, Proved)
    assert out.trace.rules_preorder() == ["focus", "init"]


def test_solve_refutes_an_unprovable_antecedent():
    prog = parse_program("type a o.\ntype g o.\ng => a.")
    assert isinstance(solve(_seq(prog, "a"), 4), Refuted)


def test_solve_focuses_an_instantiated_abs_clause(typeof_program):
    # the focused formula from the worked typing derivation, with its
    # universally quantified variables already instantiated, in the dynamic
    # context: it is tried before the static clauses
    clause = parse_clause(
        "(pi x \\ typeof x b => typeof x b) => typeof (abs b (x\\ x)) (arr b b)",
        typeof_program)
    out = solve(_seq(typeof_program, "typeof (abs b (x\\ x)) (arr b b)", dyn=(clause,)), 6)
    assert isinstance(out, Proved)
    assert out.trace.rules_preorder()[:2] == ["focus", "impL"]
    assert out.trace.focus == clause


def test_solve_rejects_non_clause_in_context():
    prog = parse_program("type a o.\na.")
    not_a_clause = parse_goal("a & a", prog)
    with pytest.raises(IllFormedSequent):
        solve(_seq(prog, "a", dyn=(not_a_clause,)), 1)


def test_solve_rejects_undeclared_clause_in_context():
    prog = parse_program("type a o.\na.")
    with pytest.raises(IllFormedSequent):
        solve(_seq(prog, "a", dyn=(Const("q", O),)), 1)


def test_only_package_errors_mean_ill_formed_or_not_replayable(monkeypatch):
    """Validation turns a package error into IllFormedSequent, and replay
    turns one into a rejection; any other exception is a defect and
    propagates from both."""
    prog = parse_program("type a o.\na.")
    seq = _seq(prog, "a")
    trace = solve(seq, 1).trace

    def broken(*args):
        raise ZeroDivisionError("defect")

    with monkeypatch.context() as m:
        m.setattr(engine, "check_goal", broken)
        with pytest.raises(ZeroDivisionError):
            solve(seq, 1)
    with monkeypatch.context() as m:
        m.setattr(engine, "formula_view", broken)
        with pytest.raises(ZeroDivisionError):
            replay_trace(seq, trace)

    def rejected(*args):
        raise NonRigidAtomError("package error")

    with monkeypatch.context() as m:
        m.setattr(engine, "check_goal", rejected)
        with pytest.raises(IllFormedSequent):
            solve(seq, 1)
    with monkeypatch.context() as m:
        m.setattr(engine, "formula_view", rejected)
        assert replay_trace(seq, trace) == (False, "replay error: package error")


# -- weakening / contraction ---------------------------------------------------------

def test_weakening_on_truth(append_program):
    seq = Sequent(append_program.sig, append_program.clauses, (), TOP)
    extra = parse_clause("append nil nil nil", append_program)
    assert check_weakening(seq, extra, 2)


def test_weakening_typeof_by_append_fact(typeof_program, append_program):
    # mix an unrelated clause into the dynamic context
    seq = _seq(typeof_program, "typeof (abs b (x\\ x)) (arr b b)")
    extra = parse_clause("typeof (abs b (x\\ x)) (arr b b)", typeof_program)
    assert check_weakening(seq, extra, 8)


def test_contraction_direction(append_program):
    # adding a duplicate of an existing clause preserves provability
    seq = _seq(append_program, "append (cons 1 nil) nil (cons 1 nil)")
    assert isinstance(solve(seq, 6), Proved)
    dup = parse_clause("append nil L L", append_program)
    assert check_weakening(seq, dup, 6)


def test_ill_formed_sequent_rejected(append_program):
    bad_goal = parse_goal("append nil nil nil", append_program)
    with pytest.raises(IllFormedSequent):
        solve(Sequent(Signature(), (), (), bad_goal), 3)  # constants undeclared


def test_depth_and_formula_types_are_checked_before_search():
    i = TyCon("i")
    a = Const("a", i)
    sig = Signature({"a": i, "q": O})
    q = Const("q", O)
    with pytest.raises(IllFormedSequent, match="^depth must be at least 1$"):
        solve(Sequent(sig, (), (), q), 0)
    # raised by the check itself, so it reaches the caller unwrapped
    for seq, msg in ((Sequent(sig, (), (), a), "goal is not a formula"),
                     (Sequent(sig, (a,), (), q), "context clause is not a formula")):
        with pytest.raises(IllFormedSequent) as exc:
            solve(seq, 3)
        assert str(exc.value) == msg and exc.value.__cause__ is None


def test_a_flexible_occurrence_is_unknown_to_unify():
    # ?M c = f (?N (?M c)): ?M occurs in the other side, but only under ?N,
    # which may discard it, so the problem is neither solved nor failed
    i = TyCon("i")
    state = _State()
    m, n = state.fresh_meta(arrow(i, i)), state.fresh_meta(arrow(i, i))
    c = state.fresh_eigen(i)
    f = Const("f", arrow(i, i))
    assert unify(App(m, c), App(f, App(n, App(m, c))), {}, state) == ("unknown", {})


# -- randomized engine properties (small scale; the acceptance suite scales up) -------

def _random_proved_sequents(seed, count, max_tries=4000):
    rng = random.Random(seed)
    sig = prop_signature(4)
    found = []
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        clauses = random_program_clauses(rng, 4, rng.randrange(2, 6), depth=2)
        goal = random_goal(rng, 4, 2)
        seq = Sequent(sig, clauses, (), goal)
        out = solve(seq, 6)
        if isinstance(out, Proved):
            found.append((seq, out))
    assert len(found) == count, "generator failed to find enough provable sequents"
    return found


def test_depth_monotonicity_random():
    rng = random.Random(11)
    sig = prop_signature(4)
    for _ in range(120):
        clauses = random_program_clauses(rng, 4, rng.randrange(1, 6), depth=2)
        goal = random_goal(rng, 4, 2)
        seq = Sequent(sig, clauses, (), goal)
        shallow = solve(seq, 3)
        deep = solve(seq, 5)
        if isinstance(shallow, Proved):
            assert isinstance(deep, Proved)
        if isinstance(shallow, Refuted):
            assert isinstance(deep, Refuted)


def test_weakening_random():
    rng = random.Random(13)
    for seq, _ in _random_proved_sequents(17, 40):
        extra = random_program_clauses(rng, 4, 1, depth=2)[0]
        assert check_weakening(seq, extra, 6)


def test_traces_replay_random():
    for seq, out in _random_proved_sequents(19, 40):
        ok, msg = replay_trace(seq, out.trace)
        assert ok, msg


def test_pi_r_constants_fresh(typeof_program):
    # replay checks the freshness side-condition of every piR node
    seq = _seq(typeof_program, "typeof (abs b (x\\ x)) (arr b (arr b b))")
    out = solve(seq, 8)
    assert isinstance(out, Refuted)  # identity cannot have that type
    seq2 = _seq(typeof_program, "typeof (abs b (x\\ abs b (y\\ x))) (arr b (arr b b))")
    out2 = solve(seq2, 8)
    assert isinstance(out2, Proved)
    ok, msg = replay_trace(seq2, out2.trace)
    assert ok, msg
    pir = [n for n, _ in out2.trace.walk() if n.rule == "piR"]
    assert len(pir) == 2
    names = {n.witness.name for n in pir}
    assert len(names) == 2  # distinct fresh constants
    for n in pir:
        assert n.witness.name not in typeof_program.sig


def test_trace_rendering_stable(typeof_program):
    seq = _seq(typeof_program, "typeof (abs b (x\\ x)) (arr b b)")
    out1 = solve(seq, 8)
    out2 = solve(seq, 8)
    golden = (GOLDEN / "typeof_trace.txt").read_text(encoding="utf-8")
    assert render_trace(out1.trace) == render_trace(out2.trace) == golden


# -- deep traces ----------------------------------------------------------------------

def test_deep_trace_walks():
    # p => p applied 2,000 times, then p: each level is focus, impL, init
    prog = parse_program("type p o.\np => p.\np.")
    step, fact = prog.clauses
    p = parse_goal("p", prog)

    def build(levels):
        trace = TraceNode("focus", p, focus=fact,
                          premises=(TraceNode("init", p, focus=p),))
        for _ in range(levels):
            trace = TraceNode("focus", p, focus=step, premises=(
                TraceNode("impL", p, focus=step,
                          premises=(TraceNode("init", p, focus=p), trace)),))
        return trace

    trace = build(2000)
    seq = Sequent(prog.sig, prog.clauses, (), p)
    assert len(trace.rules_preorder()) == 6002
    text = render_trace(trace)
    assert len(text.splitlines()) == 6002
    assert replay_trace(seq, trace) == (True, "")
    finalized = _finalize(trace, {}, prog.sig)
    assert finalized is not None
    assert render_trace(finalized) == text


def test_append_on_1000_elements_is_proved_and_replays():
    """Search, finalization and replay take append on a 1,000-element list
    at a recursion limit of 1000: the proof is about 2,000 levels deep."""
    program = parse_program((CORPUS / "append.hh").read_text(encoding="utf-8"))
    items = "nil"
    for i in range(1000):
        items = f"(cons {1 + i % 2} {items})"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        seq = _seq(program, f"append {items} nil {items}")
        out = solve(seq, 2010)
        replayed = replay_trace(seq, out.trace) if isinstance(out, Proved) else None
    finally:
        sys.setrecursionlimit(limit)
    assert replayed == (True, "")


def test_replay_type_checks_grow_linearly_with_the_list(monkeypatch):
    """Replaying append on n elements checks each piL witness's closed
    subterms once per signature: the witnesses are the list's suffixes, and
    the constants looked up by `infer_type` grow linearly from 250 to 1,000
    elements (they grew quadratically when every witness was walked whole)."""
    program = parse_program((CORPUS / "append.hh").read_text(encoding="utf-8"))
    lookup = Signature.lookup
    visits = 0

    def counting(self, name):
        nonlocal visits
        visits += 1
        return lookup(self, name)

    per_size = {}
    for n in (250, 1000):
        items = "nil"
        for i in range(n):
            items = f"(cons {1 + i % 2} {items})"
        seq = _seq(program, f"append {items} nil {items}")
        out = solve(seq, 2 * n + 10)
        assert isinstance(out, Proved)
        visits = 0
        with monkeypatch.context() as m:
            m.setattr(Signature, "lookup", counting)
            assert replay_trace(seq, out.trace) == (True, "")
        per_size[n] = visits
    assert per_size[1000] <= 4 * 1.1 * per_size[250], per_size


def test_replay_checks_a_witness_again_under_another_signature():
    """Two piR branches each add a constant `c`, at types i and j.  The
    well-typed witness `f c` of the first branch, reused in the second,
    is rejected there by its own type check: what replay remembered as
    well typed under the first branch's signature does not carry over."""
    program = parse_program("kind i type. kind j type.\n"
                            "type f i -> i. type h j -> i. type p i -> o. type r i -> o.\n"
                            "p X. r X.")
    i, j = TyCon("i"), TyCon("j")
    f, h = Const("f", TyArr(i, i)), Const("h", TyArr(j, i))
    p, r = Const("p", TyArr(i, O)), Const("r", TyArr(i, O))
    p_clause, r_clause = map(normalize, program.clauses)  # pi p, pi r

    def branch(ty, pred, clause, fn, witness=None):
        c = Const("c", ty)
        atom = App(pred, App(fn, c))
        proof = TraceNode("piL", atom, focus=clause, witness=witness or App(fn, c),
                          premises=(TraceNode("init", atom, focus=atom),))
        return TraceNode("piR", pi("x", ty, App(pred, App(fn, Var("x", ty)))), witness=c,
                         premises=(TraceNode("focus", atom, focus=clause, premises=(proof,)),))

    first = branch(i, p, p_clause, f)
    reused = first.premises[0].premises[0].witness
    goal = formulas.conj(first.goal, pi("x", j, App(r, App(h, Var("x", j)))))
    seq = Sequent(program.sig, program.clauses, (), goal)
    sound = TraceNode("andR", goal, premises=(first, branch(j, r, r_clause, h)))
    assert replay_trace(seq, sound) == (True, "")
    forged = TraceNode("andR", goal, premises=(first, branch(j, r, r_clause, h, reused)))
    assert replay_trace(seq, forged) == (
        False, "piL witness ill-typed: c declared at j but used at i")


def _with_node(node, path, **fields):
    """A copy of the trace with the node at path (premise indices from the
    root) rebuilt with the given fields changed."""
    parents = []
    for i in path:
        parents.append((node, i))
        node = node.premises[i]
    old = dict(rule=node.rule, goal=node.goal, focus=node.focus, witness=node.witness,
               premises=node.premises)
    node = TraceNode(**{**old, **fields})
    for parent, i in reversed(parents):
        premises = parent.premises[:i] + (node,) + parent.premises[i + 1:]
        node = TraceNode(parent.rule, parent.goal, parent.focus, parent.witness, premises)
    return node


def test_replay_names_each_broken_rule():
    """One valid trace uses every rule; each edit breaks one side condition,
    and replay answers with that condition's message."""
    prog = parse_program("kind i type. type a i. type p i -> o. type q o. q => p X.")
    i, q = TyCon("i"), Const("q", O)
    seq = _seq(prog, "true & (q => pi x\\ p x)")
    trace = solve(seq, 5).trace
    assert trace.rules_preorder() == [
        "andR", "topR", "impR", "piR", "focus", "piL", "impL", "init", "focus", "init"]
    assert replay_trace(seq, trace) == (True, "")
    top, imp_r, pi_r, focus, pi_l, imp_l, init = (
        [0], [1], [1, 0], [1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0])
    goal = trace.premises[1].premises[0].premises[0].goal  # p x#1, the focus node's
    edits = [
        (pi_l, dict(focus=q), "piL: focus mismatch"),
        (top, dict(goal=q), "topR: goal mismatch"),
        (imp_r, dict(rule="topR"), "topR on non-true"),
        (imp_r, dict(rule="andR"), "andR shape"),
        ([], dict(rule="impR"), "impR shape"),
        ([], dict(rule="piR"), "piR shape"),
        (pi_r, dict(witness=None), "piR witness must be a constant"),
        (pi_r, dict(witness=Const("a", i)), "piR constant not fresh"),
        (pi_r, dict(witness=Const("c", O)),
         "replay error: argument type o does not match domain i"),
        (top, dict(rule="focus"), "focus shape"),
        (focus, dict(focus=parse_clause("p a", prog)), "focused clause not in context"),
        (top, dict(rule="init"), "unexpected rule init in goal position"),
        (focus, dict(focus=q, premises=(TraceNode("init", goal, focus=q),)),
         "init: focus != goal"),
        (pi_l, dict(rule="impL"), "impL shape"),
        (imp_l, dict(rule="piL"), "piL shape"),
        (pi_l, dict(witness=None), "piL without witness"),
        (pi_l, dict(witness=q), "piL witness type mismatch"),
        (pi_l, dict(witness=Const("zz", i)), "piL witness ill-typed: unknown identifier: zz"),
        (init, dict(rule="topR"), "unexpected rule topR in focus position"),
    ]
    for path, fields, message in edits:
        assert replay_trace(seq, _with_node(trace, path, **fields)) == (False, message)
    assert len({message for _, _, message in edits}) == 19


def test_cli_solve_long_list_trace(capsys):
    items = "nil"
    for i in range(56):
        items = f"(cons {1 + i % 2} {items})"
    code = main(["solve", str(CORPUS / "append.hh"), f"append {items} nil K",
                 "--depth", "116", "--trace"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.splitlines()[0] == "Proved"


def test_finalization_cost_per_node_is_flat(monkeypatch):
    """App nodes built and leaves visited by `map_leaves` while solving
    append, per trace node, do not grow from 16 to 128 elements: the
    answer's binding chain is resolved once for the trace, and shifting a
    closed binding under binders does not walk it."""
    program = parse_program((CORPUS / "append.hh").read_text(encoding="utf-8"))
    built = visited = 0
    init = App.__init__

    def counting(self, fn, arg):
        nonlocal built
        built += 1
        init(self, fn, arg)

    def visiting(t, f, **modes):
        def leaf(u, k):
            nonlocal visited
            visited += 1
            return f(u, k)
        return map_leaves(t, leaf, **modes)

    per_node = {}
    for n in (16, 128):
        items = "nil"
        for i in range(n):
            items = f"(cons {1 + i % 2} {items})"
        seq = _seq(program, f"append {items} nil K", mode="query")
        built = visited = 0
        with monkeypatch.context() as m:
            m.setattr(App, "__init__", counting)
            m.setattr(terms, "map_leaves", visiting)
            m.setattr(engine, "map_leaves", visiting)
            out = solve(seq, 2 * n + 10)
        assert isinstance(out, Proved)
        nodes = sum(1 for _ in out.trace.walk())
        per_node[n] = (built / nodes, visited / nodes)
    for i in (0, 1):
        assert per_node[128][i] <= 1.25 * per_node[16][i], per_node


def test_a_head_that_fails_to_unify_builds_no_antecedent(monkeypatch):
    """A variable lookup over 16 dynamic clauses: every focus fails at the
    head, so no antecedent of the two static typing clauses is instantiated;
    a head that unifies does instantiate them."""
    program = parse_program((CORPUS / "typeof.hh").read_text(encoding="utf-8")
                            + "type c ty.\n")
    antecedents = [a for d in program.clauses
                   for _, g, a in read_spine(normalize(d))[0] if g is None]
    opened = []

    def recording(t, values):
        opened.append(t)
        return instantiate(t, values)

    monkeypatch.setattr(engine, "instantiate", recording)
    hyps = " => ".join(f"pi x{i} : tm \\ typeof x{i} b" for i in range(15))
    lookup = f"pi x : tm \\ typeof x c => {hyps} => typeof x b"
    assert isinstance(solve(_seq(program, lookup), 8), Refuted)
    assert opened and not any(t == a for t in opened for a in antecedents)
    assert isinstance(solve(_seq(program, "typeof (abs b (x\\ x)) T", mode="query"), 8),
                      Proved)
    assert any(t == a for t in opened for a in antecedents)


def test_render_cost_per_node_is_flat(monkeypatch):
    """App nodes printed per rendered trace line on append do not grow with
    the list: one printer serves the whole trace, and a subterm without
    binders or indices is printed once however many lines show it."""
    program = parse_program((CORPUS / "append.hh").read_text(encoding="utf-8"))
    printed = 0
    spine = formulas.spine

    def counting(t):
        nonlocal printed
        printed += 1
        return spine(t)

    per_line = {}
    for n in (16, 64):
        items = "nil"
        for i in range(n):
            items = f"(cons {1 + i % 2} {items})"
        out = solve(_seq(program, f"append {items} nil K", mode="query"), 2 * n + 10)
        assert isinstance(out, Proved)
        printed = 0
        with monkeypatch.context() as m:
            m.setattr(formulas, "spine", counting)
            text = render_trace(out.trace)
        per_line[n] = printed / len(text.splitlines())
    assert per_line[64] <= 1.25 * per_line[16], per_line


# -- the search against a reference prover ------------------------------------------------
#
# The reference is the former unindexed prover, with its own copies of the
# former resolution, unification and pattern binding: every atomic goal
# focuses on every dynamic clause (most recent first) and then every static
# clause, a clause with another head fails only after its binders were
# opened, and every goal, focus and unification pair is resolved in full.

def _ref_nf(t, subst):
    return normalize(subst_metas(t, subst))


def _ref_open_with(t, c):
    return instantiate(t.body, (c,)) if isinstance(t, Abs) else normalize(App(t, c))


def _ref_try_bind(m, args, t, subst, state):
    names = []
    for a in args:
        if not (isinstance(a, Const) and a.name in state.eigen_stamp) or a.name in names:
            return "unknown", subst
        names.append(a.name)
    occ, t_metas, t_consts = _ref_scan(m.uid, t)
    if occ:
        return ("fail" if occ == "rigid" else "unknown"), subst
    stamp = state.meta_stamp.get(m.uid, 0)
    if any(state.stamp_of_const(c) > stamp and c not in names for c in t_consts):
        return ("unknown" if t_metas else "fail"), subst
    for uid in t_metas:
        state.lower_meta(uid, stamp)
    sol = t
    for a in reversed(args):
        body = map_leaves(sol, lambda u, k: Bound(k, a.ty) if u == a else u)
        sol = Abs(a.ty, body, a.name.split("#")[0])
    return "ok", {**subst, m.uid: sol}


def _ref_unify(a, b, subst, state):
    eqs = [(a, b)]
    while eqs:
        x, y = eqs.pop()
        x, y = _ref_nf(x, subst), _ref_nf(y, subst)
        if x == y:
            continue
        if isinstance(x, Meta) or isinstance(y, Meta):
            m, t = (x, y) if isinstance(x, Meta) else (y, x)
            st, subst2 = _ref_try_bind(m, [], t, subst, state)
            if st == "ok":
                subst = subst2
                continue
            if st == "fail":
                return st, subst
        if isinstance(x, Abs) or isinstance(y, Abs):
            c = state.fresh_eigen(x.arg_ty if isinstance(x, Abs) else y.arg_ty, "v")
            eqs.append((_ref_open_with(x, c), _ref_open_with(y, c)))
            continue
        (hx, ax), (hy, ay) = spine(x), spine(y)
        flex_x, flex_y = isinstance(hx, Meta), isinstance(hy, Meta)
        if flex_x and flex_y and hx.uid == hy.uid:
            if ax == ay:
                continue
            return "unknown", subst
        if flex_x or flex_y:
            st = "unknown"
            if flex_x:
                st, subst2 = _ref_try_bind(hx, ax, y, subst, state)
            if st == "unknown" and flex_y:
                st, subst2 = _ref_try_bind(hy, ay, x, subst, state)
            if st != "ok":
                return st, subst
            subst = subst2
            continue
        if hx != hy or len(ax) != len(ay):
            return "fail", subst
        eqs.extend(zip(ax, ay))
    return "ok", subst


def _ref_prove(static, dyn, goal, depth, subst, state):
    g = _ref_nf(goal, subst)
    try:
        v = formula_view(g)
    except NonRigidAtomError:
        state.incomplete = True
        return
    if isinstance(v, GTop):
        yield subst, TraceNode("topR", g)
    elif isinstance(v, GAnd):
        for s1, tr1 in _ref_prove(static, dyn, v.left, depth, subst, state):
            for s2, tr2 in _ref_prove(static, dyn, v.right, depth, s1, state):
                yield s2, TraceNode("andR", g, premises=(tr1, tr2))
    elif isinstance(v, GImp):
        for s1, tr1 in _ref_prove(static, dyn + (v.antecedent,), v.consequent, depth,
                                  subst, state):
            yield s1, TraceNode("impR", g, premises=(tr1,))
    elif isinstance(v, GPi):
        c = state.fresh_eigen(v.ty, v.fn.hint if isinstance(v.fn, Abs) else "x")
        for s1, tr1 in _ref_prove(static, dyn, App(v.fn, c), depth, subst, state):
            yield s1, TraceNode("piR", g, witness=c, premises=(tr1,))
    elif depth < 1:
        state.incomplete = True
    else:
        for d in tuple(reversed(dyn)) + static:
            for s1, tr1 in _ref_focus(static, dyn, d, g, depth - 1, subst, state):
                yield s1, TraceNode("focus", g, focus=_ref_nf(d, subst), premises=(tr1,))


def _ref_focus(static, dyn, focus, goal_atom, depth, subst, state):
    f = _ref_nf(focus, subst)
    try:
        v = formula_view(f)
    except NonRigidAtomError:
        state.incomplete = True
        return
    if isinstance(v, GAtom):
        st, s1 = _ref_unify(f, goal_atom, subst, state)
        if st == "ok":
            yield s1, TraceNode("init", goal_atom, focus=f)
        elif st == "unknown":
            state.incomplete = True
    elif isinstance(v, GImp):
        if depth < 1:
            state.incomplete = True
            return
        for s1, tr_head in _ref_focus(static, dyn, v.consequent, goal_atom, depth - 1,
                                      subst, state):
            for s2, tr_goal in _ref_prove(static, dyn, v.antecedent, depth - 1, s1, state):
                yield s2, TraceNode("impL", goal_atom, focus=f, premises=(tr_head, tr_goal))
    elif isinstance(v, GPi):
        hint = v.fn.hint if isinstance(v.fn, Abs) else "T"
        m = state.fresh_meta(v.ty, hint.upper() if hint else "T")
        for s1, tr in _ref_focus(static, dyn, App(v.fn, m), goal_atom, depth, subst, state):
            yield s1, TraceNode("piL", goal_atom, focus=f, witness=m, premises=(tr,))


def _ref_solve(seq, depth):
    """The outcome, and the search state as the search left it."""
    state = _State()
    for subst, trace in _ref_prove(seq.static_ctx, seq.dynamic_ctx, seq.goal, depth, {},
                                   state):
        resolved = _finalize(trace, subst, seq.sig)
        if resolved is not None:
            return Proved(resolved), state
        state.incomplete = True
    return (Unknown() if state.incomplete else Refuted()), state


def _matches_reference(monkeypatch, sequents, min_each=50):
    """Outcomes, trace bytes, the final counter and the incomplete flag are
    the reference prover's at every depth from 1 to 6."""
    states = []

    class Recorded(_State):
        def __init__(self):
            super().__init__()
            states.append(self)

    monkeypatch.setattr(engine, "_State", Recorded)
    kinds = {}
    for seq in sequents:
        for depth in range(1, 7):
            got, (want, ref) = solve(seq, depth), _ref_solve(seq, depth)
            assert type(got) is type(want), (seq, depth)
            if isinstance(want, Proved):
                assert render_trace(got.trace) == render_trace(want.trace), (seq, depth)
            assert (states[-1].counter, states[-1].incomplete) == \
                (ref.counter, ref.incomplete), (seq, depth)
            kinds[type(want).__name__] = kinds.get(type(want).__name__, 0) + 1
    assert min(kinds.get(k, 0) for k in ("Proved", "Refuted", "Unknown")) >= min_each, kinds


_FO_SIG = """kind i type.
type a i.
type b i.
type f i -> i.
type p0 i -> o.
type p1 i -> o.
type p2 i -> i -> o.
type p3 o.
"""
_FO_ARITY = {"p0": 1, "p1": 1, "p2": 2, "p3": 0}


class _FirstOrder:
    """Seeded first-order programs and goals as `.hh` text.  Clause spines
    interleave `pi` binders with `=>` antecedents (some eta-contract to
    `pi (p2 t)`), and goals nest `=>` and `pi`, so dynamic clauses of other
    predicates and eigenvariables meet the skip rules."""

    def __init__(self, rng):
        self.rng = rng

    def term(self, names):
        t = self.rng.choice(names + ["a", "b"])
        return f"(f {t})" if self.rng.random() < 0.25 else t

    def atom(self, names):
        p = self.rng.choice(sorted(_FO_ARITY))
        return " ".join([p] + [self.term(names) for _ in range(_FO_ARITY[p])])

    def goal(self, names, depth):
        r = self.rng.random()
        if depth <= 0 or r < 0.3:
            return self.atom(names)
        if r < 0.4:
            return f"({self.goal(names, depth - 1)} & {self.goal(names, depth - 1)})"
        if r < 0.7:
            return f"({self.clause(names, depth - 1)} => {self.goal(names, depth - 1)})"
        x = f"x{len(names)}"
        return f"(pi {x} : i \\ {self.goal(names + [x], depth - 1)})"

    def clause(self, names, depth):
        parts = []
        for _ in range(self.rng.choice([0, 1, 2, 3, 4]) if depth > 0 else 0):
            if self.rng.random() < 0.5:
                x = f"x{len(names)}"
                names = names + [x]
                parts.append(f"pi {x} : i \\ ")
            else:
                parts.append(f"{self.goal(names, depth - 1)} => ")
        if parts and names and self.rng.random() < 0.2:  # eta-contracts: pi (p2 t)
            return f"({''.join(parts)}pi y : i \\ p2 {self.term(names)} y)"
        return f"({''.join(parts)}{self.atom(names)})"

    def sequent(self):
        clauses = [self.clause([], 2) for _ in range(self.rng.randrange(2, 7))]
        program = parse_program(_FO_SIG + "".join(f"{c}.\n" for c in clauses))
        goal = parse_goal(self.goal(["X"], 3), program, mode="query")
        return Sequent(program.sig, program.clauses, (), goal)


def test_indexed_search_matches_unindexed_reference(monkeypatch):
    """Skipping clauses with another head leaves outcomes, trace bytes and
    the final counter and incomplete flag as the unindexed prover has them,
    at every depth from 1 to 6."""
    gen = _FirstOrder(random.Random(8))
    _matches_reference(monkeypatch, [gen.sequent() for _ in range(150)])


_HO_SIG = """kind i type.
type a i.
type b i.
type f i -> i.
type g (i -> i) -> i.
type p i -> o.
type q i -> i -> o.
type r (i -> i) -> o.
type s o.
"""


class _HigherOrder:
    """Seeded higher-order programs and goals as `.hh` text: abstraction
    arguments (`g (y\\ ...)`, `r F`), `pi x\\ ... => ...` antecedents in
    clauses and goals, and capitals of type i -> i applied to bound names
    (pattern problems) or to the constant a (outside the pattern fragment).
    In a query the capitals are metavariables."""

    def __init__(self, rng):
        self.rng = rng

    def term(self, xs, fs, depth):
        """A term of type i over the names xs : i and fs : i -> i."""
        r = self.rng.random()
        if depth <= 0 or r < 0.3:
            return self.rng.choice(xs + ["a", "b"])
        if r < 0.45:
            return f"(f {self.term(xs, fs, depth - 1)})"
        if r < 0.6:
            y = f"y{depth}{len(xs)}"
            return f"(g ({y}\\ {self.term(xs + [y], fs, depth - 1)}))"
        bound = [x for x in xs if x.islower()]  # a capital argument's type is ambiguous
        if fs:
            return f"({self.rng.choice(fs)} {self.rng.choice(bound + ['a'])})"
        return self.rng.choice(xs + ["a"])

    def fun(self, xs, fs, depth):
        """A term of type i -> i."""
        r = self.rng.random()
        if fs and r < 0.35:
            return self.rng.choice(fs)
        if r < 0.5:
            return "f"
        y = f"z{depth}{len(xs)}"
        return f"({y}\\ {self.term(xs + [y], fs, depth - 1)})"

    def atom(self, xs, fs, depth):
        r = self.rng.random()
        if r < 0.35:
            return f"p {self.term(xs, fs, depth)}"
        if r < 0.6:
            return f"q {self.term(xs, fs, depth)} {self.term(xs, fs, depth)}"
        if r < 0.9:
            return f"r {self.fun(xs, fs, depth)}"
        return "s"

    def goal(self, xs, fs, depth):
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            return self.atom(xs, fs, 1)
        if r < 0.45:
            return f"({self.goal(xs, fs, depth - 1)} & {self.goal(xs, fs, depth - 1)})"
        if r < 0.7:
            return f"({self.clause(xs, fs, depth - 1)} => {self.goal(xs, fs, depth - 1)})"
        x = f"x{len(xs)}"
        return f"(pi {x} : i \\ {self.goal(xs + [x], fs, depth - 1)})"

    def clause(self, xs, fs, depth):
        parts = []
        for _ in range(self.rng.choice([0, 1, 1, 2]) if depth > 0 else 0):
            if self.rng.random() < 0.4:
                x = f"w{len(xs)}"
                xs = xs + [x]
                parts.append(f"pi {x} : i \\ ")
            elif self.rng.random() < 0.5:  # the typing rule's antecedent shape
                x = f"v{len(xs)}"
                parts.append(f"(pi {x} : i \\ p {x} => {self.atom(xs + [x], fs, 1)}) => ")
            else:
                parts.append(f"{self.goal(xs, fs, depth - 1)} => ")
        return f"({''.join(parts)}{self.atom(xs, fs, 1)})"

    def sequent(self):
        caps = (["X", "Y"], ["F", "G"])
        clauses = [self.clause(*caps, 2) for _ in range(self.rng.randrange(2, 6))]
        program = parse_program(_HO_SIG + "".join(f"{c}.\n" for c in clauses))
        goal = parse_goal(self.goal(*caps, 3), program, mode="query")
        return Sequent(program.sig, program.clauses, (), goal)


def test_search_matches_reference_on_higher_order_programs(monkeypatch):
    """Resolving each goal once, unifying rigid pairs unresolved, building a
    clause's instances after its head unified and skipping the binding scan
    leave outcomes, trace bytes, the final counter and the incomplete flag
    as the reference has them, on higher-order programs at depths 1 to 6."""
    gen = _HigherOrder(random.Random(31))
    _matches_reference(monkeypatch, [gen.sequent() for _ in range(150)])


def test_goals_reach_unification_resolved(monkeypatch):
    """Each atomic goal reaches `unify` resolved under the substitution it is
    tried under: a goal taken after an earlier goal bound one of its
    metavariables was resolved again.  Outcomes cannot show a stale goal:
    goal heads are rigid, and `unify` and `_finalize` resolve what they read."""
    checked = stale = 0
    unify = engine.unify

    def checking(head, goal, subst, state):
        nonlocal checked, stale
        checked += 1
        stale += any(m.uid in subst for m in metas_of(goal))
        return unify(head, goal, subst, state)

    monkeypatch.setattr(engine, "unify", checking)
    gen = _HigherOrder(random.Random(31))
    for seq in [gen.sequent() for _ in range(150)]:
        for depth in range(1, 7):
            solve(seq, depth)
    assert checked >= 1000 and stale == 0, (checked, stale)


# -- one reading of a clause spine and of a bound term ----------------------------------

def _ref_shape(clause, expanded):
    """The former `_shape`: formula_view at every step of the spine; records
    each eta-contracted `pi g` it expands."""
    before, pis, t = [], 0, clause
    while True:
        try:
            v = formula_view(t)
        except NonRigidAtomError:
            return None
        if isinstance(v, GImp):
            before.append(pis)
            t = v.consequent
        elif isinstance(v, GPi):
            pis += 1
            if isinstance(v.fn, Abs):
                t = v.fn.body
            else:
                expanded.append(clause)
                t = App(shift(v.fn, 1), Bound(0, v.ty))
        elif isinstance(v, GAtom):
            return v.pred, tuple(before), pis
        else:
            return None


def test_shape_matches_formula_view_walk():
    """`_shape` reads a clause's spine as `read_spine` read it once; it
    gives what the former walk gave on generated clauses, dynamic ones and
    eta-contracted ones included."""
    gen = _FirstOrder(random.Random(21))
    expanded, clauses = [], []
    for _ in range(200):
        seq = gen.sequent()
        clauses += [normalize(d) for d in seq.static_ctx]
        clauses += formulas.body(seq.goal)
    for d in clauses:
        assert engine._shape(read_spine(d)) == _ref_shape(d, expanded), \
            pp_formula(d)
    assert len(expanded) >= 20


_FLEX_I = TyCon("i")
# pi F\ F a: an atom whose head is a variable once its binder is opened
_FLEX = App(Const("pi", TyArr(TyArr(TyArr(_FLEX_I, O), O), O)),
            Abs(TyArr(_FLEX_I, O), App(Bound(0, TyArr(_FLEX_I, O)), Const("a", _FLEX_I)),
                "F"))


def test_validation_is_the_only_gate_for_non_clauses():
    """Search has no path for a clause that is not a clause or for a goal
    with a flexible head: `_validate` rejects each of them, as a static
    clause, as a dynamic clause and as a goal, before search starts."""
    sig = Signature({"a": _FLEX_I, "q": O})
    q = Const("q", O)
    non_clauses = [TOP, formulas.conj(TOP, TOP), imp(TOP, TOP), _FLEX, imp(TOP, _FLEX)]
    for d in non_clauses:
        for seq in (Sequent(sig, (d,), (), q), Sequent(sig, (), (d,), q)):
            with pytest.raises(IllFormedSequent):
                solve(seq, 3)
    with pytest.raises(IllFormedSequent):
        solve(Sequent(sig, (), (), _FLEX), 3)
    assert isinstance(solve(Sequent(sig, (q,), (), q), 3), Proved)


def _calls(monkeypatch, *names):
    """Wrap each named `engine` global; returns name -> the term each call
    was given (its last argument), in order."""
    seen = {name: [] for name in names}
    for name in names:
        def wrapped(*args, _fn=getattr(engine, name), _log=seen[name]):
            _log.append(args[-1])
            return _fn(*args)
        monkeypatch.setattr(engine, name, wrapped)
    return seen


def _list(n):
    return "nil" if n == 0 else f"(cons 1 {_list(n - 1)})"


def _entries(ctx):
    while ctx is not None:
        entry, ctx = ctx
        yield entry


def test_a_parsed_program_is_checked_and_read_once(monkeypatch):
    """50 solves on one parsed program: no static clause reaches the type
    or grammar check, and each is normalized and read into a search entry
    once in all, by the first solve."""
    program = parse_program(corpus_text("append.hh"))
    seen = _calls(monkeypatch, "infer_type", "check_clause", "_entry")
    outcomes = set()
    for i in range(50):
        xs, ys = _list(i % 7), _list(i % 3)
        zs = _list(i % 7 + i % 3 + i % 2)  # one in two is refuted
        out = solve(_seq(program, f"append {xs} {ys} {zs}"), 20)
        outcomes.add(type(out))
    assert outcomes == {Proved, Refuted}
    static = {id(d) for d in program.clauses}
    assert not [d for d in seen["infer_type"] + seen["check_clause"] if id(d) in static]
    assert len(seen["infer_type"]) == 50  # the goals
    assert len(seen["_entry"]) == len(program.clauses)
    assert [e[0] for e in _entries(program.clauses.search)] == \
        [normalize(d) for d in program.clauses]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.hh")), ids=lambda p: p.name)
def test_the_parser_checks_what_solve_skips(path):
    """Every clause a parsed program holds passes the check `solve` no
    longer runs on it."""
    program = parse_program(path.read_text(encoding="utf-8"))
    engine._validate(program.sig, program.clauses, TOP)


def test_only_the_parsed_signature_skips_the_static_check(monkeypatch):
    """Only a parsed program's own `Clauses` under its own `Signature` object
    skip the check: a hand-built program, a copy, a slice, or the same
    clauses under another signature object are checked as any sequent is,
    and the goal and the dynamic clauses always are."""
    program = parse_program(corpus_text("append.hh"))
    clauses, goal = program.clauses, parse_goal("append nil nil nil", program)
    q, nil = Const("q", O), Const("nil", program.sig.lookup("nil"))
    hand = Program(program.sig, (nil,))
    wider = program.sig.extend_const("q", O)
    assert clauses == tuple(clauses) and hand.clauses == (nil,)
    assert repr(clauses) == repr(tuple(clauses))
    unknown, non_clause = "unknown identifier: append", \
        "not a program clause: head position holds GTop"
    for seq, msg in ((Sequent(hand.sig, hand.clauses, (), TOP),
                      "context clause is not a formula"),
                     (Sequent(Signature(), tuple(clauses), (), TOP), unknown),
                     (Sequent(Signature(), clauses[1:], (), TOP), unknown),
                     (Sequent(Signature(), clauses, (), TOP), unknown),
                     (Sequent(wider, clauses, (TOP,), q), non_clause),
                     (Sequent(program.sig, clauses, (TOP,), goal), non_clause),
                     (Sequent(program.sig, clauses, (), nil), "goal is not a formula")):
        with pytest.raises(IllFormedSequent) as exc:
            solve(seq, 3)
        assert str(exc.value) == msg
    seen = _calls(monkeypatch, "infer_type")
    for static in (tuple(clauses), clauses[:], clauses):
        for sig in (Signature(program.sig.consts), wider):
            seen["infer_type"].clear()
            assert isinstance(solve(Sequent(sig, static, (), goal), 3), Proved)
            assert seen["infer_type"] == [goal, *clauses]
    seen["infer_type"].clear()
    solve(Sequent(program.sig, clauses, (), goal), 3)
    assert seen["infer_type"] == [goal]


def _ref_occurs(uid, t, rigid=True):
    """The former recursive occurs check."""
    head, args = spine(t)
    found = None
    if isinstance(head, Meta):
        if head.uid == uid:
            return "rigid" if rigid else "flex"
        for a in args:
            if _ref_occurs(uid, a, rigid=False) and found != "rigid":
                found = "flex"
        return found
    if isinstance(t, Abs):
        return _ref_occurs(uid, t.body, rigid)
    for a in args:
        r = _ref_occurs(uid, a, rigid)
        if r == "rigid":
            return "rigid"
        found = r or found
    return found


def _ref_scan(uid, t):
    consts = {u.name for u, _ in leaves(t) if isinstance(u, Const)}
    return _ref_occurs(uid, t), {m.uid for m in metas_of(t)}, consts


_I = TyCon("i")
_F = Const("f", arrow(_I, _I, _I))
_G = Const("g", TyArr(TyArr(_I, _I), _I))
_METAS = [Meta("M1", _I, 1), Meta("M2", _I, 2), Meta("H3", TyArr(_I, _I), 3),
          Meta("H4", TyArr(_I, _I), 4), Meta("K5", arrow(_I, _I, _I), 5)]


def _scan_term(rng, binders, size):
    """A normal term of type i: constants, indices, bare metavariables,
    metavariable-headed and rigid applications, and binders under `g`."""
    r = rng.random()
    if size <= 1 or r < 0.2:
        leaves_ = [Const(rng.choice("abc"), _I), *_METAS[:2]]
        leaves_ += [Bound(k, _I) for k in range(binders)]
        return rng.choice(leaves_)
    if r < 0.45:
        return App(App(_F, _scan_term(rng, binders, size // 2)),
                   _scan_term(rng, binders, size // 2))
    if r < 0.6:
        return App(_G, Abs(_I, _scan_term(rng, binders + 1, size - 1), "y"))
    if r < 0.8:
        return App(rng.choice(_METAS[2:4]), _scan_term(rng, binders, size - 1))
    return App(App(_METAS[4], _scan_term(rng, binders, size // 2)),
               _scan_term(rng, binders, size // 2))


def test_scan_matches_former_walks():
    """One `_scan` gives what `_occurs`, `metas_of` and `consts_of` gave, on
    random terms and on a 3,000-element list at the default recursion
    limit."""
    rng = random.Random(5)
    seen = set()
    for _ in range(2000):
        t = _scan_term(rng, 0, rng.randrange(1, 24))
        if rng.random() < 0.3:
            t = Abs(_I, t, "z")
        for uid in (1, 3, 5, 9):
            got = engine._scan(uid, t)
            assert got == _ref_scan(uid, t), t
            seen.add(got[0])
    assert seen == {"rigid", "flex", None}

    lst = TyCon("list")
    cons = Const("cons", arrow(_I, lst, lst))
    xs = Const("nil", lst)
    for k in range(3000):
        x = _METAS[0] if k == 1500 else App(_METAS[2], _METAS[1]) if k == 7 else Const("a", _I)
        xs = App(App(cons, x), xs)
    assert engine._scan(1, xs) == ("rigid", {1, 2, 3}, {"cons", "nil", "a"})
    assert engine._scan(2, xs)[0] == "flex" and engine._scan(9, xs)[0] is None


def _lists_program(n_distractors):
    """Append, then distractor predicates of the benchmark's shape: clauses
    over lists and naturals that open binders before their head mismatches."""
    lines = ["kind nat type.", "kind list type.", "type n0 nat.", "type n1 nat.",
             "type nil list.", "type cons nat -> list -> list.",
             "type append list -> list -> list -> o.",
             "append nil L L.",
             "append L1 L2 L3 => append (cons X L1) L2 (cons X L3)."]
    for k in range(n_distractors):
        tys = ["list", "nat", "list"][:1 + k % 3]
        base = ["nil" if i == 0 else f"L{i}" if ty == "list" else "n0"
                for i, ty in enumerate(tys)]
        step = [f"(cons N{i} L{i})" if ty == "list" else f"N{i}" for i, ty in enumerate(tys)]
        rec = [f"L{i}" if ty == "list" else f"N{i}" for i, ty in enumerate(tys)]
        lines += [f"type d{k} {' -> '.join(tys)} -> o.", f"d{k} {' '.join(base)}.",
                  f"d{k} {' '.join(rec)} => d{k} {' '.join(step)}."]
    return "\n".join(lines) + "\n"


def test_distractor_predicates_cost_no_unify_calls(monkeypatch):
    """Refuting append tries only append clauses: the unify calls are the
    same with 0 and with 16 predicates of other names in the program."""
    calls = 0
    unify = engine.unify

    def counting(*args):
        nonlocal calls
        calls += 1
        return unify(*args)

    monkeypatch.setattr(engine, "unify", counting)
    xs = [f"n{i % 2}" for i in range(10)]
    items, wrong = "nil", "(cons n1 nil)"  # xs ++ [n1] for xs ++ [n0]: fails at the end
    for x in reversed(xs):
        items, wrong = f"(cons {x} {items})", f"(cons {x} {wrong})"
    counts = []
    for n_distractors in (0, 16):
        program = parse_program(_lists_program(n_distractors))
        calls = 0
        out = solve(_seq(program, f"append {items} (cons n0 nil) {wrong}"), 28)
        assert isinstance(out, Refuted)
        counts.append(calls)
    assert counts[0] == counts[1], counts


# -- witness synthesis against the former recursive one ---------------------------------

def _ref_synthesize(ty, sig, fuel=3):
    if fuel <= 0:
        return None
    for name, cty in sig.consts.items():
        if cty == ty:
            return Const(name, cty)
    if isinstance(ty, TyArr):
        body = _ref_synthesize(ty.cod, sig, fuel - 1)
        return None if body is None else Abs(ty.dom, shift(body, 1), "w")
    for name, cty in sig.consts.items():
        args, res = ty_flatten(cty)
        if res == ty and args:
            built = [_ref_synthesize(a, sig, fuel - 1) for a in args]
            if None not in built:
                return app_spine(Const(name, cty), built)
    return None


def _random_type(rng, bases, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(bases)
    return TyArr(_random_type(rng, bases, depth - 1), _random_type(rng, bases, depth - 1))


def _random_signature(rng, bases):
    return Signature({f"c{i}": _random_type(rng, bases, 3) for i in range(rng.randrange(1, 7))})


def test_synthesize_matches_the_recursive_reference():
    """The same witness (or None) as the former recursive search at fuel 0
    to 3: for every type of every corpus signature and seeded random types
    over its base types, and on seeded random signatures."""
    rng = random.Random(19)
    sigs = [parse_program(p.read_text(encoding="utf-8")).sig
            for p in sorted(CORPUS.glob("*.hh"))]
    sigs += [_random_signature(rng, [TyCon("a"), TyCon("b"), O]) for _ in range(40)]
    found = 0
    for sig in sigs:
        tys = {t for cty in sig.consts.values() for t in [cty, *ty_flatten(cty)[0]]}
        bases = sorted({t for t in tys if isinstance(t, TyCon)}, key=repr) or [O]
        tys |= {_random_type(rng, bases, 3) for _ in range(30)}
        for ty in sorted(tys, key=repr):
            for fuel in range(4):
                want = _ref_synthesize(ty, sig, fuel)
                assert _synthesize(ty, sig, fuel) == want, (sig, ty, fuel)
                found += want is not None and not isinstance(want, Const)
    assert found >= 100, found
