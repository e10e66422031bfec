import random

import pytest

from harrop.cli import main
from harrop.engine import (
    FocusedSequent, Proved, Refuted, Sequent, TraceNode, Unknown,
    _finalize, _State, check_weakening, render_trace, replay_trace, solve,
    solve_focused,
)
from harrop.errors import IllFormedSequent
from harrop.formulas import TOP, body, imp, normalize_clause, pi, pp_formula
from harrop.parser import parse_clause, parse_goal, parse_program
from harrop.terms import App, Const, O, Signature, TyCon

from conftest import CORPUS
from genutil import (
    prop_signature, random_program_clauses, random_goal, subsets_up_to,
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


# -- focused search -----------------------------------------------------------------

def test_focused_init():
    prog = parse_program("type a o.\na.")
    a = parse_goal("a", prog)
    out = solve_focused(FocusedSequent(prog.sig, prog.clauses, (), a, a), 1)
    assert isinstance(out, Proved)
    assert out.trace.rule == "init"


def test_focused_unprovable_antecedent():
    prog = parse_program("type a o.\ntype g o.\na.")
    focus = parse_clause("g => a", prog)
    a = parse_goal("a", prog)
    out = solve_focused(
        FocusedSequent(prog.sig, (), (), focus, a), 4)
    assert isinstance(out, Refuted)


def test_focused_instantiated_abs_clause(typeof_program):
    # the focused formula from the worked typing derivation, with its
    # universally quantified variables already instantiated
    focus = parse_clause(
        "(pi x \\ typeof x b => typeof x b) => typeof (abs b (x\\ x)) (arr b b)",
        typeof_program)
    goal = parse_goal("typeof (abs b (x\\ x)) (arr b b)", typeof_program)
    out = solve_focused(
        FocusedSequent(typeof_program.sig, typeof_program.clauses, (), focus, goal), 6)
    assert isinstance(out, Proved)
    rules = out.trace.rules_preorder()
    assert rules[0] == "impL"


def test_focused_requires_atomic_goal(typeof_program):
    g = parse_goal("true", typeof_program)
    with pytest.raises(IllFormedSequent):
        solve_focused(FocusedSequent(typeof_program.sig, (), (), g, g), 1)


def test_focused_rejects_non_clause_in_context():
    prog = parse_program("type a o.\na.")
    a = parse_goal("a", prog)
    not_a_clause = parse_goal("a & a", prog)
    with pytest.raises(IllFormedSequent):
        solve_focused(FocusedSequent(prog.sig, (), (not_a_clause,), a, a), 1)


def test_focused_rejects_undeclared_focus():
    prog = parse_program("type a o.\na.")
    a = parse_goal("a", prog)
    with pytest.raises(IllFormedSequent):
        solve_focused(FocusedSequent(prog.sig, prog.clauses, (), Const("q", O), a), 1)


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
    assert render_trace(out1.trace) == render_trace(out2.trace)
    assert render_trace(out1.trace).splitlines()[0].startswith("focus ")


# -- deep traces ----------------------------------------------------------------------

def test_deep_trace_walks():
    # p => p applied 2,000 times, then p: each level is focus, impL, init
    prog = parse_program("type p o.\np => p.\np.")
    step, fact = prog.clauses
    p = parse_goal("p", prog)

    def build(levels, last_rule="init"):
        trace = TraceNode("focus", p, focus=fact,
                          premises=(TraceNode(last_rule, p, focus=p),))
        for _ in range(levels):
            trace = TraceNode("focus", p, focus=step, premises=(
                TraceNode("impL", p, focus=step,
                          premises=(TraceNode("init", p, focus=p), trace)),))
        return trace

    trace = build(2000)
    # equality, hashing and repr read the walk, not the recursion stack
    assert trace == build(2000) and hash(trace) == hash(build(2000))
    assert trace != build(1999) and trace != build(2000, last_rule="topR")
    text = repr(trace)
    assert text.count("TraceNode(") == 6002
    # the innermost init node, then every enclosing node closes
    assert text.endswith("premises=()),))" + ")),))" * 2000)
    seq = Sequent(prog.sig, prog.clauses, (), p)
    assert len(trace.rules_preorder()) == 6002
    text = render_trace(trace)
    assert len(text.splitlines()) == 6002
    assert replay_trace(seq, trace) == (True, "")
    finalized = _finalize(trace, {}, prog.sig, _State())
    assert finalized is not None
    assert render_trace(finalized) == text


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
    """App nodes built while solving append, per trace node, do not grow with
    the list: the answer's binding chain is resolved once for the trace."""
    program = parse_program((CORPUS / "append.hh").read_text(encoding="utf-8"))
    built = 0
    post_init = App.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    per_node = {}
    for n in (16, 64):
        items = "nil"
        for i in range(n):
            items = f"(cons {1 + i % 2} {items})"
        seq = _seq(program, f"append {items} nil K", mode="query")
        built = 0
        with monkeypatch.context() as m:
            m.setattr(App, "__post_init__", counting)
            out = solve(seq, 2 * n + 10)
        assert isinstance(out, Proved)
        per_node[n] = built / sum(1 for _ in out.trace.walk())
    assert per_node[64] <= 1.25 * per_node[16], per_node
