import pytest

from harrop.errors import NoHead, NonRigidAtomError, NotAClause
from harrop.formulas import (
    FormulaSet, TOP, body, canonical_key, check_clause, check_goal, conj,
    formula_view, GAtom, GImp, GPi, GTop, head_pred, imp, normalize_clause,
    pi, pp_formula, renest_clause,
)
from harrop.parser import parse_clause, parse_goal, parse_program
from harrop.terms import Const, O, Var


def _prop(name):
    return Const(name, O)


S, R, P, Q = _prop("s"), _prop("r"), _prop("p"), _prop("q")


def test_view_classification():
    assert isinstance(formula_view(TOP), GTop)
    assert isinstance(formula_view(S), GAtom)
    assert isinstance(formula_view(imp(S, R)), GImp)
    v = formula_view(pi("x", O, TOP))
    assert isinstance(v, GPi)


def test_non_rigid_atom_rejected():
    with pytest.raises(NonRigidAtomError):
        formula_view(Var("X", O))


def test_head_pred_of_clause():
    # the clause s => r has head predicate r
    assert head_pred(imp(S, R)) == "r"


def test_head_pred_of_atom(append_program):
    g = parse_goal("append nil L L", append_program)
    assert head_pred(g) == "append"


def test_head_pred_top_has_none():
    with pytest.raises(NoHead):
        head_pred(TOP)


def test_head_pred_bare_conjunction_ambiguous():
    with pytest.raises(NoHead):
        head_pred(conj(S, R))


def test_body_single_implication():
    # ((s => r) => p): reducing to p exposes s => r
    g = imp(imp(S, R), P)
    assert body(g) == [imp(S, R)]


def test_body_of_typeof_abs_antecedent(typeof_program):
    clause = typeof_program.clauses[1]
    nc = normalize_clause(clause)
    (antecedent,) = nc.antecedents
    bs = body(antecedent)
    assert len(bs) == 1
    assert head_pred(bs[0]) == "typeof"
    assert pp_formula(bs[0]) == "typeof x T1"


def test_body_atomic_goal_empty(append_program):
    g = parse_goal("append L1 L2 L3", append_program)
    assert body(g) == []


def test_body_subset_of_syntactic_antecedents():
    g = imp(imp(S, R), imp(imp(R, P), P))
    bs = body(g)
    assert bs == [imp(S, R), imp(R, P)]


# -- clause normalization -------------------------------------------------------

def test_normalize_append_cons_clause(append_program):
    nc = normalize_clause(append_program.clauses[1])
    assert [n for n, _ in nc.binders] == ["L1", "L2", "L3", "X"]
    assert len(nc.antecedents) == 1
    assert pp_formula(nc.antecedents[0]) == "append L1 L2 L3"
    assert pp_formula(nc.head) == "append (cons X L1) L2 (cons X L3)"


def test_normalize_chained_implications(typeof_program):
    # typeof-app chains two implications; they flatten in order
    nc = normalize_clause(typeof_program.clauses[0])
    assert [pp_formula(a) for a in nc.antecedents] == [
        "typeof M1 (arr T1 T2)", "typeof M2 T1"]
    assert pp_formula(nc.head) == "typeof (app M1 M2) T2"


def test_normalize_fact():
    prog = parse_program("type q o.\nq.")
    nc = normalize_clause(prog.clauses[0])
    assert nc.antecedents == ()
    assert pp_formula(nc.head) == "q"


def test_normalize_flattens_top_level_conjunction(branching_program):
    nc = normalize_clause(branching_program.clauses[0])
    assert [pp_formula(a) for a in nc.antecedents] == [
        "(s => r) => p", "(r => p) => p"]
    assert nc.head_pred == "q"


def test_normalize_idempotent(append_program, typeof_program, branching_program):
    for prog in (append_program, typeof_program, branching_program):
        for c in prog.clauses:
            nc = normalize_clause(c)
            again = normalize_clause(renest_clause(nc))
            assert len(again.binders) == len(nc.binders)
            assert again.antecedents == nc.antecedents
            assert again.head == nc.head


def test_renest_round_trip(typeof_program):
    # renesting restores the exact term only when the clause already had the
    # pi xs. (G1 & ... & Gn) => A shape; chained implications re-nest as a
    # conjunction, but the normal form is preserved either way
    abs_clause = typeof_program.clauses[1]
    assert canonical_key(renest_clause(normalize_clause(abs_clause))) \
        == canonical_key(abs_clause)
    app_clause = typeof_program.clauses[0]
    nc = normalize_clause(app_clause)
    assert normalize_clause(renest_clause(nc)).antecedents == nc.antecedents


def test_head_pred_stable_under_normalization(typeof_program, branching_program):
    for prog in (typeof_program, branching_program):
        for c in prog.clauses:
            assert normalize_clause(c).head_pred == head_pred(c)


def test_not_a_clause():
    with pytest.raises(NotAClause):
        normalize_clause(TOP)
    with pytest.raises((NotAClause, NoHead)):
        normalize_clause(conj(S, R))


# -- grammar checks ----------------------------------------------------------------

def test_goal_grammar_accepts_all_forms(typeof_program):
    check_goal(TOP)
    check_goal(conj(S, R))
    check_goal(imp(imp(S, R), P))
    check_goal(parse_goal("pi x : tm \\ typeof x T => typeof x T", typeof_program))


def test_clause_grammar_rejects_top_head():
    with pytest.raises(NotAClause):
        check_clause(imp(S, TOP))


# -- formula sets -------------------------------------------------------------------

def test_formula_set_identifies_alpha_variants(typeof_program):
    clause = typeof_program.clauses[1]
    nc = normalize_clause(clause)
    f1 = body(nc.antecedents[0])[0]        # typeof x T1
    prog2 = parse_program(
        (("kind ty type.\nkind tm type.\ntype b ty.\n"
          "type arr ty -> ty -> ty.\ntype app tm -> tm -> tm.\n"
          "type abs ty -> (tm -> tm) -> tm.\ntype typeof tm -> ty -> o.\n"
          "(pi y \\ typeof y U1 => typeof (N y) U2) => typeof (abs U1 N) (arr U1 U2).")))
    f2 = body(normalize_clause(prog2.clauses[0]).antecedents[0])[0]  # typeof y U1
    fs = FormulaSet([f1])
    assert f2 in fs
    assert not fs.add(f2)
    assert len(fs) == 1


def test_formula_set_orders_by_insertion():
    fs = FormulaSet([imp(S, R), imp(R, P)])
    assert [pp_formula(t) for t in fs] == ["s => r", "r => p"]
