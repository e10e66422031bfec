import random
import re
import sys
from collections import Counter

import pytest

from harrop import formulas, terms
from harrop.errors import NoHead, NonRigidAtomError, NotAClause
from harrop.formulas import (
    TOP, body, canonical_key, check_clause, check_goal, conj,
    formula_view, GAnd, GAtom, GImp, GPi, GTop, NormalClause, head_atom,
    head_pred, imp, normalize_clause, pi, pp_formula, printer, reduce_spine,
)
from harrop.parser import parse_clause, parse_goal, parse_program
from harrop.terms import (
    AND_NAME, IMP_NAME, PI_NAME, O, Abs, App, Bound, Const, Meta, TyArr, TyCon,
    Var, app_spine, arrow, free_vars, fresh_name, instantiate, map_leaves, spine,
    ty_flatten,
)

from conftest import CORPUS
from genutil import FormulaSet, random_clause, random_goal
from roundtrip import renest_clause


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


def test_partially_applied_connective_rejected():
    with pytest.raises(NonRigidAtomError, match="^partially applied logical constant &$"):
        formula_view(Const(AND_NAME, O))


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


# -- goal reduction against the former recursive walkers -------------------------------
#
# Compact copies of the walkers `reduce_spine` replaced: each opened one `pi`
# binder at a time over the whole remaining body.  The grammar checks named a
# binder against the free variables of the current subterm only; the one
# reduction names it against those of the whole formula plus the names chosen
# before it, so a NonRigidAtomError raised by a check may name its variable
# with a numeric suffix (`pi x : o \ pi x : o \ x.` reports x1, not x).

def _ref_open_pi(v, taken):
    var = Var(fresh_name(v.fn.hint if isinstance(v.fn, Abs) else "x", taken), v.ty)
    return var, instantiate(v.fn.body, (var,)) if isinstance(v.fn, Abs) else App(v.fn, var)


def _ref_check_goal(t):
    v = formula_view(t)
    if isinstance(v, GAnd):
        _ref_check_goal(v.left)
        _ref_check_goal(v.right)
    elif isinstance(v, GImp):
        _ref_check_clause(v.antecedent)
        _ref_check_goal(v.consequent)
    elif isinstance(v, GPi):
        _ref_check_goal(_ref_open_pi(v, free_vars(t))[1])


def _ref_check_clause(t):
    v = formula_view(t)
    if isinstance(v, GImp):
        _ref_check_goal(v.antecedent)
        _ref_check_clause(v.consequent)
    elif isinstance(v, GPi):
        _ref_check_clause(_ref_open_pi(v, free_vars(t))[1])
    elif not isinstance(v, GAtom):
        raise NotAClause(f"not a program clause: head position holds {type(v).__name__}")


def _ref_head_atom(t, taken=None):
    taken = set(taken) if taken is not None else free_vars(t)
    v = formula_view(t)
    if isinstance(v, GAtom):
        return v.term
    if isinstance(v, GImp):
        return _ref_head_atom(v.consequent, taken)
    if isinstance(v, GPi):
        var, opened = _ref_open_pi(v, taken)
        return _ref_head_atom(opened, taken | {var.name})
    raise NoHead("true has no rigid head" if isinstance(v, GTop)
                 else "conjunction has no single head")


def _ref_head_pred(t):
    return spine(_ref_head_atom(t))[0].name


def _ref_body(g):
    out, taken = [], free_vars(g)

    def go(t):
        v = formula_view(t)
        if isinstance(v, GImp):
            if v.antecedent not in out:
                out.append(v.antecedent)
            go(v.consequent)
        elif isinstance(v, GPi):
            var, opened = _ref_open_pi(v, taken)
            taken.add(var.name)
            go(opened)

    go(g)
    return out


def _ref_flatten_and(g):
    v = formula_view(g)
    return (_ref_flatten_and(v.left) + _ref_flatten_and(v.right)
            if isinstance(v, GAnd) else [g])


def _ref_antecedent_head(g):
    try:
        return _ref_head_pred(g)
    except NoHead:
        return None


def _ref_normalize_clause(t):
    taken, binders, antecedents = free_vars(t), [], []
    while True:
        v = formula_view(t)
        if isinstance(v, GPi):
            var, t = _ref_open_pi(v, taken)
            taken.add(var.name)
            binders.append((var.name, var.ty))
        elif isinstance(v, GImp):
            antecedents.extend(_ref_flatten_and(v.antecedent))
            t = v.consequent
        elif isinstance(v, GAtom):
            heads = tuple(map(_ref_antecedent_head, antecedents))
            bodies = tuple(tuple(_ref_body(g)) for g in antecedents)
            return NormalClause(tuple(binders), tuple(antecedents), t, v.pred, heads, bodies)
        else:
            raise NotAClause("clause head position is not an atom")


def _facts(normal):
    """A normalizer whose repr also shows the facts `NormalClause` leaves out of its own."""
    def normal_facts(t):
        nc = normal(t)
        return nc, nc.head_pred, nc.antecedent_heads, nc.antecedent_bodies
    normal_facts.__name__ = normal.__name__
    return normal_facts


_WALKERS = [(head_atom, _ref_head_atom), (head_pred, _ref_head_pred),
            (body, _ref_body), (_facts(normalize_clause), _facts(_ref_normalize_clause)),
            (check_goal, _ref_check_goal), (check_clause, _ref_check_clause)]
_CHECKS = (check_goal, check_clause)


def _outcome(fn, t):
    """repr keeps names and binder hints, so equal results print identically."""
    try:
        return "ok", repr(fn(t))
    except Exception as e:  # the class is compared too
        return type(e).__name__, str(e)


def _unsuffixed(message):
    return re.sub(r"\b([a-z]+)\d+$", r"\1", message)


I = TyCon("i")
_PREDS = [Const("p", O), Const("q", arrow(I, O)), Const("r", arrow(I, I, O))]
_BIN = arrow(O, O, O)


def _pi_const(ty):
    return Const(PI_NAME, TyArr(TyArr(ty, O), O))


class _Formulas:
    """Random formulas of either grammar and some of neither: `true`/`&` in
    head positions, non-rigid atoms under `o`-typed binders, binder names
    drawn from two letters (so binders shadow, go unused and clash with free
    variables of the same name), `pi` over non-abstractions and loose indices,
    which opening a binder must lower."""

    def __init__(self, rng):
        self.rng = rng

    def var(self, env, ty):
        """A variable of type ty: bound, or free when its name is unbound."""
        scope = {n: t for n, t in reversed(env)}  # the innermost binding wins
        names = [n for n in "xy" if scope.get(n, ty) == ty]
        return Var(self.rng.choice(names), ty) if names else None

    def arg(self, env):
        """A term of type i; now and then a loose index, beyond every binder."""
        x = self.var(env, I)
        loose = [Bound(20 + self.rng.randrange(2), I)] * (self.rng.random() < 0.1)
        return self.rng.choice([Const("c", I), Meta("M", I, 1)] + [x] * 2 * (x is not None)
                               + loose)

    def atom(self, env):
        rng = self.rng
        if rng.random() < 0.1:  # non-rigid: a variable or metavariable head
            f = self.var(env, arrow(I, O))
            cands = [Meta("X", O, 2)] + [u for u in (self.var(env, O),) if u]
            cands += [App(f, self.arg(env))] if f else []
            return rng.choice(cands)
        p = rng.choice(_PREDS)
        return p if p.ty == O else app_spine(p, [self.arg(env) for _ in ty_flatten(p.ty)[0]])

    def binder(self, size, env, sub):
        name, ty = self.rng.choice("xy"), self.rng.choice([I, I, O, arrow(I, O)])
        return pi(name, ty, sub(size - 1, ((name, ty),) + env))

    def non_abs_pi(self, size, env):
        """pi applied to something other than an abstraction."""
        rng = self.rng
        k = rng.randrange(5)
        if k == 0:
            fn = rng.choice([_PREDS[1], App(_PREDS[2], self.arg(env))])
            return App(_pi_const(I), fn)
        if k in (1, 2):  # `pi (D =>)` reduces to D => v, `pi (G &)` to G & v
            left = self.clause(size // 2, env) if k == 1 else self.goal(size // 2, env)
            return App(_pi_const(O), App(Const(IMP_NAME if k == 1 else AND_NAME, _BIN), left))
        if k == 3:  # pi pi: the second pi ranges over the first's variable
            return App(_pi_const(arrow(I, O)), _pi_const(I))
        return App(_pi_const(I), self.var(env, arrow(I, O)) or _PREDS[1])

    def goal(self, size, env):
        rng = self.rng
        if size <= 1:
            return TOP if rng.random() < 0.15 else self.atom(env)
        k = rng.choice(["and", "imp", "imp", "pi", "pi", "npi", "atom"])
        if k == "and":
            return conj(self.goal(size // 2, env), self.goal(size // 2, env))
        if k == "imp":
            return imp(self.clause(size // 2, env), self.goal(size - 1, env))
        if k == "pi":
            return self.binder(size, env, self.goal)
        if k == "npi":
            return self.non_abs_pi(size, env)
        return self.atom(env)

    def clause(self, size, env):
        rng = self.rng
        if size <= 1 or rng.random() < 0.1:
            r = rng.random()
            if r < 0.05:
                return TOP
            return conj(self.atom(env), self.atom(env)) if r < 0.1 else self.atom(env)
        k = rng.choice(["imp", "imp", "pi", "pi", "npi"])
        if k == "imp":
            return imp(self.goal(size // 2, env), self.clause(size - 1, env))
        if k == "pi":
            return self.binder(size, env, self.clause)
        return self.non_abs_pi(size, env)


def _corpus_formulas():
    for path in sorted(CORPUS.glob("*.hh")):
        for c in parse_program(path.read_text(encoding="utf-8")).clauses:
            yield c
            for a in normalize_clause(c).antecedents:
                yield a
                yield from body(a)


def test_goal_reduction_matches_former_walkers():
    rng = random.Random(7)
    gen = _Formulas(rng)
    formulas = [(gen.goal if rng.random() < 0.5 else gen.clause)(rng.randrange(1, 14), ())
                for _ in range(2500)]
    corpus = list(_corpus_formulas())
    outcomes = Counter()
    suffixed = 0
    for t in formulas + corpus:
        for new, ref in _WALKERS:
            got, want = _outcome(new, t), _outcome(ref, t)
            outcomes[new.__name__, got[0]] += 1
            if new in _CHECKS and got != want:
                assert got[0] == want[0] == "NonRigidAtomError"
                assert _unsuffixed(got[1]) == _unsuffixed(want[1]), (got, want)
                suffixed += 1
            else:
                assert got == want, (new.__name__, pp_formula(t))
    assert len(corpus) > 30
    # every walker both answers and raises on the generated formulas
    for fn, _ in _WALKERS:
        assert outcomes[fn.__name__, "ok"] > 300
        assert sum(n for (name, kind), n in outcomes.items()
                   if name == fn.__name__ and kind != "ok") > 300
    assert outcomes["head_pred", "NoHead"] > 50 and outcomes["check_goal", "NotAClause"] > 50
    assert suffixed > 0  # the documented naming change does occur


# The grammar checks and the conjunction flattening as they were before they
# ran on one explicit stack: recursive, over the same goal reduction.

def _rec_check_goal(t):
    _, antecedents, rest = reduce_spine(t)
    for a in antecedents:
        _rec_check_clause(a)
    v = formula_view(rest)
    if isinstance(v, GAnd):
        _rec_check_goal(v.left)
        _rec_check_goal(v.right)


def _rec_check_clause(t):
    _, antecedents, rest = reduce_spine(t)
    for a in antecedents:
        _rec_check_goal(a)
    v = formula_view(rest)
    if not isinstance(v, GAtom):
        raise NotAClause(f"not a program clause: head position holds {type(v).__name__}")


def test_grammar_checks_match_the_recursive_checks():
    rng = random.Random(1705)
    gen = _Formulas(rng)
    n = 6
    cases = [(gen.goal if rng.random() < 0.5 else gen.clause)(rng.randrange(1, 14), ())
                for _ in range(1500)]
    cases += [random_goal(rng, n, rng.randrange(1, 5)) for _ in range(300)]
    cases += [random_clause(rng, n, rng.randrange(1, 5)) for _ in range(300)]
    cases += [conj(a, b) for a, b in zip(cases[-600::2], cases[-599::2])]
    outcomes = Counter()
    for t in cases + list(_corpus_formulas()):
        for new, ref in ((check_goal, _rec_check_goal), (check_clause, _rec_check_clause),
                         (formulas._flatten_and, _ref_flatten_and)):
            got = _outcome(new, t)
            assert got == _outcome(ref, t), (new.__name__, pp_formula(t))
            outcomes[new.__name__, got[0]] += 1
    for name in ("check_goal", "check_clause", "_flatten_and"):
        assert outcomes[name, "ok"] > 300, outcomes
    for kind in ("NonRigidAtomError", "NotAClause"):
        assert outcomes["check_goal", kind] > 50 and outcomes["check_clause", kind] > 50
    assert outcomes["_flatten_and", "NonRigidAtomError"] > 20


def test_grammar_checks_and_flattening_on_deep_formulas():
    # 3,000 levels of `&` and of left-nested `=>`, at a limit of 1000
    n = 3_000
    right_and, left_and, left_imp = P, P, P
    for _ in range(n):
        right_and, left_and, left_imp = conj(P, right_and), conj(left_and, P), imp(left_imp, P)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for t in (right_and, left_and, left_imp):
            check_goal(t)
        check_clause(left_imp)
        with pytest.raises(NotAClause):
            check_clause(left_and)
        nc = normalize_clause(imp(left_and, Q))
    finally:
        sys.setrecursionlimit(limit)
    assert nc.antecedents == (P,) * (n + 1) and nc.head == Q


def test_suffixed_name_under_vacuous_binder():
    t = pi("x", O, pi("x", O, Var("x", O)))  # the outer binder is vacuous
    for fn in (head_atom, check_clause, check_goal):
        with pytest.raises(NonRigidAtomError, match=": x1$"):
            fn(t)
    with pytest.raises(NonRigidAtomError, match=": x1$"):
        parse_clause("pi x : o \\ pi x : o \\ x", parse_program("type p o."))


def _long_clause(n_pi, n_imp):
    """pi v0 .. : i \\ q v0 => q v1 => ... => r v(n-1) v0, with n_pi binders
    and n_imp implications, built from indices: `pi` would recurse per binder."""
    def var(k):  # the k-th binder from the outside, under all of them
        return Bound(n_pi - 1 - k, I)

    t = app_spine(_PREDS[2], [var(n_pi - 1), var(0)])
    for k in reversed(range(n_imp)):
        t = imp(App(_PREDS[1], var(k % n_pi)), t)
    for k in reversed(range(n_pi)):
        t = App(_pi_const(I), Abs(I, t, "v"))
    return t


@pytest.mark.parametrize("n_pi, n_imp", [(3000, 2), (2, 3000)])
def test_long_spines_answer(n_pi, n_imp):
    t = _long_clause(n_pi, n_imp)
    check_clause(t)
    assert head_pred(t) == "r"
    assert len(body(t)) == min(n_pi, n_imp)
    nc = normalize_clause(t)
    assert len(nc.binders) == n_pi and len(nc.antecedents) == n_imp
    assert nc.binders[-1][0] == f"v{n_pi - 1}"
    assert pp_formula(nc.antecedents[-1]) == f"q v{(n_imp - 1) % n_pi}"


def test_normalize_clause_opens_binders_once(monkeypatch):
    t = _long_clause(8, 2)
    rebuilt = []

    def counting(u, f, **modes):
        rebuilt.append(u)
        return map_leaves(u, f, **modes)

    monkeypatch.setattr(terms, "map_leaves", counting)
    monkeypatch.setattr(formulas, "map_leaves", counting)
    nc = normalize_clause(t)
    assert len(nc.binders) == 8 and len(nc.antecedents) == 2
    assert len(rebuilt) <= 3  # each antecedent and the head, once


# -- the memoized printer against the former recursive printer --------------------------
#
# A compact copy of `pp_formula` before `printer()`: one recursive walk per
# formula, binder names avoiding the free variables and constants of the
# whole formula and the binders above.

def _ref_pp(t):
    avoid = None

    def name_binder(hint, env):
        nonlocal avoid
        if avoid is None:
            avoid = {u.name for u, _ in terms.leaves(t) if isinstance(u, (Const, Var))}
        return fresh_name(hint, avoid | set(env))

    def go(u, env, level):
        if isinstance(u, (Const, Var)):
            return u.name
        if isinstance(u, Meta):
            return f"?{u.name}"
        if isinstance(u, Bound):
            return env[u.idx] if u.idx < len(env) else f"#{u.idx}"
        if isinstance(u, Abs):
            name = name_binder(u.hint, env)
            s = f"{name}\\ {go(u.body, [name] + env, 0)}"
            return f"({s})" if level >= 1 else s
        head, args = spine(u)
        if isinstance(head, Const) and head.name == IMP_NAME and len(args) == 2:
            s = f"{go(args[0], env, 1)} => {go(args[1], env, 0)}"
            return f"({s})" if level >= 1 else s
        if isinstance(head, Const) and head.name == AND_NAME and len(args) == 2:
            s = f"{go(args[0], env, 2)} & {go(args[1], env, 1)}"
            return f"({s})" if level >= 2 else s
        if isinstance(head, Const) and head.name == PI_NAME and len(args) == 1 \
                and isinstance(args[0], Abs):
            fn = args[0]
            name = name_binder(fn.hint, env)
            s = f"pi {name} : {fn.arg_ty!r} \\ {go(fn.body, [name] + env, 0)}"
            return f"({s})" if level >= 1 else s
        s = " ".join([go(head, env, 3)] + [go(a, env, 3) for a in args])
        return f"({s})" if level >= 3 else s

    return go(t, [], 0)


_NAMES = ["x", "y", "x1", "q"]  # binder hints, free variables and constants alike
_OO = arrow(O, O, O)


class _Printable:
    """Random well-typed terms over o and i, not only formulas: binder hints
    drawn from the names of free variables and constants, shadowing binders,
    indices in scope or dangling, metavariables, `=>`/`&`/`pi` under every
    connective and as arguments, beta-redexes, and partial connectives.  A
    quarter of the subterms asked for are an earlier subterm of the same type,
    reused as the same object wherever it lands, under other binders or at
    the top of another formula."""

    def __init__(self, rng, hints=_NAMES):
        self.rng, self.hints = rng, hints
        self.pool = {O: [], I: [], arrow(I, O): []}

    def leaf(self, ty, depth):
        rng, name = self.rng, self.rng.choice(_NAMES)
        k = rng.randrange(5)
        if k == 0:
            return Const(name, ty)
        if k == 1:
            return Var(name, ty)
        if k == 2:
            return Meta(name.upper(), ty, rng.randrange(3))
        if k == 3 or ty == I:
            return Bound(rng.randrange(depth + 2), ty)  # in scope or dangling
        return TOP if ty == O else Const("q", ty)

    def abs(self, ty, size, depth):
        return Abs(ty, self.term(O, size - 1, depth + 1), self.rng.choice(self.hints))

    def term(self, ty, size, depth):
        rng = self.rng
        if self.pool[ty] and rng.random() < 0.25:
            return rng.choice(self.pool[ty])
        if size <= 1:
            return self.leaf(ty, depth)
        half = max(1, size // 2)
        k = rng.randrange(8)
        if ty == I:
            t = App(Const(rng.choice(["s", "x"]), arrow(I, I)), self.term(I, size - 1, depth)) \
                if k < 5 else app_spine(Var("g", arrow(I, I, I)), [self.term(I, half, depth),
                                                                    self.term(I, half, depth)])
        elif ty == arrow(I, O):  # an abstraction, or a partial application
            t = self.abs(I, size, depth) if k < 6 else \
                App(Const(rng.choice(_NAMES), arrow(I, I, O)), self.term(I, size - 1, depth))
        elif k == 0:
            t = imp(self.term(O, half, depth), self.term(O, half, depth))
        elif k == 1:
            t = conj(self.term(O, half, depth), self.term(O, half, depth))
        elif k == 2:
            ty_b = rng.choice([I, O])
            t = App(_pi_const(ty_b), self.abs(ty_b, size, depth))
        elif k == 3:  # a predicate over formulas: connectives at the atomic level
            t = app_spine(Const(rng.choice(_NAMES), arrow(O, arrow(I, O), O)),
                          [self.term(O, half, depth), self.term(arrow(I, O), half, depth)])
        elif k == 4:  # a beta-redex, pi over a non-abstraction, a partial `&`
            t = rng.choice([
                lambda: App(self.abs(I, half, depth), self.term(I, half, depth)),
                lambda: App(_pi_const(I), self.term(arrow(I, O), half, depth)),
                lambda: App(Const("h", arrow(arrow(O, O), O)),
                            App(Const(AND_NAME, _OO), self.term(O, half, depth))),
            ])()
        else:
            t = app_spine(Const(rng.choice(_NAMES), arrow(I, I, O)),
                          [self.term(I, half, depth), self.term(I, half, depth)])
        self.pool[ty].append(t)
        return t


def test_printer_matches_former_recursive_printer():
    rng = random.Random(5)
    gen = _Printable(rng)
    printed = [gen.term(O, rng.randrange(1, 16), 0) for _ in range(500)]
    want = [_ref_pp(t) for t in printed]
    assert [pp_formula(t) for t in printed] == want
    show = printer()  # one printer for all of them, each formula asked for twice
    assert [show(t) for t in printed + printed[::-1]] == want + want[::-1]
    text = "\n".join(want)
    for piece in ("#", "?", "x1\\", "x2", "pi x", "(x\\", "(pi ", "=> (", "& (", "(q "):
        assert piece in text, piece


def test_one_printer_over_formulas_sharing_subterms():
    q, r = Const("q", arrow(I, O)), Const("r", arrow(I, I, O))
    x, c = Var("x", I), Const("c", I)
    under = App(q, Bound(0, I))          # means a different binder in every formula
    closed = app_spine(r, [c, c])        # printed alike everywhere
    inner = App(_pi_const(I), Abs(I, App(q, Bound(0, I)), "x"))  # names its binder

    def forall(body, hint="x"):
        return App(_pi_const(I), Abs(I, body, hint))

    batch = [
        closed, inner, forall(under),
        imp(app_spine(r, [x, c]), forall(under)),      # a free x renames the binder
        conj(inner, App(q, x)),                        # ... and the one in `inner`
        forall(forall(imp(under, closed)), "y"),
        forall(conj(under, inner)),
        imp(closed, under),                            # a dangling index
        under, inner, closed,
    ]
    show = printer()
    got = [show(t) for t in batch]
    assert got == [_ref_pp(t) for t in batch]
    assert got[2:5] == ["pi x : i \\ q x", "r x c => pi x1 : i \\ q x1",
                        "(pi x1 : i \\ q x1) & q x"]
    assert got[7:] == ["r c c => q #0", "q #0", "pi x : i \\ q x", "r c c"]


def test_a_printer_keeps_what_it_printed():
    """A printer's memos are keyed by `id`, so it keeps every term it was
    asked to print: a term built after an earlier one died, perhaps at the
    same address, is printed as itself."""
    show = printer()
    for k in range(50):
        t = app_spine(Const(f"p{k}", arrow(I, I, O)), [Const(f"a{k}", I), Const(f"b{k}", I)])
        assert show(t) == printer()(t) == f"p{k} a{k} b{k}"
        del t


def test_nested_binders_are_named_in_linear_probes(monkeypatch):
    """The k-th of n nested binders with one hint is named without
    rescanning the k - 1 names above it: the membership tests `fresh_name`
    makes grow linearly from 500 to 1,000 nested `x\\`, and the names are
    x, x1, x2, ... as before."""
    probes = 0
    fresh = formulas.fresh_name

    class Counting:
        def __init__(self, names):
            self.names = names

        def __contains__(self, name):
            nonlocal probes
            probes += 1
            return name in self.names

    def counting(base, taken, next_suffix=None):
        return fresh(base, Counting(taken), next_suffix)

    monkeypatch.setattr(formulas, "fresh_name", counting)
    per_binder = {}
    for n in (500, 1000):
        t, ty = TOP, O
        for _ in range(n):
            t, ty = Abs(O, t, "x"), TyArr(O, ty)
        probes = 0
        text = printer()(App(Const("deep", TyArr(ty, O)), t))
        assert text == "deep (" + "x\\ " + "".join(f"x{i}\\ " for i in range(1, n)) + "true)"
        per_binder[n] = probes / n
    assert per_binder[1000] <= 1.1 * per_binder[500], per_binder
