import random
import sys

import pytest

import harrop
import harrop.formulas
from harrop.abella import (
    ABELLA, AbellaArtifact, Define, Split, SpecRef, StrengtheningPlan, Theorem,
    build_development, ctx_name, echo_mod, echo_sig, gen_ctx_definition,
    gen_ctx_member_lemma, gen_stren_proof, gen_subctx_lemma, gen_user_theorem,
    gen_user_theorem_proof, make_plan, render, render_ctx_formula, stren_theorem_name,
    subctx_name,
)
from harrop.analysis import ClauseTable, Validated, check_strengthenable
from harrop.errors import NotASubcontext, PlanMismatch, UnorderedArtifact
from harrop.formulas import body, imp, normalize_clause, pp_formula, printer
from harrop.parser import (
    parse_clause, parse_goal, parse_program, parse_source,
    split_directive_context, split_directive_strengthen,
)
from harrop.terms import (
    AND_NAME, IMP_NAME, PI_NAME, O, Abs, Bound, Const, Meta, Var, fresh_name, leaves, spine,
)

from conftest import CORPUS, GOLDEN, corpus_text
from genutil import FormulaSet
from roundtrip import parse_thm
from test_formulas import _Printable


def _prop(name):
    return Const(name, O)


S, R, P = _prop("s"), _prop("r"), _prop("p")
SR, RP = imp(S, R), imp(R, P)


def _plan_for(src_name, f_text, g_text, user_name="uctx", user=()):
    prog = parse_program(corpus_text(src_name))
    f = parse_clause(f_text, prog)
    g = parse_goal(g_text, prog)
    v = check_strengthenable(prog, f, g, tuple(user))
    assert isinstance(v, Validated)
    return prog, make_plan(v, f, g, user_name, tuple(user))


def _texts(*formulas):
    return tuple(map(render_ctx_formula, formulas))


def _stren_theorem(prog, plan):
    name = stren_theorem_name(plan)
    return next(item for item in build_development(prog, plan, "spec").items
                if isinstance(item, Theorem) and item.name == name)


# -- context definitions -----------------------------------------------------------

def test_ctx_definition_two_formulas():
    d = gen_ctx_definition("ctx_p", _texts(SR, RP))
    assert d.name == "ctx_p"
    assert d.ty == "olist -> prop"
    assert len(d.clauses) == 3
    assert d.clauses[0] == ("ctx_p nil", None)
    assert d.clauses[1] == ("ctx_p ((s => r) :: L)", "ctx_p L")
    assert d.clauses[2] == ("ctx_p ((r => p) :: L)", "ctx_p L")


def test_ctx_definition_empty():
    d = gen_ctx_definition("ctx_append", ())
    assert d.clauses == (("ctx_append nil", None),)


def test_ctx_definition_closes_over_variables(typeof_program):
    nc = normalize_clause(typeof_program.clauses[1])
    (formula,) = body(nc.antecedents[0])  # typeof x T1, frees x and T1
    d = gen_ctx_definition("ctx_typeof", _texts(formula))
    assert len(d.clauses) == 2
    head, bdy = d.clauses[1]
    assert head == "ctx_typeof (typeof X T1 :: L)"
    assert bdy == "ctx_typeof L"


def test_ctx_definition_parenthesizes_a_clause_with_a_grouped_antecedent():
    pq = parse_program("kind i type. type a i. type s i -> i. "
                       "type p i -> o. type q i -> o. type r i -> o.")
    clause = parse_clause("(p a & q a) => r (s a)", pq)
    d = gen_ctx_definition("ctx_r", _texts(clause))
    assert d.clauses[1] == ("ctx_r (((p a , q a) => r (s a)) :: L)", "ctx_r L")


# -- membership lemmas --------------------------------------------------------------

def test_member_lemma_two_formulas():
    t = gen_ctx_member_lemma("p", _texts(SR, RP))
    assert t.name == "ctx_member_p"
    assert "E = (s => r) \\/ E = (r => p)" in t.formula
    # 4 + 4n tactic invocations (figure preamble plus two per-formula blocks)
    assert len(t.proof) == 4 + 4 * 2
    assert t.proof[:4] == ("induction on 1", "intros", "case H1", "case H2")
    assert t.proof[4:8] == ("case H2", "search", "apply IH to H3 H4", "search")


def test_member_lemma_empty_concludes_false():
    t = gen_ctx_member_lemma("append", ())
    assert t.formula.endswith("-> false")
    assert t.proof == ("induction on 1", "intros", "case H1", "case H2")


def test_member_lemma_single_atom_no_exists():
    t = gen_ctx_member_lemma("q", _texts(Const("a", O)))
    assert t.formula.endswith("-> E = a")
    assert "exists" not in t.formula


def test_member_lemma_quantifies_formula_variables(typeof_program):
    nc = normalize_clause(typeof_program.clauses[1])
    (formula,) = body(nc.antecedents[0])
    t = gen_ctx_member_lemma("typeof", _texts(formula))
    assert "(exists X T1, E = typeof X T1)" in t.formula


# -- subcontext lemmas ----------------------------------------------------------------

def _subctx(a, b, ctx):
    """The lemma ctx_a L -> ctx_b L, as the development writes it."""
    return gen_subctx_lemma(a, b, ctx, subctx_name(a, b), ctx_name(a), ctx[a].entries)


def _user_subctx(u, b, ctx, formulas):
    """The lemma u L -> ctx_b L for the user context `formulas`, keyed
    through a clause table as `build_development` keys them."""
    table = ClauseTable()
    return gen_subctx_lemma(u, b, ctx, f"{u}_subctx_{ctx_name(b)}", u,
                            [(table.get(f)[0], f) for f in formulas])


def test_subctx_empty_context():
    ctx = {"a": FormulaSet(), "b": FormulaSet()}
    t = _subctx("a", "b", ctx)
    assert t.formula == "forall L, ctx_a L -> ctx_b L"
    assert t.proof == ("induction on 1", "intros", "case H1", "search")


def test_subctx_reflexive_two_formulas():
    ctx = {"p": FormulaSet([SR, RP])}
    t = _subctx("p", "p", ctx)
    # 4 + 2n tactic invocations
    assert len(t.proof) == 4 + 2 * 2
    assert t.proof[4:] == ("apply IH to H2", "search", "apply IH to H2", "search")


def test_emitter_keys_no_formula(monkeypatch):
    # the plan carries the analysis' keyed cells and clause table, which met
    # every user-context formula as a seed; with an empty or a two-formula
    # user context, building the development and the .mod file computes no
    # canonical key and no normal form at all
    prog = parse_program(corpus_text("guarded.hh"))
    for user in ((), (parse_clause("a", prog), parse_clause("b", prog))):
        prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx", user=user)
        calls = []
        key = harrop.formulas.canonical_key
        normal_clause = harrop.formulas.NormalClause
        with monkeypatch.context() as m:
            for mod in (harrop.formulas, harrop.analysis):
                m.setattr(mod, "canonical_key", lambda t: calls.append(t) or key(t))
            m.setattr(harrop.formulas, "NormalClause",
                      lambda *a: calls.append(a) or normal_clause(*a))
            artifact = build_development(prog, plan, "guarded")
            echo_mod(prog, "guarded", plan.clauses)
        assert calls == [], user
        user_sub = artifact.items[-2]
        assert user_sub.name == "gctx_subctx_ctx_g"
        assert len(user_sub.proof) == 4 + 2 * len(user)


def test_no_formula_normalized_twice_per_request(monkeypatch):
    # for every corpus %strengthen request, the verdict, the development and
    # the .mod file normalize each formula object at most once
    seen: dict[int, list] = {}
    normalize = harrop.formulas.normalize_clause

    def counted(d):
        seen.setdefault(id(d), []).append(d)  # keeps d alive: ids stay unique
        return normalize(d)

    for mod_name, mod in list(sys.modules.items()):  # every loaded harrop module
        if mod_name.split(".")[0] == "harrop":
            monkeypatch.setattr(mod, "normalize_clause", counted, raising=False)
    emitted = 0
    for path in sorted(CORPUS.glob("*.hh")):
        parsed = parse_source(path.read_text(encoding="utf-8"))
        prog = parsed.program
        user: dict[str, list] = {}
        for d in parsed.directives:
            if d.kind == "context":
                name, clause = split_directive_context(d, prog)
                user.setdefault(name, []).append(clause)
        for d in parsed.directives:
            if d.kind != "strengthen":
                continue
            name, f, g = split_directive_strengthen(d, prog)
            seen.clear()
            ctx = tuple(user.get(name, ()))
            v = check_strengthenable(prog, f, g, ctx)
            if isinstance(v, Validated):
                plan = make_plan(v, f, g, name, ctx)
                build_development(prog, plan, path.stem)
                echo_mod(prog, path.stem, plan.clauses)
                emitted += 1
            twice = [pp_formula(ds[0]) for ds in seen.values() if len(ds) > 1]
            assert not twice, (path.name, twice)
    assert emitted >= 3


def test_subctx_precondition_violated():
    ctx = {"a": FormulaSet([SR]), "b": FormulaSet([RP])}
    with pytest.raises(NotASubcontext, match="s => r"):
        _subctx("a", "b", ctx)
    # a given user context is keyed through the clause table; the first
    # formula whose key is missing is named
    with pytest.raises(NotASubcontext, match="s => r"):
        _user_subctx("u", "b", ctx, (RP, SR, RP))
    t = _user_subctx("u", "b", ctx, (RP, RP))
    assert len(t.proof) == 4 + 2 * 2  # a step per formula given, duplicates too


# -- the strengthening conjunction ------------------------------------------------------

def test_single_predicate_plan_has_no_split():
    prog, plan = _plan_for("list_minus.hh", "append nil L L", "list_minus X L1 L2")
    t = _stren_theorem(prog, plan)
    assert "/\\" not in t.formula
    assert "split" not in t.proof
    assert t.proof[0] == "induction on 2"


def test_two_predicate_plan_conjunction():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    assert plan.deps == ("g", "a")
    t = _stren_theorem(prog, plan)
    assert t.formula.count("forall") == 2
    assert t.formula.count("/\\") == 1
    script, _ = gen_stren_proof(plan, prog)
    assert script[0] == "induction on 2 2"
    assert script[1] == "split"


def test_conjunct_quantifies_goal_arguments():
    prog, plan = _plan_for("list_minus.hh", "append nil L L", "list_minus X L1 L2")
    t = _stren_theorem(prog, plan)
    # context list plus the three argument variables of list_minus
    assert t.formula.startswith("forall L X1 X2 X3,")
    assert "{L, (pi l\\ append nil l l) |- list_minus X1 X2 X3}" in t.formula


def test_stren_proof_static_loop_counts():
    prog, plan = _plan_for("list_minus.hh", "append nil L L", "list_minus X L1 L2")
    script, pairs = gen_stren_proof(plan, prog)
    # two list_minus clauses: the fact contributes only a search, the
    # recursive clause two applies and a search
    applies = [s for s in script if s.startswith("apply subctx")
               or s.startswith("apply IH")]
    assert len(applies) == 2
    assert script.count("search") == 2
    assert pairs == [("list_minus", "list_minus")]


def test_stren_proof_dynamic_head_mismatch_only_cases():
    # in the guarded program, C(a) = {b} and b's head differs from a:
    # that branch contributes a single `case H3` and no applies
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    script, _ = gen_stren_proof(plan, prog)
    a_block = script[script.index("split") + 1:]
    assert "apply ctx_member_a to H1 H5" in a_block
    tail = a_block[a_block.index("apply ctx_member_a to H1 H5") + 1:]
    assert tail == ("case H3",)  # p == 1, head mismatch: no case H6, no applies


def test_stren_proof_missing_cell_is_plan_mismatch():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    broken = StrengtheningPlan(plan.goal, plan.strengthen_from, ("g",),
                               {"g": plan.contexts["g"]}, "gctx", (), plan.clauses)
    with pytest.raises(PlanMismatch):
        gen_stren_proof(broken, prog)


def test_plan_and_theorem_guards_raise_plan_mismatch():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    for deps, contexts, msg in (((), plan.contexts, "a plan needs at least one predicate"),
                                (("g",), {}, "no context cell for predicate g")):
        with pytest.raises(PlanMismatch, match=f"^{msg}$"):
            StrengtheningPlan(plan.goal, plan.strengthen_from, deps, contexts, "gctx", (),
                              plan.clauses)
    with pytest.raises(PlanMismatch, match="^theorem t has an empty proof script$"):
        Theorem("t", "true", ())


def test_a_true_antecedent_takes_no_strengthening_step():
    prog = parse_program("type p o. type q o. true => q.")
    f, g = parse_clause("p", prog), parse_goal("q", prog)
    plan = make_plan(check_strengthenable(prog, f, g), f, g, "uctx", ())
    # backchaining on `true => q` closes its subgoal with `search` alone
    assert gen_stren_proof(plan, prog) == (
        ("induction on 2", "intros", "case H2", "search",
         "case H4", "case H3", "apply ctx_member_q to H1 H5"), [])


def test_the_plan_reads_the_discarded_head_once(monkeypatch):
    """make_plan reduces F once for hp(F); naming the lemma, as
    build_development and the two user-theorem generators do, reduces nothing."""
    calls = 0
    reduce_spine = harrop.formulas.reduce_spine

    def counted(t):
        nonlocal calls
        calls += 1
        return reduce_spine(t)

    prog = parse_program(corpus_text("list_minus.hh"))
    f, g = parse_clause("append nil L L", prog), parse_goal("list_minus X L1 L2", prog)
    v = check_strengthenable(prog, f, g)
    monkeypatch.setattr(harrop.formulas, "reduce_spine", counted)
    plan = make_plan(v, f, g, "uctx", ())
    assert calls == 1 and plan.from_pred == "append"
    assert [stren_theorem_name(plan) for _ in range(3)] == ["stren_list_minus_from_append"] * 3
    assert calls == 1


def test_the_plan_prints_the_discarded_formula_once(monkeypatch):
    """F's Abella text is printed once per development: the strengthening
    theorem and the user theorem both read the plan's."""
    prog = parse_program(corpus_text("guarded.hh"))
    f, g = parse_clause("f", prog), parse_goal("g", prog)
    printed = []
    make_printer = harrop.abella.printer

    def counted(*args):
        show = make_printer(*args)

        def shown(t, *level):
            printed.append(t is f)
            return show(t, *level)
        return shown

    monkeypatch.setattr(harrop.abella, "printer", counted)
    plan = make_plan(check_strengthenable(prog, f, g), f, g, "uctx", ())
    text = render(build_development(prog, plan, "guarded"))
    assert printed.count(True) == 1
    assert text.count("{L, f |- g} -> {L |- g}") == 2


def test_a_context_variable_named_e_is_written_e1():
    """A context formula's free variables are capitalized clear of the `E`
    and `L` around it, in its context definition as in its membership lemma."""
    prog = parse_program("kind i type. type p i -> o. type q o. type r o. type t o. "
                         "(pi e : i \\ p e => q) => r.")
    f, g = parse_clause("t", prog), parse_goal("q", prog)
    plan = make_plan(check_strengthenable(prog, f, g), f, g, "uctx", ())
    items = {item.name: item for item in build_development(prog, plan, "e").items
             if isinstance(item, (Define, Theorem))}
    assert items["ctx_q"].clauses[1] == ("ctx_q (p E1 :: L)", "ctx_q L")
    assert items["ctx_member_q"].formula.endswith("-> (exists E1, E = p E1)")


def _strengthen_random_request():
    """The first validated request of the `strengthen-random` workload at seed 1234."""
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import StrengthenRandom

    made = StrengthenRandom(False).generate(random.Random(1234), "w")
    argv = next(c.argv for c in made.commands if c.expect == ("validated",))
    prog = parse_source(made.files[argv[1]]).program
    return (prog, parse_clause(argv[argv.index("--from") + 1], prog),
            parse_goal(argv[argv.index("--goal") + 1], prog))


def test_each_context_formula_is_rendered_once_per_development(monkeypatch):
    """build_development renders each distinct formula object of the user
    context and of the cells once, however many cells hold it, and walks and
    prints nothing else but the goal, for the user theorem."""
    typeof_append = parse_program(corpus_text("typeof_append.hh"))
    requests = [(typeof_append, parse_clause("append nil L L", typeof_append),
                 parse_goal("typeof M T", typeof_append), ()),
                (*_strengthen_random_request(), ())]
    user = (parse_clause("pi x : tm \\ typeof x b", typeof_append),)
    requests.append((*requests[0][:3], user))
    rendered, counts = [], {"free_vars_ordered": 0, "printer": 0}
    render_one = harrop.abella.render_ctx_formula
    monkeypatch.setattr(harrop.abella, "render_ctx_formula",
                        lambda f: rendered.append(f) or render_one(f))
    for name in counts:
        def counted(*args, _fn=getattr(harrop.abella, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(harrop.abella, name, counted)
    shared = 0
    for prog, f, g, user in requests:
        plan = make_plan(check_strengthenable(prog, f, g, user), f, g, "uctx", user)
        rendered.clear()
        counts.update(dict.fromkeys(counts, 0))
        build_development(prog, plan, "spec")
        held = [*user, *(d for a in plan.deps for d in plan.contexts[a])]
        distinct = {id(d) for d in held}
        assert sorted(map(id, rendered)) == sorted(distinct)
        assert counts == dict.fromkeys(counts, len(distinct) + 1)
        shared += len(held) - len(distinct)
    assert shared > 0  # some formula object sits in several cells


def test_user_theorem_proof_shape():
    prog, plan = _plan_for("list_minus.hh", "append nil L L", "list_minus X L1 L2")
    script = gen_user_theorem_proof(plan)
    assert script == (
        "intros",
        "apply uctx_subctx_ctx_list_minus to H1",
        "apply stren_list_minus_from_append to H3 H2",
        "search",
    )


def test_user_theorem_uses_first_split_part_when_mutual():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    script = gen_user_theorem_proof(plan)
    assert script[2] == "apply stren_g_from_f_1 to H3 H2"


# -- rendering ----------------------------------------------------------------------------

def test_render_define_shape():
    art = AbellaArtifact((gen_ctx_definition("ctx_p", _texts(SR)),))
    text = render(art)
    assert text.startswith("Define ctx_p : olist -> prop by")
    assert ";" in text
    assert text.rstrip().endswith(".")


def test_render_empty_artifact():
    assert render(AbellaArtifact(())) == ""


def test_render_checks_ordering():
    thm = Theorem("uses_ctx_p", "forall L, ctx_p L -> ctx_p L", ("search",))
    art = AbellaArtifact((thm, gen_ctx_definition("ctx_p", ())))
    with pytest.raises(UnorderedArtifact):
        render(art)


def test_rendered_developments_reparse():
    for name in ("list_minus.thm", "guarded.thm", "branching_stren.thm",
                 "typeof_append.thm"):
        items = parse_thm((GOLDEN / name).read_text())
        kinds = [i.kind for i in items]
        assert kinds[0] == "specification"
        assert "theorem" in kinds


def test_development_matches_golden_bytes():
    for hh, thm in (("list_minus.hh", "list_minus.thm"),
                    ("guarded.hh", "guarded.thm"),
                    ("branching_stren.hh", "branching_stren.thm"),
                    ("typeof_append.hh", "typeof_append.thm")):
        prog_src = corpus_text(hh)
        from harrop.parser import parse_source, split_directive_strengthen
        parsed = parse_source(prog_src)
        (d,) = [d for d in parsed.directives if d.kind == "strengthen"]
        name, f, g = split_directive_strengthen(d, parsed.program)
        v = check_strengthenable(parsed.program, f, g)
        plan = make_plan(v, f, g, name, ())
        art = build_development(parsed.program, plan, hh.removesuffix(".hh"))
        assert render(art) == (GOLDEN / thm).read_text(), thm


def test_development_is_deterministic():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    a1 = render(build_development(prog, plan, "guarded"))
    a2 = render(build_development(prog, plan, "guarded"))
    assert a1 == a2


def test_no_forward_references_outside_dependency_closure():
    prog, plan = _plan_for("guarded.hh", "f", "g", user_name="gctx")
    art = build_development(prog, plan, "guarded")
    render(art)  # raises UnorderedArtifact on any forward reference
    text = render(art)
    for pred in ("f", "b"):  # predicates outside S(g) get no context definition
        assert f"ctx_{pred} " not in text


# -- companion files -------------------------------------------------------------------------

def test_echo_sig_and_mod(list_minus_program):
    sig_text = echo_sig(list_minus_program, "list_minus")
    assert sig_text.startswith("sig list_minus.")
    assert "type list_minus nat -> list -> list -> o." in sig_text
    mod_text = echo_mod(list_minus_program, "list_minus", ClauseTable())
    assert mod_text.startswith("module list_minus.")
    assert "list_minus X (cons X L) L." in mod_text
    assert "append (cons X L1) L2 (cons X L3) :- append L1 L2 L3." in mod_text


def test_echo_mod_keeps_inner_pi(typeof_program):
    mod_text = echo_mod(typeof_program, "typeof", ClauseTable())
    assert ":- (pi x\\ typeof x T1 => typeof (M x) T2)." in mod_text


def test_alpha_variant_clauses_keep_their_names():
    # two static clauses equal up to their variable names share a canonical
    # key; each still echoes with its own names and gets its own proof case
    prog = parse_program(
        "kind nat type.\nkind list type.\ntype nil list.\n"
        "type cons nat -> list -> list.\ntype append list -> list -> list -> o.\n"
        "type q o.\nappend nil L L.\nappend nil M M.\n"
        "append L1 L2 L3 => append (cons X L1) L2 (cons X L3).\nq.\n")
    f, g = parse_clause("q", prog), parse_goal("append L1 L2 L3", prog)
    v = check_strengthenable(prog, f, g)
    assert isinstance(v, Validated) and v.deps == ("append",)
    plan = make_plan(v, f, g, "uctx", ())
    mod_lines = echo_mod(prog, "alpha", plan.clauses).splitlines()
    assert mod_lines[1:3] == ["append nil L L.", "append nil M M."]
    script = _stren_theorem(prog, plan).proof
    # two facts and the recursive clause each close with one search
    static_blocks = script[script.index("case H2") + 1:script.index("case H4")]
    assert static_blocks == ("search", "search", "apply subctx_append_append to H1",
                             "apply IH to H4 H3", "search")
    render(build_development(prog, plan, "alpha"))


# -- the shared printer in Abella syntax against the former recursive `_obj` ---------------
#
# A compact copy of `abella._obj` before the one printer: binder names are
# lowercased hints (`x` for none), clear of the constants and the renamed
# free variables of the whole formula and of the binders above; `,` is
# always grouped; level 1 parenthesizes `=>`, `pi` and abstractions, level 2
# (the `.hh` printer's 3) applications too.

def _ref_obj(t, rename, level):
    avoid = {rename.get(u.name, u.name) if isinstance(u, Var) else u.name
             for u, _ in leaves(t) if isinstance(u, (Var, Const))}

    def binder(hint, env):
        base = hint or "x"
        return fresh_name(base[0].lower() + base[1:], avoid | set(env))

    def go(u, env, level):
        if isinstance(u, Const):
            return u.name
        if isinstance(u, Var):
            return rename.get(u.name, u.name)
        if isinstance(u, Meta):
            return u.name
        if isinstance(u, Bound):
            return env[u.idx] if u.idx < len(env) else f"#{u.idx}"
        if isinstance(u, Abs):
            name = binder(u.hint, env)
            s = f"{name}\\ {go(u.body, [name] + env, 0)}"
            return f"({s})" if level >= 1 else s
        head, args = spine(u)
        if isinstance(head, Const) and head.name == IMP_NAME and len(args) == 2:
            s = f"{go(args[0], env, 1)} => {go(args[1], env, 0)}"
            return f"({s})" if level >= 1 else s
        if isinstance(head, Const) and head.name == AND_NAME and len(args) == 2:
            return f"({go(args[0], env, 1)} , {go(args[1], env, 1)})"
        if isinstance(head, Const) and head.name == PI_NAME and len(args) == 1 \
                and isinstance(args[0], Abs):
            name = binder(args[0].hint, env)
            s = f"pi {name}\\ {go(args[0].body, [name] + env, 0)}"
            return f"({s})" if level >= 1 else s
        s = " ".join([go(head, env, 2)] + [go(a, env, 2) for a in args])
        return f"({s})" if level >= 2 else s

    return go(t, [], level)


def test_abella_printer_matches_former_recursive_printer():
    # hints also uppercase and empty; free variables renamed onto binder
    # bases and constants
    rng = random.Random(11)
    gen = _Printable(rng, hints=["x", "y", "x1", "q", "X", "Y1", ""])
    got, want, printed = [], [], []  # printed: a printer's memos are keyed by id
    for _ in range(150):  # one printer per group, as `echo_mod` has one per clause
        rename = {v: rng.choice(["X", "Y", "x", "y1", "q"])
                  for v in rng.sample(["x", "y", "x1", "q"], rng.randrange(4))}
        show = printer(ABELLA, rename)
        for _ in range(4):
            t, level = gen.term(O, rng.randrange(1, 16), 0), rng.randrange(2)
            printed.append(t)
            got.append(show(t, level))
            want.append(_ref_obj(t, rename, level))
    assert got == want
    text = "\n".join(want)
    for piece in ("#", " , ", "x1\\", "x2", "pi x\\", "(x\\", "(pi ", "=> (", ", (",
                  "(q ", "X", "Y"):
        assert piece in text, piece
    assert "?" not in text and "y1\\" in text and " : " not in text
