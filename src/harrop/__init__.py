"""Hereditary Harrop logic toolkit.

A term kernel for the simply-typed lambda-calculus, goal/clause syntax with
a `.hh` parser, bounded focused proof search, dynamic-context and dependency
fixpoint analyses, and an Abella `.thm` generator for strengthening lemmas.
"""

from .terms import (
    O, Abs, App, Bound, Const, Meta, Signature, Term, Ty, TyArr, TyCon, Var,
    arrow, free_vars, infer_type, lam, normalize,
)
from .formulas import (
    NormalClause, Program, TOP, body, canonical_key, conj,
    formula_view, head_atom, head_pred, imp, normalize_clause, pi, pp_formula,
    printer,
)
from .parser import (
    ParsedFile, parse_clause, parse_goal, parse_program, parse_source,
)
from .engine import (
    Proved, Refuted, Sequent, SearchOutcome, TraceNode, Unknown,
    render_trace, replay_trace, solve,
)
from .analysis import (
    Blocked, ClauseTable, ContextConstraint, DependencyConstraint, Validated, Verdict,
    analysis_report, analyze_program, check_strengthenable,
    collect_context_constraints, collect_dependency_constraints, render_report,
    solve_context_fixpoint, solve_dependency_fixpoint,
)
from .abella import (
    AbellaArtifact, Define, Split, SpecRef, StrengtheningPlan, Theorem,
    build_development, echo_mod, echo_sig, gen_ctx_definition,
    gen_ctx_member_lemma, gen_stren_proof, gen_subctx_lemma, gen_user_theorem,
    gen_user_theorem_proof, make_plan, render,
)

__all__ = [name for name in dir() if not name.startswith("_")]
