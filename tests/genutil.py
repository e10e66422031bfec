"""Random generators and independent oracles shared by the test modules.

The oracles here deliberately avoid the package's own machinery where they
are used to cross-check it: the de Bruijn converter works on a tiny named
AST of its own, and the innermost normalizer is a second reduction strategy
written against the same term API but never used by the kernel.
"""

from __future__ import annotations

import random

from harrop.terms import (
    Abs, App, Bound, Const, O, Signature, Term, Ty, TyArr, TyCon, Var, instantiate,
    lam,
)
from harrop.formulas import TOP, KeyedSet, canonical_key, conj, imp, pi
from harrop.engine import Proved, Sequent, solve


class FormulaSet(KeyedSet):
    """A keyed set of formulas, each under its canonical key, as a context
    cell holds them; `in` asks for a formula by key."""

    __slots__ = ()

    def __init__(self, items=()):
        super().__init__()
        for t in items:
            self.add(t)

    def add(self, t: Term) -> bool:
        return self.add_keyed(canonical_key(t), t)

    def __contains__(self, t: Term) -> bool:
        return self.has_key(canonical_key(t))


# -- a tiny named lambda AST with its own de Bruijn conversion -----------------------

class NLam:
    def __init__(self, name, body):
        self.name, self.body = name, body


class NVar:
    def __init__(self, name):
        self.name = name


class NApp:
    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg


def debruijn(t, env=()):
    """Named AST -> nested tuples with indices; free names stay as strings."""
    if isinstance(t, NVar):
        return env.index(t.name) if t.name in env else t.name
    if isinstance(t, NLam):
        return ("lam", debruijn(t.body, (t.name,) + env))
    return ("app", debruijn(t.fn, env), debruijn(t.arg, env))


# -- random simple types and well-typed terms ------------------------------------------

BASE_TYPES = [TyCon("i"), TyCon("j")]


def random_ty(rng: random.Random, depth: int = 2) -> Ty:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(BASE_TYPES)
    return TyArr(random_ty(rng, depth - 1), random_ty(rng, depth - 1))


def base_signature() -> Signature:
    sig = Signature()
    sig = sig.extend_const("c0", TyCon("i"))
    sig = sig.extend_const("c1", TyCon("j"))
    sig = sig.extend_const("f0", TyArr(TyCon("i"), TyCon("i")))
    sig = sig.extend_const("f1", TyArr(TyCon("i"), TyArr(TyCon("j"), TyCon("i"))))
    sig = sig.extend_const("g0", TyArr(TyArr(TyCon("i"), TyCon("i")), TyCon("j")))
    return sig


def random_term(rng: random.Random, sig: Signature, ty: Ty, size: int,
                env: tuple[tuple[str, Ty], ...] = ()) -> Term:
    """A well-typed term of the requested type, of roughly the given size."""
    atoms: list[Term] = [Var(n, t) for n, t in env if t == ty]
    atoms += [Const(n, t) for n, t in sig.consts.items() if t == ty]
    if size <= 1 and atoms:
        return rng.choice(atoms)
    choices = []
    if isinstance(ty, TyArr):
        choices.append("abs")
    if size > 2:
        choices.append("app")
    if atoms:
        choices.append("atom")
    if not choices:
        choices = ["abs"] if isinstance(ty, TyArr) else ["app"]
    kind = rng.choice(choices)
    if kind == "atom":
        return rng.choice(atoms)
    if kind == "abs":
        assert isinstance(ty, TyArr)
        name = f"x{len(env)}"  # unique per nesting level: no ill-typed shadowing
        body = random_term(rng, sig, ty.cod, size - 1, env + ((name, ty.dom),))
        return lam(name, ty.dom, body)
    arg_ty = random_ty(rng, 1)
    fn = random_term(rng, sig, TyArr(arg_ty, ty), size // 2, env)
    arg = random_term(rng, sig, arg_ty, size // 2, env)
    return App(fn, arg)


def random_closed_term(rng: random.Random, sig: Signature, size: int) -> Term:
    return random_term(rng, sig, random_ty(rng, 2), size)


# -- an independent innermost (applicative-order) normalizer -----------------------------

def innermost_beta(t: Term) -> Term:
    if isinstance(t, App):
        fn = innermost_beta(t.fn)
        arg = innermost_beta(t.arg)
        if isinstance(fn, Abs):
            return innermost_beta(instantiate(fn.body, (arg,)))
        return App(fn, arg)
    if isinstance(t, Abs):
        return Abs(t.arg_ty, innermost_beta(t.body), t.hint)
    return t


# -- random propositional programs ---------------------------------------------------------

def prop_signature(n_preds: int) -> Signature:
    sig = Signature()
    for i in range(n_preds):
        sig = sig.extend_const(f"p{i}", O)
    return sig


def _atom(rng: random.Random, n: int) -> Term:
    return Const(f"p{rng.randrange(n)}", O)


def random_goal(rng: random.Random, n: int, depth: int) -> Term:
    """A goal with an unambiguous rigid head (no conjunction below binders)."""
    if depth <= 0 or rng.random() < 0.5:
        return _atom(rng, n)
    return imp(random_clause(rng, n, depth - 1), random_goal(rng, n, depth - 1))


def random_clause(rng: random.Random, n: int, depth: int) -> Term:
    head = _atom(rng, n)
    n_ants = rng.choice([0, 1, 1, 2]) if depth > 0 else 0
    t = head
    for _ in range(n_ants):
        t = imp(random_goal(rng, n, depth - 1), t)
    return t


def random_program_clauses(rng: random.Random, n_preds: int,
                           n_clauses: int, depth: int = 3) -> tuple[Term, ...]:
    return tuple(random_clause(rng, n_preds, depth) for _ in range(n_clauses))


def prop_sequent(sig: Signature, clauses: tuple[Term, ...],
                 dyn: tuple[Term, ...], goal: Term) -> Sequent:
    return Sequent(sig, clauses, dyn, goal)


def check_weakening(seq: Sequent, extra: Term, depth: int) -> bool:
    """True iff the sequent stays provable after adding `extra` to the
    dynamic context; callers arrange that seq itself is Proved at depth."""
    widened = Sequent(seq.sig, seq.static_ctx, seq.dynamic_ctx + (extra,), seq.goal)
    return isinstance(solve(widened, depth), Proved)


def subsets_up_to(items: list, k: int):
    """All subsets of the list with at most k elements, smallest first."""
    from itertools import combinations
    for size in range(0, min(k, len(items)) + 1):
        for combo in combinations(items, size):
            yield combo


# -- token mutations of source text ---------------------------------------------------

def mutate_tokens(rng: random.Random, toks: list, times: int = 1) -> list:
    """Drop, duplicate or swap tokens `times` times; the final EOF stays."""
    toks = list(toks)
    for _ in range(times):
        i = rng.randrange(len(toks) - 1)
        how = rng.choice(("drop", "duplicate", "swap"))
        if how == "drop" and len(toks) > 2:
            del toks[i]
        elif how == "duplicate":
            toks.insert(i, toks[i])
        else:
            j = rng.randrange(len(toks) - 1)
            toks[i], toks[j] = toks[j], toks[i]
    return toks


def source_text(toks: list) -> str:
    """Source text for tokens: one space apart, a directive ending its line."""
    return "".join(t.text + ("\n" if t.kind == "DIRECTIVE" else " ") for t in toks)
