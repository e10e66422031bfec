import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from harrop.errors import SignatureError, TypeMismatch, UnknownIdentifier
from harrop.formulas import canonical_key, pp_formula, quantify
from harrop.terms import (
    LOGICAL_NAMES, Abs, App, Bound, Const, Meta, O, PI_NAME, Signature, TyArr, TyCon, Var, abstract, arrow,
    free_vars, free_vars_ordered, fresh_name, infer_type, instantiate, lam, leaves, ty_text,
    metas_of, normalize, resolver, shift, subst_metas, _logical_ty_ok,
)

from genutil import (
    FormulaSet, NApp, NLam, NVar, base_signature, debruijn, innermost_beta, random_closed_term,
    random_ty,
)
from roundtrip import substitute

NAT = TyCon("nat")
BOOL = TyCon("bool")
TY = TyCon("ty")
TM = TyCon("tm")


def test_arrow_right_associative():
    assert arrow(NAT, NAT, BOOL) == TyArr(NAT, TyArr(NAT, BOOL))


def test_arrow_needs_a_type():
    with pytest.raises(ValueError):
        arrow()


def _ref_ty_repr(ty):
    """The former recursive `TyArr.__repr__`."""
    if not isinstance(ty, TyArr):
        return repr(ty)
    d = f"({_ref_ty_repr(ty.dom)})" if isinstance(ty.dom, TyArr) else _ref_ty_repr(ty.dom)
    return f"{d} -> {_ref_ty_repr(ty.cod)}"


def _ref_ty_eq(a, b):
    """The former field-wise `==` of types."""
    if isinstance(a, TyArr) and isinstance(b, TyArr):
        return _ref_ty_eq(a.dom, b.dom) and _ref_ty_eq(a.cod, b.cod)
    return a == b


def test_types_print_and_compare_as_the_recursive_forms_did():
    tys = [random_ty(random.Random(k), k % 6) for k in range(400)]
    twins = [random_ty(random.Random(k), k % 6) for k in range(400)]  # equal, not the same
    for a, b, twin in zip(tys, tys[1:] + tys[:1], twins):
        assert repr(a) == ty_text(a) == _ref_ty_repr(a)
        assert (a == b) == _ref_ty_eq(a, b) == (repr(a) == repr(b))
        assert a == twin and hash(a) == hash(twin) and a != NAT
    assert ty_text(TyArr(TyArr(NAT, BOOL), TY), lambda t: TM if t == NAT else t) \
        == "(tm -> bool) -> ty"


def test_deep_types_at_the_default_limit():
    right = arrow(*[NAT] * 3_000)
    left = NAT
    for _ in range(3_000):
        left = TyArr(left, NAT)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        texts = repr(right), repr(left)
        same = right == arrow(*[NAT] * 3_000), left == TyArr(left.dom, NAT), right == left
        hashes = hash(right) == hash(arrow(*[NAT] * 3_000)), hash(left)
    finally:
        sys.setrecursionlimit(limit)
    assert texts == (" -> ".join(["nat"] * 3_000), "(" * 2_999 + "nat" + " -> nat)" * 2_999 + " -> nat")
    assert same == (True, True, False) and hashes[0]


def test_deep_binder_types_compare_and_hash_at_the_default_limit():
    """Abs nodes whose binder types are 3,000-deep arrows, nested either way,
    compare on the one explicit stack of `==` and hash from the hash each
    arrow stored when built: a difference at the far end of a binder type is
    seen, and twins built apart compare and hash equal."""
    def right(last):
        return arrow(*[NAT] * 2_999, last)

    def left(last):
        ty = last
        for _ in range(2_999):
            ty = TyArr(ty, NAT)
        return ty

    c = Const("c", NAT)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for build in (right, left):
            a, twin, other = (Abs(build(last), c) for last in (NAT, NAT, BOOL))
            assert a == twin and hash(a) == hash(twin) and a != other
            assert hash(a) == hash((a.arg_ty, c)) and Abs(NAT, a) != Abs(NAT, other)
    finally:
        sys.setrecursionlimit(limit)


def test_infer_identity_function():
    sig = Signature()
    t = lam("x", NAT, Var("x", NAT))
    assert infer_type(sig, t) == TyArr(NAT, NAT)


def test_infer_application():
    sig = Signature().extend_const("f", TyArr(NAT, BOOL)).extend_const("a", NAT)
    t = App(Const("f", TyArr(NAT, BOOL)), Const("a", NAT))
    assert infer_type(sig, t) == BOOL


def test_infer_encoded_abstraction():
    # abs b (x\ x) : tm under abs : ty -> (tm -> tm) -> tm, b : ty,
    # following the three typing rules by hand: the inner lambda has type
    # tm -> tm, so the application chain lands at tm.
    abs_ty = arrow(TY, TyArr(TM, TM), TM)
    sig = Signature().extend_const("abs", abs_ty).extend_const("b", TY)
    t = App(App(Const("abs", abs_ty), Const("b", TY)),
            lam("x", TM, Var("x", TM)))
    assert infer_type(sig, t) == TM


def test_infer_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        infer_type(Signature(), Const("mystery", NAT))


def test_infer_domain_mismatch():
    f = Const("f", TyArr(NAT, BOOL))
    # construction is checked eagerly, Church-style
    with pytest.raises(TypeMismatch):
        App(f, Const("b", BOOL))


def test_signature_rejects_duplicates():
    sig = Signature().extend_const("c", NAT)
    with pytest.raises(SignatureError):
        sig.extend_const("c", BOOL)
    with pytest.raises(SignatureError):
        sig.extend_const("c", NAT)  # the same type is no exception
    assert sig.lookup("c") == NAT and "c" in sig and "d" not in sig


# -- substitution -------------------------------------------------------------

def test_substitute_ignores_bound_occurrences():
    # (x\ x)[a/x] leaves the term unchanged
    t = lam("x", NAT, Var("x", NAT))
    assert substitute(t, "x", Const("a", NAT)) == t


def test_substitute_avoids_capture():
    # (y\ x)[y/x] must rename the binder: the result applied to anything
    # still returns the free y
    t = lam("y", NAT, Var("x", NAT))
    out = substitute(t, "x", Var("y", NAT))
    assert isinstance(out, Abs)
    assert out.body == Var("y", NAT)  # the free y, not the binder
    assert "y" in free_vars(out)
    # printing renames the binder hint away from the free variable
    assert pp_formula(out) == "y1\\ y"


def test_substitute_direct_replacement():
    assert substitute(Var("x", NAT), "x", Const("a", NAT)) == Const("a", NAT)


def test_substitute_type_mismatch():
    with pytest.raises(TypeMismatch):
        substitute(Var("x", NAT), "x", Const("b", BOOL))


def test_substitute_identity_up_to_alpha():
    rng = random.Random(7)
    sig = base_signature()
    for _ in range(100):
        t = random_closed_term(rng, sig, 12)
        body = lam("z", TyCon("i"), App(Const("f0", TyArr(TyCon("i"), TyCon("i"))),
                                        Var("w", TyCon("i"))))
        assert substitute(body, "w", Var("w", TyCon("i"))) == body
        assert substitute(t, "nosuch", Const("c0", TyCon("i"))) == t


# -- normalization ------------------------------------------------------------

def test_beta_step():
    t = App(lam("x", NAT, Var("x", NAT)), Const("a", NAT))
    assert normalize(t) == Const("a", NAT)


def test_eta_contraction():
    f = Const("f", TyArr(NAT, BOOL))
    t = Abs(NAT, App(f, Bound(0, NAT)), "x")  # x\ f x with x not free in f
    assert normalize(t) == f


def test_already_normal():
    a = Const("a", NAT)
    assert normalize(a) == a


def test_eta_after_beta_cascade():
    # x\ ((y\ y) (f x)) reduces to f by beta then eta
    f = Const("f", TyArr(NAT, NAT))
    inner = App(lam("y", NAT, Var("y", NAT)), App(f, Var("x", NAT)))
    t = lam("x", NAT, inner)
    assert normalize(t) == f


def test_normalize_opens_a_redex_before_eta_contracting_its_function():
    # (x\ y\ x y) (z\ f z z) is y\ f y y after full beta, and eta leaves it
    # so; eta-contracting the function first, to x\ x, would give the same
    # term with the argument's binder hint z
    f = Const("f", arrow(NAT, NAT, NAT))
    fn = Abs(TyArr(NAT, NAT), Abs(NAT, App(Bound(1, TyArr(NAT, NAT)), Bound(0, NAT)), "y"), "x")
    arg = Abs(NAT, App(App(f, Bound(0, NAT)), Bound(0, NAT)), "z")
    assert normalize(App(fn, arg)).hint == "y"
    assert repr(normalize(App(fn, arg))) == repr(_ref_normalize(App(fn, arg)))


# -- alpha equivalence ----------------------------------------------------------

def test_alpha_identity_functions():
    t1 = lam("x", NAT, Var("x", NAT))
    t2 = lam("y", NAT, Var("y", NAT))
    assert t1 == t2


def test_alpha_distinguishes_binders():
    # x\ y\ x vs y\ x\ x: a de Bruijn conversion oracle on a separate named
    # AST distinguishes index 1 from index 0
    named1 = NLam("x", NLam("y", NVar("x")))
    named2 = NLam("y", NLam("x", NVar("x")))
    assert debruijn(named1) != debruijn(named2)
    t1 = lam("x", NAT, lam("y", NAT, Var("x", NAT)))
    t2 = lam("y", NAT, lam("x", NAT, Var("x", NAT)))
    assert debruijn(named1) == ("lam", ("lam", 1))
    assert t1.body.body == Bound(1, NAT)
    assert t1 != t2


def test_alpha_reflexive_on_atoms():
    a = Const("a", NAT)
    assert a == a


def test_alpha_equivalence_relation():
    rng = random.Random(21)
    sig = base_signature()
    for _ in range(60):
        t = random_closed_term(rng, sig, 10)
        u = _rename_hints(t, rng)
        v = _rename_hints(t, rng)
        assert t == t
        assert (t == u) == (u == t)
        if t == u and u == v:
            assert t == v


def _rename_hints(t, rng):
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _rename_hints(t.body, rng), f"v{rng.randrange(5)}")
    if isinstance(t, App):
        return App(_rename_hints(t.fn, rng), _rename_hints(t.arg, rng))
    return t


# -- kernel-wide properties ----------------------------------------------------

def test_subject_reduction_small():
    rng = random.Random(3)
    sig = base_signature()
    for _ in range(150):
        t = random_closed_term(rng, sig, 14)
        assert infer_type(sig, t) == infer_type(sig, normalize(t))


def test_confluence_of_strategies_small():
    rng = random.Random(5)
    sig = base_signature()
    for _ in range(150):
        t = random_closed_term(rng, sig, 14)
        assert normalize(t) == normalize(innermost_beta(t))


def test_free_vars_closed():
    assert free_vars(lam("x", NAT, Var("x", NAT))) == set()


def test_free_vars_under_binder():
    f = Var("f", TyArr(NAT, TyArr(NAT, BOOL)))
    t = lam("x", NAT, App(App(f, Var("x", NAT)), Var("y", NAT)))
    assert free_vars(t) == {"f", "y"}


def test_free_vars_single():
    assert free_vars(Var("x", NAT)) == {"x"}


@given(st.integers(min_value=0, max_value=10_000))
def test_beta_eta_equal_is_reflexive_for_random_seeds(seed):
    rng = random.Random(seed)
    t = random_closed_term(rng, base_signature(), 8)
    assert normalize(t) == normalize(t)


# -- the two traversals against the recursive reference walkers -------------------
#
# Compact copies of the recursive walkers the kernel had before every leaf walk
# went through `map_leaves`/`leaves`; the kernel must agree with them exactly.

def _ref_shift(t, d, cutoff=0):
    if isinstance(t, Bound):
        return Bound(t.idx + d, t.ty) if t.idx >= cutoff else t
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _ref_shift(t.body, d, cutoff + 1), t.hint)
    if isinstance(t, App):
        return App(_ref_shift(t.fn, d, cutoff), _ref_shift(t.arg, d, cutoff))
    return t


def _ref_open(t, repl, depth=0):
    if isinstance(t, Bound):
        if t.idx == depth:
            return _ref_shift(repl, depth)
        return Bound(t.idx - 1, t.ty) if t.idx > depth else t
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _ref_open(t.body, repl, depth + 1), t.hint)
    if isinstance(t, App):
        return App(_ref_open(t.fn, repl, depth), _ref_open(t.arg, repl, depth))
    return t


def _ref_instantiate(t, values):
    # the innermost binder first, its value shifted past the binders still closed
    for i in reversed(range(len(values))):
        t = _ref_open(t, _ref_shift(values[i], i))
    return t


def _ref_close(t, name, ty, depth=0):
    if isinstance(t, Var) and t.name == name:
        if t.ty != ty:
            raise TypeMismatch(f"variable {name} used at type {t.ty!r}, bound at {ty!r}")
        return Bound(depth, ty)
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _ref_close(t.body, name, ty, depth + 1), t.hint)
    if isinstance(t, App):
        return App(_ref_close(t.fn, name, ty, depth), _ref_close(t.arg, name, ty, depth))
    return t


def _ref_abstract(t, binders):
    # the innermost binder first, so a name given twice is bound by the inner one
    n = len(binders)
    for i in reversed(range(n)):
        t = _ref_close(t, binders[i][0], binders[i][1], n - 1 - i)
    return t


def _ref_substitute(t, name, repl, depth=0):
    if isinstance(t, Var) and t.name == name:
        if t.ty != repl.ty:
            raise TypeMismatch(
                f"substituting term of type {repl.ty!r} for {name} of type {t.ty!r}")
        return _ref_shift(repl, depth)
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _ref_substitute(t.body, name, repl, depth + 1), t.hint)
    if isinstance(t, App):
        return App(_ref_substitute(t.fn, name, repl, depth),
                   _ref_substitute(t.arg, name, repl, depth))
    return t


def _ref_subst_metas(t, binding, depth=0):
    if isinstance(t, Meta) and t.uid in binding:
        return _ref_shift(_ref_subst_metas(binding[t.uid], binding), depth)
    if isinstance(t, Abs):
        return Abs(t.arg_ty, _ref_subst_metas(t.body, binding, depth + 1), t.hint)
    if isinstance(t, App):
        return App(_ref_subst_metas(t.fn, binding, depth),
                   _ref_subst_metas(t.arg, binding, depth))
    return t


def _ref_leaves(t):
    if isinstance(t, Abs):
        return _ref_leaves(t.body)
    if isinstance(t, App):
        return _ref_leaves(t.fn) + _ref_leaves(t.arg)
    return [t]


def _ref_uses_index(t, idx):
    if isinstance(t, Bound):
        return t.idx == idx
    if isinstance(t, Abs):
        return _ref_uses_index(t.body, idx + 1)
    if isinstance(t, App):
        return _ref_uses_index(t.fn, idx) or _ref_uses_index(t.arg, idx)
    return False


def _ref_normalize(t):
    def beta(u):
        if isinstance(u, App):
            fn = beta(u.fn)
            if isinstance(fn, Abs):
                return beta(_ref_open(fn.body, u.arg))
            return App(fn, beta(u.arg))
        if isinstance(u, Abs):
            return Abs(u.arg_ty, beta(u.body), u.hint)
        return u

    def eta(u):
        if isinstance(u, App):
            return App(eta(u.fn), eta(u.arg))
        if isinstance(u, Abs):
            b = eta(u.body)
            if isinstance(b, App) and isinstance(b.arg, Bound) and b.arg.idx == 0 \
                    and not _ref_uses_index(b.fn, 0):
                return _ref_shift(b.fn, -1)
            return Abs(u.arg_ty, b, u.hint)
        return u

    return eta(beta(t))


def _ref_type(t):
    if isinstance(t, Abs):
        return TyArr(t.arg_ty, _ref_type(t.body))
    if isinstance(t, App):
        return _ref_type(t.fn).cod
    return t.ty


def _ref_free_vars_ordered(t):
    seen = {}
    for u in _ref_leaves(t):
        if isinstance(u, Var):
            seen.setdefault(u.name, u)
    return list(seen.values())


def _ref_metas_of(t):
    seen = {}
    for u in _ref_leaves(t):
        if isinstance(u, Meta):
            seen.setdefault(u.uid, u)
    return list(seen.values())


def _ref_canonical_key(t):
    n = _ref_normalize(t)
    renaming = {}
    for v in _ref_free_vars_ordered(n):
        renaming.setdefault(v.name, f"_{len(renaming)}")

    def go(u):
        if isinstance(u, Var):
            return Var(renaming[u.name], u.ty)
        if isinstance(u, Abs):
            return Abs(u.arg_ty, go(u.body), "")
        if isinstance(u, App):
            return App(go(u.fn), go(u.arg))
        return u

    return go(n)


class _Leafy:
    """Random well-typed terms over Var, Const, Meta and dangling Bound leaves
    under nested binders.  A leaf's name is fixed by its type, and so is the
    type of each dangling index, so opening, closing and substituting at the
    matching type mostly succeed.  Metavariables of `level` L are only bound
    to terms over level L+1 ones, which makes binding chains acyclic."""

    TYPES = [TyCon("i"), TyCon("j"), TyArr(TyCon("i"), TyCon("i")),
             TyArr(TyCon("i"), TyArr(TyCon("j"), TyCon("i"))),
             TyArr(TyArr(TyCon("i"), TyCon("i")), TyCon("j"))]

    def __init__(self, rng):
        self.rng = rng
        self.numbers = {}  # type -> the number in its leaves' names
        self.dangling = [rng.choice(self.TYPES) for _ in range(4)]

    def ty(self):
        return self.rng.choice(self.TYPES)

    def number(self, ty):
        return self.numbers.setdefault(ty, len(self.numbers))

    def var(self, ty):
        return Var(f"v{self.number(ty)}_{self.rng.randrange(2)}", ty)

    def leaf(self, ty, env, level):
        rng, n = self.rng, self.number(ty)
        kind = rng.randrange(4)
        if kind == 0:
            return self.var(ty)
        if kind == 1:
            return Const(f"c{n}_{rng.randrange(2)}", ty)
        if kind == 2:
            uid = 10_000 * level + 10 * n + rng.randrange(2)
            return Meta(f"M{uid}", ty, uid)
        bound = [i for i, t in enumerate(env) if t == ty]
        bound += [len(env) + d for d, t in enumerate(self.dangling) if t == ty]
        return Bound(rng.choice(bound), ty) if bound else self.var(ty)

    def term(self, ty, size, env=(), level=0):
        rng = self.rng
        if size <= 1:
            return self.leaf(ty, env, level)
        if isinstance(ty, TyArr) and rng.random() < 0.4:
            return Abs(ty.dom, self.term(ty.cod, size - 1, (ty.dom,) + env, level),
                       rng.choice("xyz"))
        if rng.random() < 0.2:
            return self.leaf(ty, env, level)
        a = self.ty()
        return App(self.term(TyArr(a, ty), size // 2, env, level),
                   self.term(a, size // 2, env, level))

    def binding(self, t):
        out, todo = {}, list(_ref_metas_of(t))
        while todo:
            m = todo.pop()
            if m.uid in out or m.uid >= 30_000 or self.rng.random() < 0.3:
                continue
            out[m.uid] = self.term(m.ty, self.rng.randrange(1, 8), (), m.uid // 10_000 + 1)
            todo += _ref_metas_of(out[m.uid])
        return out


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack += [u.fn, u.arg]
        elif isinstance(u, Abs):
            stack.append(u.body)


def _check_node_facts(t, hint_rng):
    """Every node's type, ground bit and normal bit agree with the reference
    walkers, and its hash ignores binder hints."""
    for u in _subterms(t):
        assert u.ty == _ref_type(u)
        assert u.ground == (not _ref_metas_of(u))
        if isinstance(u, App):
            assert hash(u) == hash((u.fn, u.arg))
        elif isinstance(u, Abs):
            assert hash(u) == hash((u.arg_ty, u.body))
        if u.normal:
            assert normalize(u) is u
            assert repr(_ref_normalize(u)) == repr(u)
    renamed = _rename_hints(t, hint_rng)
    assert renamed == t and hash(renamed) == hash(t)


def _outcome(fn, *args):
    """repr keeps binder hints, so equal outcomes print identically."""
    try:
        return "ok", repr(fn(*args))
    except TypeMismatch as e:
        return "TypeMismatch", str(e)


def test_kernel_matches_reference_walkers():
    rng = random.Random(2024)
    hint_rng = random.Random(7)  # a stream of its own: the terms stay as they were
    opened = closed = 0
    for _ in range(300):
        g = _Leafy(rng)
        t = g.term(g.ty(), rng.randrange(1, 40))
        _check_node_facts(t, hint_rng)
        for d in (-1, 0, 1, 3):
            assert repr(shift(t, d)) == repr(_ref_shift(t, d))
        repl = g.term(g.dangling[0], rng.randrange(1, 6))
        got = _outcome(instantiate, t, (repl,))
        assert got == _outcome(_ref_open, t, repl)
        opened += got[0] == "ok"
        m = rng.randrange(2, 5)  # several binders at once, outermost first
        values = [g.term(g.dangling[m - 1 - i], rng.randrange(1, 6)) for i in range(m)]
        assert _outcome(instantiate, t, values) == _outcome(_ref_instantiate, t, values)
        v = g.var(g.ty())
        ty = v.ty if rng.random() < 0.8 else g.ty()
        got = _outcome(abstract, t, ((v.name, ty),))
        assert got == _outcome(_ref_close, t, v.name, ty)
        closed += got[0] == "ok"
        # several binders, a name possibly given twice: with two ill-typed
        # occurrences the one pass and the reference may name different ones
        binders = [(w.name, w.ty if rng.random() < 0.9 else g.ty())
                   for w in (g.var(g.ty()) for _ in range(rng.randrange(2, 4)))]
        got = _outcome(abstract, t, binders)
        want = _outcome(_ref_abstract, t, binders)
        assert got[0] == want[0] and (got[0] != "ok" or got == want)
        repl = g.term(v.ty if rng.random() < 0.8 else g.ty(), rng.randrange(1, 6))
        assert _outcome(substitute, t, v.name, repl) \
            == _outcome(_ref_substitute, t, v.name, repl)
        binding = g.binding(t)
        resolved = subst_metas(t, binding)
        assert repr(resolved) == repr(_ref_subst_metas(t, binding))
        _check_node_facts(resolved, hint_rng)
        assert [u for u, _ in leaves(t)] == _ref_leaves(t)
        assert free_vars(t) == {u.name for u in _ref_leaves(t) if isinstance(u, Var)}
        assert free_vars_ordered(t) == _ref_free_vars_ordered(t)
        assert metas_of(t) == _ref_metas_of(t)
        assert repr(normalize(t)) == repr(_ref_normalize(t))
        _check_node_facts(normalize(t), hint_rng)
        assert canonical_key(t) == _ref_canonical_key(t)
    # the generator exercises the success paths, not only the type errors
    assert opened > 150 and closed > 150


def _ref_infer_type(sig, t):
    """The recursive type check `infer_type` had before it read the leaves only."""
    def go(u, env):
        if isinstance(u, Meta):
            return u.ty
        if isinstance(u, Const) and u.name in LOGICAL_NAMES:
            if not _logical_ty_ok(u.name, u.ty):
                raise TypeMismatch(f"logical constant {u.name} used at {u.ty!r}")
            return u.ty
        if isinstance(u, (Const, Var)):
            declared = sig.lookup(u.name)
            if declared is None:
                raise UnknownIdentifier(u.name)
            if declared != u.ty:
                raise TypeMismatch(f"{u.name} declared at {declared!r} but used at {u.ty!r}")
            return declared
        if isinstance(u, Bound):
            if u.idx >= len(env):
                raise TypeMismatch(f"dangling bound index {u.idx}")
            if env[u.idx] != u.ty:
                raise TypeMismatch(
                    f"bound variable annotated {u.ty!r} under binder of {env[u.idx]!r}")
            return u.ty
        if isinstance(u, Abs):
            return TyArr(u.arg_ty, go(u.body, [u.arg_ty] + env))
        fty, aty = go(u.fn, env), go(u.arg, env)
        if not isinstance(fty, TyArr):
            raise TypeMismatch(f"applying a non-function of type {fty!r}")
        if fty.dom != aty:
            raise TypeMismatch(f"argument type {aty!r} does not match domain {fty.dom!r}")
        return fty.cod

    return go(t, [])


class _IllTyped(_Leafy):
    """_Leafy terms that also hold indices under binders of another type,
    dangling indices and logical constants at arbitrary types."""

    def leaf(self, ty, env, level):
        r = self.rng.random()
        if r < 0.15:
            return Bound(self.rng.randrange(len(env) + 2), ty)
        if r < 0.2:
            return Const(self.rng.choice(sorted(LOGICAL_NAMES)), ty)
        return super().leaf(ty, env, level)


def _type_outcome(fn, sig, t):
    try:
        return "ok", fn(sig, t)
    except (TypeMismatch, UnknownIdentifier) as e:
        return type(e).__name__, str(e)


def test_infer_type_matches_the_recursive_check():
    rng = random.Random(4711)
    kinds = set()
    for _ in range(400):
        g = _IllTyped(rng)
        t = g.term(g.ty(), rng.randrange(1, 30))
        if rng.random() < 0.3:  # under binders, so that some indices are bound
            for ty in g.dangling[:rng.randrange(1, 4)]:
                t = Abs(ty, t, "w")
        # most names declared at their type, some missing or at another type
        consts = {}
        for u, _ in leaves(t):
            if isinstance(u, (Const, Var)) and u.name not in LOGICAL_NAMES:
                r = rng.random()
                if r < 0.9:
                    consts[u.name] = u.ty if r < 0.8 else g.ty()
        got = _type_outcome(infer_type, Signature(consts), t)
        assert got == _type_outcome(_ref_infer_type, Signature(consts), t)
        kinds.add(got[0] if got[0] != "TypeMismatch"
                  else "declared" if " declared at " in got[1] else got[1].split(" ")[0])
    assert kinds == {"ok", "UnknownIdentifier", "declared", "dangling", "bound", "logical"}, \
        kinds


def test_infer_type_rejects_a_node_that_is_not_a_term():
    with pytest.raises(TypeMismatch, match="unrecognized term node"):
        infer_type(Signature({}), TyArr(NAT, NAT))


def test_unchanged_subterms_are_shared():
    f = Const("f", arrow(NAT, NAT, NAT))
    closed_t = lam("x", NAT, App(App(f, Var("x", NAT)), Const("a", NAT)))
    assert shift(closed_t, 3) is closed_t
    # Bound(0) under the inner binder refers to that binder, not to the one opened
    h = Const("h", arrow(arrow(NAT, NAT), NAT))
    inner = App(h, Abs(NAT, App(App(f, Bound(0, NAT)), Const("a", NAT))))
    body = App(App(f, Bound(0, NAT)), inner)
    assert instantiate(body, (Const("b", NAT),)).arg is inner
    no_zero = App(App(f, Const("a", NAT)),
                  App(h, Abs(NAT, App(App(f, Bound(0, NAT)), Var("y", NAT)))))
    assert instantiate(no_zero, (Const("b", NAT),)) is no_zero
    t = lam("x", NAT, App(App(f, Var("x", NAT)), Meta("M", NAT, 1)))
    assert subst_metas(t, {2: Const("a", NAT)}) is t
    assert subst_metas(closed_t, {1: Const("a", NAT)}) is closed_t  # ground
    # normalization: a normal term, or a normal subterm beside a redex, is kept
    assert normalize(closed_t) is closed_t
    assert normalize(no_zero) is no_zero
    redex = App(lam("x", NAT, Var("x", NAT)), Const("a", NAT))
    assert normalize(App(App(f, redex), inner)).arg is inner


def test_leaf_queries_on_deep_terms():
    lst = TyCon("list")
    cons = Const("cons", arrow(NAT, lst, lst))
    t = Const("nil", lst)
    items = []
    for i in range(3000):
        x = [Var(f"x{i}", NAT), Const(f"k{i % 7}", NAT), Meta(f"M{i}", NAT, i)][i % 3]
        items.append(x)
        t = App(App(cons, x), t)
    items.reverse()
    vs = [x for x in items if isinstance(x, Var)]
    assert free_vars(t) == {v.name for v in vs}
    assert free_vars_ordered(t) == vs
    assert metas_of(t) == [x for x in items if isinstance(x, Meta)]
    assert {u.name for u, _ in leaves(t) if isinstance(u, Const)} == \
        {"cons", "nil"} | {f"k{i}" for i in range(7)}
    # a ground, normal list is answered from its node bits, not walked
    ground = Const("nil", lst)
    for i in range(3000):
        ground = App(App(cons, Const(f"k{i % 7}", NAT)), ground)
    assert metas_of(ground) == []
    assert subst_metas(ground, {1: Const("k0", NAT)}) is ground
    assert normalize(ground) is ground


def test_rebuilding_walks_on_deep_terms():
    """A 3,000-element list and 1,000 nested binders under a redex go through
    every walk that rebuilds a term, and through type checking, at the
    default recursion limit."""
    lst = TyCon("list")
    cons, nil, k = Const("cons", arrow(NAT, lst, lst)), Const("nil", lst), Const("k", NAT)
    p = Const("p", TyArr(lst, O))
    x, m = Var("x", NAT), Meta("M", NAT, 1)

    def the_list(elems, tail):
        t = tail
        for i in range(3000):
            t = App(App(cons, elems[i % 3]), t)
        return t

    # the list sits under one binder, whose index is every third element; a
    # redex at its bottom keeps normalization walking the whole spine
    redex = App(Abs(NAT, nil, "y"), k)
    lst_t = the_list([x, Bound(0, NAT), m], redex)
    # 1,000 nested binders whose body uses the innermost and the outermost
    f = Const("f", arrow(NAT, NAT, NAT))
    nest = App(App(f, Bound(0, NAT)), Bound(999, NAT))
    for _ in range(1000):
        nest = Abs(NAT, nest, "z")
    opened = App(App(f, Bound(0, NAT)), k)  # the body once the outermost is k
    for _ in range(999):
        opened = Abs(NAT, opened, "z")
    sig = Signature({"cons": cons.ty, "nil": lst, "k": NAT, "x": NAT, "f": f.ty, "p": p.ty})

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert shift(lst_t, 2) == the_list([x, Bound(2, NAT), m], redex)
        assert instantiate(lst_t, (k,)) == the_list([x, k, m], redex)
        assert abstract(lst_t, (("x", NAT),)) == the_list([Bound(0, NAT), Bound(0, NAT), m], redex)
        assert subst_metas(lst_t, {1: k}) == the_list([x, Bound(0, NAT), k], redex)
        assert normalize(lst_t) == the_list([x, Bound(0, NAT), m], nil)
        assert normalize(App(nest, k)) == opened
        assert instantiate(nest.body, (k,)) == opened
        assert shift(nest, 1) is nest  # closed: nothing changes
        assert infer_type(sig, Abs(NAT, lst_t)) == TyArr(NAT, lst)
        assert infer_type(sig, App(nest, k)) is nest.ty.cod
        closed = Abs(NAT, subst_metas(lst_t, {1: k}))
        assert canonical_key(App(p, App(closed, x))) == App(p, the_list(
            [Var("_0", NAT), Var("_0", NAT), k], nil))
        q = quantify((("x", NAT),), App(p, App(closed, k)))
        assert q.arg.body == App(p, App(abstract(closed, (("x", NAT),)), k))
    finally:
        sys.setrecursionlimit(old)


def test_a_long_binding_chain_resolves_at_the_default_limit():
    """Each of 3,000 metavariables is bound to a cons cell whose tail is the
    next and whose head is one shared metavariable: the chain is followed on
    an explicit stack, the shared binding is resolved once, and a cycle is
    refused."""
    lst = TyCon("list")
    cons, nil, k = Const("cons", arrow(NAT, lst, lst)), Const("nil", lst), Const("k", NAT)
    head = Meta("H", NAT, 0)
    ms = [Meta(f"M{i}", lst, i + 1) for i in range(3001)]
    binding = {m.uid: App(App(cons, head), nxt) for m, nxt in zip(ms, ms[1:])}
    binding[ms[-1].uid], binding[head.uid] = nil, k
    want = nil
    for _ in range(3000):
        want = App(App(cons, k), want)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        resolve = resolver(binding)
        got = resolve(ms[0])
        assert got == want
        assert resolve(ms[1]) is got.arg  # resolved once, shared
        assert resolve(Abs(NAT, ms[2])) == Abs(NAT, want.arg.arg)
    finally:
        sys.setrecursionlimit(old)
    a, b = ms[0], ms[1]
    with pytest.raises(ValueError):
        subst_metas(a, {a.uid: App(App(cons, k), b), b.uid: App(App(cons, k), a)})
    with pytest.raises(ValueError):
        subst_metas(a, {a.uid: App(App(cons, k), a)})


def test_quantify_matches_closing_one_binder_at_a_time():
    def one_at_a_time(binders, body):
        t = body
        for name, ty in reversed(binders):
            t = App(Const(PI_NAME, TyArr(TyArr(ty, O), O)), lam(name, ty, t))
        return t

    rng = random.Random(31)
    mistyped = 0
    for _ in range(300):
        g = _Leafy(rng)
        body = g.term(O, rng.randrange(1, 30))
        # mostly variables of the body, some named twice; at most one binder
        # gets a wrong type, as the two orders may report different ones
        pool = _ref_free_vars_ordered(body) + [g.var(g.ty())]
        binders = [(v.name, v.ty) for v in (rng.choice(pool) for _ in range(rng.randrange(5)))]
        if binders and rng.random() < 0.3:
            i = rng.randrange(len(binders))
            binders[i] = (binders[i][0], g.ty())
        got = _outcome(quantify, binders, body)
        assert got == _outcome(one_at_a_time, binders, body)
        mistyped += got[0] == "TypeMismatch"
    assert mistyped > 10


def test_fresh_name_suffix_counter_matches_scan():
    rng = random.Random(11)
    bases = ["x", "v", "v1", "y2"]
    for _ in range(300):
        taken = {rng.choice(bases) + rng.choice(["", "1", "2", "3", "11", "12"])
                 for _ in range(rng.randrange(12))}
        next_suffix = {}
        for _ in range(rng.randrange(1, 40)):
            if rng.random() < 0.1:  # taken may grow between calls too
                taken.add(rng.choice(bases) + str(rng.randrange(6)))
            base = rng.choice(bases)
            name = fresh_name(base, taken, next_suffix)
            assert name == fresh_name(base, taken)
            taken.add(name)


def test_hash_of_a_long_list_does_not_recurse():
    """The first hash of a node fills the cached hashes below it children
    first, so a 3,000-element list hashes at the default recursion limit."""
    nil = Const("nil", TM)
    cons = Const("cons", arrow(NAT, TM, TM))
    elems = [Const(f"n{i % 3}", NAT) for i in range(3000)]

    def build():
        t = nil
        for e in elems:
            t = App(App(cons, e), t)
        return t

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        lst = build()
        assert hash(lst) == hash(build())
        fact = App(Const("p", TyArr(TM, O)), lst)
        assert fact in FormulaSet([fact])
    finally:
        sys.setrecursionlimit(old)


def test_deep_term_equality():
    """`==` walks an explicit stack: two equal 3,000-element lists built
    apart compare at the default recursion limit, a difference at the far end
    or in a binder type is seen, hints are ignored and other classes are left
    to their own comparison."""
    nil = Const("nil", TM)
    cons = Const("cons", arrow(NAT, TM, TM))

    def build(last="n0", hint="x"):
        t = App(Const("f", TyArr(TyArr(NAT, NAT), TM)), Abs(NAT, Bound(0, NAT), hint))
        t = App(App(Const("g", arrow(TM, TM, TM)), t), nil)
        for i in range(3000):
            t = App(App(cons, Const(last if i == 0 else f"n{i % 3}", NAT)), t)
        return t

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        lst = build()
        assert lst == build() and lst == build(hint="y") and not lst != build()
        assert lst != build(last="n1")
        assert Abs(NAT, Const("c", NAT)) != Abs(TM, Const("c", NAT))
        assert App.__eq__(lst, nil) is NotImplemented and lst != nil and lst != "lst"
        p = Const("p", TyArr(TM, O))
        assert App(p, build(hint="z")) in FormulaSet([App(p, lst)])
    finally:
        sys.setrecursionlimit(old)


def test_node_repr_equality_and_facts_are_pinned():
    """What every term and type node shows, compares and knows: the field
    text of `repr`, `==` and hash by class and fields with binder hints left
    out, the type checks of `App` with their messages, the `ground`, `normal`
    and `loose` facts, and no attribute beyond the declared ones."""
    f = Const("f", TyArr(NAT, NAT))
    a, x, m = Const("a", NAT), Var("x", NAT), Meta("X", NAT, 3)
    lam_y = Abs(NAT, App(f, Bound(0, NAT)), "y")
    assert [repr(t) for t in (a, x, m, Bound(0, NAT), App(f, x), lam_y)] == [
        "Const(name='a', ty=nat)", "Var(name='x', ty=nat)", "Meta(name='X', ty=nat, uid=3)",
        "Bound(idx=0, ty=nat)", "App(fn=Const(name='f', ty=nat -> nat), arg=Var(name='x', ty=nat))",
        "Abs(arg_ty=nat, body=App(fn=Const(name='f', ty=nat -> nat), "
        "arg=Bound(idx=0, ty=nat)), hint='y')"]
    assert repr(TyArr(TyArr(NAT, BOOL), TyArr(NAT, O))) == "(nat -> bool) -> nat -> o"
    lam_z = Abs(NAT, App(f, Bound(0, NAT)), "z")
    assert lam_y == lam_z and hash(lam_y) == hash(lam_z) and lam_y.hint != lam_z.hint
    assert Const("a", NAT) != Var("a", NAT) and Const("a", NAT) == a and hash(Const("a", NAT)) == hash(a)
    assert Meta("X", NAT, 3) == m and Meta("X", NAT, 4) != m and Bound(0, NAT) != Bound(1, NAT)
    with pytest.raises(TypeMismatch, match=r"^applying a non-function of type nat$"):
        App(a, a)
    with pytest.raises(TypeMismatch, match=r"^argument type bool does not match domain nat$"):
        App(f, Const("b", BOOL))
    facts = lambda t: (t.ty, t.ground, t.normal, t.loose)
    assert facts(App(f, m)) == (NAT, False, True, 0)
    assert facts(Bound(2, NAT)) == (NAT, True, True, 3)
    assert facts(Abs(NAT, App(f, Bound(1, NAT)))) == (TyArr(NAT, NAT), True, True, 1)
    assert facts(lam_y) == (TyArr(NAT, NAT), True, False, 0)  # an eta-redex
    assert facts(App(lam_y, a)) == (NAT, True, False, 0)  # a beta-redex
    for node in (a, x, m, Bound(0, NAT), App(f, x), lam_y, NAT, TyArr(NAT, O)):
        # a frozen slotted dataclass raised TypeError here (its `__setattr__`
        # calls a zero-argument `super()` that misses the rebuilt class)
        with pytest.raises((AttributeError, TypeError)):
            node.extra = 1
        assert not hasattr(node, "extra")


def test_hashes_agree_across_processes():
    """Under a fixed PYTHONHASHSEED an arrow-typed term hashes the same in
    every process: no part of a hash depends on an object's address."""
    code = ("from harrop.terms import *\n"
            "i = TyCon('i')\n"
            "f = Const('f', arrow(TyArr(i, i), i, O))\n"
            "print(hash(App(App(f, Abs(i, Bound(0, i))), Var('a', i))), hash(TyArr(i, O)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    outs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] and outs[0].strip()
