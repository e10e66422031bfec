import random
import re
import sys

import pytest

from harrop import analysis, formulas, terms
from harrop.abella import ABELLA
from harrop.analysis import ClauseTable, analyze_program
from harrop.errors import (
    NonRigidAtomError, NotAClause, ParseError, ProgramTypeError,
)
from harrop.formulas import (
    Program, canonical_key, normalize_clause, pp_formula, printer, quantify,
)
from harrop.parser import (
    Token, _TokenStream, _parse_expr, _parse_tyexpr,
    parse_clause, parse_goal, parse_program, parse_source,
    split_directive_context, split_directive_strengthen, tokenize,
)
from harrop.terms import AND_NAME, IMP_NAME, Abs, App, TyArr, TyCon

from conftest import CORPUS, corpus_text
from genutil import mutate_tokens
from roundtrip import print_program


def test_parse_single_fact():
    prog = parse_program(
        "kind nat type.\nkind list type.\n"
        "type nil list.\ntype cons nat -> list -> list.\n"
        "type append list -> list -> list -> o.\n"
        "append nil L L.")
    assert len(prog.clauses) == 1
    nc = normalize_clause(prog.clauses[0])
    assert nc.binders == (("L", TyCon("list")),)
    assert nc.antecedents == ()


def test_parse_empty_program():
    prog = parse_program("")
    assert prog.clauses == ()


def test_syntax_error_carries_position():
    src = "type p o.\npi x \\ p => p p ."
    # 'p p' is an application of a o-typed constant: a type error at elaboration
    with pytest.raises((ParseError, ProgramTypeError)):
        parse_program(src)
    with pytest.raises(ParseError) as exc:
        parse_program("type p o.\n(p => p")
    assert exc.value.line == 2
    assert exc.value.col >= 1


def test_unbalanced_paren_is_syntax_error(typeof_program):
    with pytest.raises(ParseError):
        parse_goal("pi x \\ typeof x T1 => typeof (M x) T2)", typeof_program)


def test_unknown_constant_named_in_error():
    with pytest.raises(ProgramTypeError) as exc:
        parse_program("type p o.\nmystery => p.")
    assert "mystery" in str(exc.value)


def test_non_rigid_head_rejected():
    # a bare implicit variable cannot head a clause
    with pytest.raises((NonRigidAtomError, NotAClause, ParseError)):
        parse_program("type p o.\np => X.")


def test_implicit_capitals_become_binders(append_program):
    nc = normalize_clause(append_program.clauses[1])
    names = [n for n, _ in nc.binders]
    assert names == ["L1", "L2", "L3", "X"]  # first occurrence order


def test_type_inference_across_clause(typeof_program):
    nc = normalize_clause(typeof_program.clauses[1])
    tys = dict(nc.binders)
    assert tys["M"] == TyArr(TyCon("tm"), TyCon("tm"))
    assert tys["T1"] == TyCon("ty")


def test_ambiguous_type_is_an_error():
    # X is never constrained: its type cannot be inferred
    with pytest.raises((ParseError, ProgramTypeError)):
        parse_program("type p o.\ntype q o.\n(pi y \\ p) => q.")


def test_query_mode_yields_metavariables(append_program):
    g = parse_goal("append nil nil K", append_program, mode="query")
    from harrop.terms import metas_of
    assert [m.name for m in metas_of(g)] == ["K"]


def test_query_metavariables_numbered_per_parse(append_program):
    first = parse_goal("append X (cons 1 Y) K", append_program, mode="query")
    again = parse_goal("append X (cons 1 Y) K", append_program, mode="query")
    assert first == again


def test_goal_mode_yields_free_variables(append_program):
    g = parse_goal("append nil nil K", append_program, mode="goal")
    from harrop.terms import free_vars
    assert free_vars(g) == {"K"}


def test_numerals_are_constants(append_program):
    g = parse_goal("append nil nil (cons 1 nil)", append_program)
    assert "1" in pp_formula(g)


def test_reserved_type_names():
    with pytest.raises(ParseError):
        parse_program("kind o type.")
    with pytest.raises(ParseError):
        parse_program("kind prop type.")


@pytest.mark.parametrize("src, want", [
    ("kind i type.\ntype p i -> o.\np (X X).\n", "3:4: circular type constraint"),
    ("kind i kind.\n", "1:8: expected 'type'"),
    # a logical name is a keyword or a symbol, never a constant name
    ("type pi o.\n", "1:6: expected a constant name, found 'pi'"),
])
def test_declaration_and_type_errors(src, want):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert str(exc.value) == want


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse_program("type p o.\ntype p o.")


def test_comments_ignored():
    prog = parse_program("% a comment\ntype p o.\np. % trailing\n% done")
    assert len(prog.clauses) == 1


def test_round_trip_on_corpus():
    for name in ("append.hh", "typeof.hh", "list_minus.hh", "branching.hh",
                 "guarded.hh", "direct_use.hh", "indirect_use.hh"):
        prog = parse_program(corpus_text(name))
        again = parse_program(print_program(prog))
        assert again.clauses == prog.clauses, name
        # printing is a fixed point after one round
        assert print_program(again) == print_program(prog)


def test_strengthen_directive_parsed():
    parsed = parse_source(corpus_text("list_minus.hh"))
    (d,) = [d for d in parsed.directives if d.kind == "strengthen"]
    name, clause, goal = split_directive_strengthen(d, parsed.program)
    assert name == "uctx"
    assert pp_formula(clause) == "pi L : list \\ append nil L L"
    assert pp_formula(goal) == "list_minus X L1 L2"


def test_context_directive_parsed():
    src = corpus_text("guarded.hh") + "\n%context gctx b.\n"
    parsed = parse_source(src)
    (d,) = [d for d in parsed.directives if d.kind == "context"]
    name, clause = split_directive_context(d, parsed.program)
    assert name == "gctx"
    assert pp_formula(clause) == "b"


@pytest.mark.parametrize("text, split, msg", [
    ("%strengthen .", split_directive_strengthen,
     "expected a context name after %strengthen"),
    ("%strengthen u p in q.", split_directive_strengthen,
     "%strengthen expects '<ctx> from <clause> in <goal>'"),
    ("%context .", split_directive_context, "expected a context name after %context"),
])
def test_directive_shape_errors(text, split, msg):
    parsed = parse_source("type p o. type q o.\n" + text + "\n")
    with pytest.raises(ParseError) as exc:
        split(parsed.directives[0], parsed.program)
    assert str(exc.value) == f"2:1: {msg}"


def test_directive_finds_from_and_in_outside_parentheses():
    parsed = parse_source("type p o. type q o.\n%strengthen u from (p) in q.\n")
    name, clause, goal = split_directive_strengthen(parsed.directives[0], parsed.program)
    assert (name, pp_formula(clause), pp_formula(goal)) == ("u", "p", "q")


def test_directive_requires_dot():
    with pytest.raises(ParseError):
        parse_source("type p o.\n%strengthen u from p in p\n")


def test_lambda_argument_without_parens(typeof_program):
    # binders extend maximally right, so an unparenthesized trailing lambda
    # becomes the last argument
    g1 = parse_goal("typeof (abs b x\\ x) (arr b b)", typeof_program)
    g2 = parse_goal("typeof (abs b (x\\ x)) (arr b b)", typeof_program)
    assert g1 == g2


@pytest.mark.parametrize("text, split", [
    ("%strengthen u from p in (p.", split_directive_strengthen),
    ("%strengthen u from p in p p.", split_directive_strengthen),
    ("%context u (p.", split_directive_context),
    ("%context u p # p.", split_directive_context),
])
def test_directive_parse_error_reports_the_directive_position(text, split):
    parsed = parse_source("type p o.\n" + "\n" * 7 + "  " + text + "\n")
    (d,) = parsed.directives
    with pytest.raises(ParseError) as exc:
        split(d, parsed.program)
    assert (exc.value.line, exc.value.col) == (9, 3)
    assert str(exc.value) == f"9:3: {exc.value.msg}"


# -- the expression parser against the former recursive descent ---------------------
#
# The reference is the recursive descent the parser replaced, emitting the
# same postfix code: each function appends its construct's code and returns
# the position of its root.

def _ref_expr(ts, kinds, code):
    left = _ref_and(ts, kinds, code)
    if ts.peek().kind == "IMP":
        t = ts.next()
        _ref_expr(ts, kinds, code)
        code.append((IMP_NAME, t.line, t.col))
        return t.line, t.col
    return left


def _ref_and(ts, kinds, code):
    left = _ref_app(ts, kinds, code)
    if ts.peek().kind == "AMP":
        t = ts.next()
        _ref_and(ts, kinds, code)
        code.append((AND_NAME, t.line, t.col))
        return t.line, t.col
    return left


def _ref_app(ts, kinds, code):
    root = _ref_primary(ts, kinds, code)
    while ts.peek().kind in ("LPAREN", "IDENT") or (
            ts.peek().kind == "KW" and ts.peek().text in ("true", "pi")):
        _ref_primary(ts, kinds, code)
        code.append(("app", *root))
    return root


def _ref_binder(ts, kinds, code, head, name, quant):
    ann = None
    if ts.peek().kind == "COLON":
        ts.next()
        ann = _parse_tyexpr(ts, kinds)
    ts.expect("BACKSLASH", "'\\'")
    code.append(("bind", head.line, head.col, name, ann))
    _ref_expr(ts, kinds, code)
    code.append(("pi" if quant else "lam", head.line, head.col))
    return head.line, head.col


def _ref_primary(ts, kinds, code):
    t = ts.peek()
    if t.kind == "LPAREN":
        ts.next()
        root = _ref_expr(ts, kinds, code)
        ts.expect("RPAREN", "')'")
        return root
    if t.kind == "KW" and t.text == "true":
        ts.next()
        code.append(("true", t.line, t.col))
        return t.line, t.col
    if t.kind == "KW" and t.text == "pi":
        ts.next()
        name = ts.expect("IDENT", "a bound name")
        return _ref_binder(ts, kinds, code, t, name.text, True)
    if t.kind == "IDENT":
        ts.next()
        if ts.peek().kind in ("BACKSLASH", "COLON"):
            return _ref_binder(ts, kinds, code, t, t.text, False)
        code.append(("name", t.line, t.col, t.text))
        return t.line, t.col
    raise ParseError(f"expected a term, found {t.text or 'end of input'!r}",
                     t.line, t.col)


def _ref_parse(ts, kinds):
    code = []
    _ref_expr(ts, kinds, code)
    return code


def _outcome(parse, toks, start, kinds):
    ts = _TokenStream(toks)
    ts.pos = start
    try:
        code = parse(ts, kinds)
    except ParseError as e:
        return ("error", e.msg, e.line, e.col)
    return ("code", code, ts.pos)


_ALPHABET = "( ) p f x X => & \\ : i -> pi true . kind".split()


def test_expression_parser_matches_recursive_descent_on_random_tokens():
    rng = random.Random(20170525)
    seen = {"code": 0, "error": 0}
    for _ in range(20_000):
        src = " ".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 24)))
        toks = tokenize(src)
        got = _outcome(_parse_expr, toks, 0, {"i"})
        assert got == _outcome(_ref_parse, toks, 0, {"i"}), src
        seen[got[0]] += 1
    assert min(seen.values()) > 2_000, seen


def test_expression_parser_matches_recursive_descent_on_corpus_mutations():
    rng = random.Random(1705)
    for path in sorted(CORPUS.glob("*.hh")):
        toks = tokenize(path.read_text(encoding="utf-8"))
        kinds = {t.text for t in toks if t.kind == "IDENT"}
        for _ in range(60):
            mutated = mutate_tokens(rng, toks, rng.randint(1, 3))
            starts = [0] + [i + 1 for i, t in enumerate(mutated) if t.kind == "DOT"]
            for start in starts:
                assert _outcome(_parse_expr, mutated, start, kinds) == \
                    _outcome(_ref_parse, mutated, start, kinds), (path.name, start)


# -- nesting depth is bounded by memory, not by the recursion limit -------------------

DEEP = 10_000
_I = TyCon("i")


def _chain(op, width):
    """Code of `p op p op ... p`, right nested, each link `width` columns."""
    return ([("name", 1, 1 + width * k, "p") for k in range(DEEP + 1)]
            + [(op, 1, 3 + width * k) for k in reversed(range(DEEP))])


@pytest.mark.parametrize("src, want", [
    ("(" * DEEP + "p" + ")" * DEEP, [("name", 1, DEEP + 1, "p")]),
    ("p => " * DEEP + "p", _chain(IMP_NAME, 5)),
    ("p & " * DEEP + "p", _chain(AND_NAME, 4)),
    ("f x (" * DEEP + "p" + ")" * DEEP,
     [ins for k in range(DEEP)
      for ins in (("name", 1, 1 + 5 * k, "f"), ("name", 1, 3 + 5 * k, "x"), ("app", 1, 1 + 5 * k))]
     + [("name", 1, 5 * DEEP + 1, "p")]
     + [("app", 1, 1 + 5 * k) for k in reversed(range(DEEP))]),
    ("x \\ " * DEEP + "p",
     [("bind", 1, 1 + 4 * k, "x", None) for k in range(DEEP)]
     + [("name", 1, 4 * DEEP + 1, "p")]
     + [("lam", 1, 1 + 4 * k) for k in reversed(range(DEEP))]),
    ("pi x : i \\ " * DEEP + "p",
     [("bind", 1, 1 + 11 * k, "x", _I) for k in range(DEEP)]
     + [("name", 1, 11 * DEEP + 1, "p")]
     + [("pi", 1, 1 + 11 * k) for k in reversed(range(DEEP))]),
], ids=["parens", "imp", "and", "list", "lam", "pi"])
def test_deep_expressions_parse_without_recursion(src, want):
    ts = _TokenStream(tokenize(src))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code = _parse_expr(ts, {"i"})
    finally:
        sys.setrecursionlimit(limit)
    assert ts.peek().kind == "EOF"
    assert code == want


LONG = 3_000
DEEP_INPUTS = {
    "list": "append {} nil K".format("(cons 1 " * LONG + "nil" + ")" * LONG),
    "abs": "typeof ({}) T".format("abs b x\\ " * 1_000 + "x"),
    "and-right": " & ".join(["p"] * LONG),
    "and-left": "(" * LONG + "p" + " & p)" * LONG,
    "imp-right": " => ".join(["p"] * LONG),
    "imp-left": "(" * LONG + "p" + " => p)" * LONG,
}


@pytest.mark.parametrize("name", list(DEEP_INPUTS))
def test_deep_inputs_elaborate_at_the_default_limit(name):
    # each of these raised RecursionError in elaboration or in the grammar
    # checks; a conjunction is a goal but not a clause
    program = parse_program(corpus_text("append.hh") + corpus_text("typeof.hh")
                            + "type p o.\n")
    src = DEEP_INPUTS[name]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        goal = parse_goal(src, program)
        if name.startswith("and"):
            with pytest.raises(NotAClause):
                parse_clause(src, program)
        else:
            clause = parse_clause(src, program)
    finally:
        sys.setrecursionlimit(limit)
    assert goal.ty == TyCon("o")
    if not name.startswith("and"):
        assert normalize_clause(clause).head_pred in ("append", "typeof", "p")


# -- the tokenizer against the character loop it replaced ---------------------------

_REF_DIRECTIVE = re.compile(r"%(strengthen|context)(?![\w'])")
_REF_PUNCT = {"(": "LPAREN", ")": "RPAREN", ".": "DOT", ":": "COLON",
              "\\": "BACKSLASH", "&": "AMP", ",": "COMMA"}


def _ref_tokenize(src):
    """The former tokenizer: one character at a time, the column counted up."""
    toks, i, line, col, n = [], 0, 1, 1, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c.isspace():
            i, col = i + 1, col + 1
        elif c == "%":
            j = src.find("\n", i)
            j = n if j < 0 else j
            if _REF_DIRECTIVE.match(src[i:j]):
                toks.append(Token("DIRECTIVE", src[i:j], line, col))
            i = j
        elif src.startswith("=>", i) or src.startswith("->", i):
            toks.append(Token("IMP" if c == "=" else "ARROW", src[i:i + 2], line, col))
            i, col = i + 2, col + 2
        elif c in _REF_PUNCT:
            toks.append(Token(_REF_PUNCT[c], c, line, col))
            i, col = i + 1, col + 1
        elif c.isalpha() or c == "_" or c.isdigit():
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            kind = "KW" if src[i:j] in ("kind", "type", "pi", "true") else "IDENT"
            toks.append(Token(kind, src[i:j], line, col))
            i, col = j, col + j - i
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


def _tokens_or_error(tokenizer, src):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(src)]
    except ParseError as e:
        return ("error", e.msg, e.line, e.col)


def _workload_programs():
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import WORKLOADS
    texts = []
    for _, workload in sorted(WORKLOADS.items()):
        texts += sorted(workload(True).generate(random.Random(15), "w").files.values())
    return texts


_PIECES = (list("abzAZ_09 .():\\&,'") + ["é", "½", "²", "\t", "\r", "\n", "\n", "=", "-", "=>",
           "->", "$", "\x0b", "\xa0", " ", "kind", "type", "pi", "true", "o", "%",
           "% note", "%strengthen", "%strengthenx", "%context", "%context'"])


def test_tokenizer_matches_the_character_loop():
    sources = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.hh"))]
    sources += _workload_programs()
    rng = random.Random(1705)
    sources += ["".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30)))
                for _ in range(2_000)]
    seen = {"tokens": 0, "error": 0}
    for src in sources:
        got = _tokens_or_error(tokenize, src)
        assert got == _tokens_or_error(_ref_tokenize, src), repr(src)
        seen["error" if got[0] == "error" else "tokens"] += 1
    assert min(seen.values()) > 400, seen


@pytest.mark.parametrize("src, want", [
    ("½x", ("error", "unexpected character '½'", 1, 1)),     # numeric, neither alpha nor digit
    ("x½ ²y", [("IDENT", "x½", 1, 1), ("IDENT", "²y", 1, 4), ("EOF", "", 1, 6)]),
    ("p. % note", [("IDENT", "p", 1, 1), ("DOT", ".", 1, 2), ("EOF", "", 1, 4)]),
    ("a\r\n\tb", [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 2), ("EOF", "", 2, 3)]),
    ("%strengthenx p.\n%context c p.", [("DIRECTIVE", "%context c p.", 2, 1),
                                        ("EOF", "", 2, 1)]),
])
def test_tokenizer_cases(src, want):
    assert _tokens_or_error(tokenize, src) == want == _tokens_or_error(_ref_tokenize, src)


# -- type inference ----------------------------------------------------------------

def test_type_mismatch_names_resolved_types():
    with pytest.raises(ParseError) as e:
        parse_program("kind nat type. type f nat -> nat. type r nat -> o.\nr (x\\ f x).")
    assert (e.value.msg, e.value.line, e.value.col) == \
        ("type mismatch: nat vs nat -> nat", 2, 1)


def test_deep_types_at_the_default_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nested = parse_program("type f " + "(" * 1_000 + "o" + ")" * 1_000 + ".")
        program = parse_program("kind i type. type q (i -> o) -> o. type r o.")
        with pytest.raises(ParseError) as e:  # a 1,001-arrow type in the message
            parse_goal("q (y\\ " + "x\\ " * 1_000 + "r)", program)
    finally:
        sys.setrecursionlimit(limit)
    assert nested.sig.lookup("f") == TyCon("o")
    assert e.value.msg.startswith("type mismatch: o vs ?t2 -> ?t3 -> ")
    assert e.value.msg.endswith(" -> ?t1001 -> o")


# -- the facts the parser hands the analysis ------------------------------------------------
#
# `elaborate` builds each clause twice in one loop: its named form (implicit
# capitals free) and its closed form, with every App and Abs hashed as it is
# built.  `ClauseTable(program)` seeds a static clause's row from them.  Here
# both are held to what the former path computed from the closed clause alone.

_FACTS_SIG = ("kind i type.\ntype a i.\ntype b i.\ntype f i -> i.\ntype g (i -> i) -> i.\n"
              "type p i -> o.\ntype q i -> i -> o.\ntype r o.\ntype s (i -> o) -> o.\n")

_FACTS_CASES = [
    "p X => pi X : i \\ q X X1.",           # a spine pi whose hint is an implicit's name
    "p X => p X1 => pi X : i \\ pi X1 : i \\ q X X1.",
    "pi X1 : i \\ p X1 => q X X1.",
    "p X.",                                 # its key is the eta-contracted pi p
    "r => pi x : i \\ p x.",               # an eta-contracted pi p in the key's spine
    "s p => s (x\\ q x Y) => r.",
    "(p X & q X Y) & r => p Y.",            # & in antecedents
    "p ((x\\ f x) X) => q ((y\\ y) a) X.",  # beta-redexes
    "(pi x : i \\ p x => q x X) => (r => pi y : i \\ p y & r) => p X.",  # nested pi/=>
    "q (g (X\\ f X)) X => p X.",            # a lambda binder named like an implicit
    "r => p a.",                            # no implicit variable
    "r.",
]


def _fresh(t):
    """A copy of t with no hash stored (the terms here are shallow)."""
    if t.__class__ is App:
        return App(_fresh(t.fn), _fresh(t.arg))
    if t.__class__ is Abs:
        return Abs(t.arg_ty, _fresh(t.body), t.hint)
    return t


def _assert_hashed_as_filled(t):
    """Every App and Abs of t has its hash stored, equal to the one
    `_fill_hashes` gives a fresh copy."""
    copy = _fresh(t)
    hash(copy)
    todo = [(t, copy)]
    while todo:
        u, v = todo.pop()
        if u.__class__ is App:
            assert u._hash == v._hash
            todo += ((u.fn, v.fn), (u.arg, v.arg))
        elif u.__class__ is Abs:
            assert u._hash == v._hash
            todo.append((u.body, v.body))


def _assert_parser_facts(src):
    program = parse_source(src).program
    assert len(program.named) == len(program.clauses)
    table = ClauseTable(program)
    hh, abella = printer(), printer(ABELLA)
    for c, (implicit, named) in zip(program.clauses, program.named):
        again = quantify(implicit, named)
        assert c == again
        assert (hh(c), abella(c)) == (hh(again), abella(again))
        key, nc = table.get(c)
        want = normalize_clause(c)
        assert key == canonical_key(c)
        assert nc == want
        assert nc.binders == want.binders  # names as well as types
        assert [pp_formula(g) for g in (*nc.antecedents, nc.head)] == \
            [pp_formula(g) for g in (*want.antecedents, want.head)]
        _assert_hashed_as_filled(c)
    assert program.predicates == Program(program.sig, program.clauses).predicates


def _random_fact_term(rng, bound, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(["a", "b", "X", "Y", "X1", *bound])
    k = rng.randrange(4)
    inner = _random_fact_term(rng, bound, depth - 1)
    if k == 0:
        return f"(f {inner})"
    if k == 1:
        name = rng.choice(["x", "X", "Y"])
        return f"(g ({name}\\ {_random_fact_term(rng, [*bound, name], depth - 1)}))"
    return rng.choice([f"((x\\ f x) {inner})", f"((y\\ y) {inner})"])


def _random_fact_atom(rng, bound, depth):
    k = rng.randrange(5)
    if k == 0:
        return f"p {_random_fact_term(rng, bound, depth)}"
    if k == 1:
        return f"q {_random_fact_term(rng, bound, depth)} {_random_fact_term(rng, bound, depth)}"
    if k == 2:
        return "r"
    if k == 3:
        return "s p"
    return f"s (z\\ q z {_random_fact_term(rng, bound, depth)})"


def _random_fact_goal(rng, bound, depth):
    k = rng.randrange(6) if depth > 0 else 0
    if k <= 1:
        return _random_fact_atom(rng, bound, depth)
    if k == 2:
        return f"({_random_fact_goal(rng, bound, depth - 1)} & {_random_fact_goal(rng, bound, depth - 1)})"
    if k == 3:
        return f"({_random_fact_clause(rng, bound, depth - 1)} => {_random_fact_goal(rng, bound, depth - 1)})"
    if k == 4:
        name = rng.choice(["x", "X", "X1"])
        return f"(pi {name} : i \\ {_random_fact_goal(rng, [*bound, name], depth - 1)})"
    return "true"


def _random_fact_clause(rng, bound, depth):
    k = rng.randrange(4) if depth > 0 else 0
    if k <= 1:
        return _random_fact_atom(rng, bound, depth)
    if k == 2:
        return f"({_random_fact_goal(rng, bound, depth - 1)} => {_random_fact_clause(rng, bound, depth - 1)})"
    name = rng.choice(["x", "X", "X1", "Y"])
    return f"(pi {name} : i \\ {_random_fact_clause(rng, [*bound, name], depth - 1)})"


def test_parser_facts_match_the_closed_clause_on_chosen_shapes():
    for case in _FACTS_CASES:
        _assert_parser_facts(_FACTS_SIG + case + "\n")


def test_parser_facts_match_the_closed_clause_on_the_corpus():
    for path in sorted(CORPUS.glob("*.hh")):
        _assert_parser_facts(path.read_text(encoding="utf-8"))


def test_parser_facts_match_the_closed_clause_on_random_clauses():
    rng = random.Random(2017)
    parsed = 0
    for _ in range(600):
        clause = _random_fact_clause(rng, [], rng.randint(1, 4))
        try:
            parse_clause(clause, parse_program(_FACTS_SIG))
        except (ParseError, NonRigidAtomError, NotAClause):
            continue
        _assert_parser_facts(_FACTS_SIG + clause + ".\n")
        parsed += 1
    assert parsed > 300, parsed


def test_parse_and_analysis_rebuild_and_rehash_no_static_clause(monkeypatch):
    """`parse_source` and `analyze_program` on an append family close no
    clause with `abstract`, fill no hash, compute no canonical key and walk
    no clause's leaves for the predicates, at 48 clauses as at 192."""
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import family_program

    counts = {}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((terms, "abstract"), (formulas, "abstract"),
                         (terms, "_fill_hashes"), (analysis, "canonical_key"),
                         (formulas, "leaves")):
        counts[name] = 0
        counting(module, name)
    for n in (24, 96):
        src, deps = family_program(random.Random(n), n)
        ctx, got = analyze_program(parse_source(src).program)
        assert {p: set(names) for p, names in got.items()} == deps
        assert counts == dict.fromkeys(counts, 0), (n, counts)


def test_parse_source_fills_one_signature(monkeypatch):
    """`parse_source` writes each declaration into its own table, copying no
    signature per declaration, and still names a constant declared twice at
    its second declaration."""
    sys.path.insert(0, str(CORPUS.parent / "perfbench"))
    from workloads import family_program

    calls = []
    extend = terms.Signature.extend_const
    monkeypatch.setattr(terms.Signature, "extend_const",
                        lambda self, *a: calls.append(a) or extend(self, *a))
    src, deps = family_program(random.Random(48), 48)
    sig = parse_source(src).program.sig
    assert calls == [] and all(p in sig for p in deps)
    with pytest.raises(ParseError) as e:
        parse_source("kind i type.\ntype a i.\ntype  a i.\n")
    assert str(e.value) == "3:7: constant 'a' declared twice"
