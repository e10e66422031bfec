import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from harrop.cli import build_arg_parser, main
from harrop.parser import tokenize

from conftest import CORPUS, GOLDEN
from genutil import mutate_tokens, source_text


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_branching(capsys):
    code, out, _ = run(["analyze", CORPUS / "branching.hh", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dependencies"]["q"] == ["q", "p", "r", "s"]
    assert doc["dependencies"]["s"] == ["s"]
    assert doc["contexts"]["p"] == ["s => r", "r => p"]
    assert doc["verdict"] is None


def test_analyze_empty_program(tmp_path, capsys):
    f = tmp_path / "empty.hh"
    f.write_text("")
    code, out, _ = run(["analyze", f], capsys)
    assert code == 0


def test_analyze_unknown_constant(tmp_path, capsys):
    f = tmp_path / "bad.hh"
    f.write_text("type p o.\nmystery => p.\n")
    code, _, err = run(["analyze", f], capsys)
    assert code == 1
    assert "mystery" in err


def test_grammar_errors_show_the_head_in_hh_syntax(tmp_path, capsys):
    decls = "kind i type. type a i. type p i -> o.\n"
    for clause, head in (("pi P\\ P", "P"), ("(x\\ p x) a", "x\\ p x")):
        f = tmp_path / "bad.hh"
        f.write_text(f"{decls}{clause}.\n")
        code, _, err = run(["analyze", f], capsys)
        assert (code, err) == (1, f"error: formula head is not a predicate constant: {head}\n")
    f.write_text(f"{decls}p a.\n")
    code, _, err = run(["solve", f, "X"], capsys)
    assert (code, err) == (1, "error: formula head is not a predicate constant: ?X\n")


def test_solve_typeof(capsys):
    code, out, _ = run(["solve", CORPUS / "typeof.hh",
                        "typeof (abs b (x\\ x)) (arr b b)", "--depth", "8",
                        "--trace"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "Proved"
    assert "focus" in out and "piR" in out


def test_solve_true(capsys):
    code, out, _ = run(["solve", CORPUS / "append.hh", "true"], capsys)
    assert code == 0
    assert "Proved" in out


def test_solve_append_refuted(capsys):
    code, out, _ = run(["solve", CORPUS / "append.hh",
                        "append nil nil (cons 1 nil)", "--depth", "6"], capsys)
    assert code == 0
    assert "Refuted" in out


def test_solve_strict_unknown(tmp_path, capsys):
    f = tmp_path / "loop.hh"
    f.write_text("type p o.\np => p.\n")
    code, out, _ = run(["solve", f, "p", "--strict"], capsys)
    assert code == 2
    assert "Unknown" in out


def test_an_answer_that_cannot_be_finalized_is_unknown(tmp_path, capsys):
    # p X => q proves q once p X is, but no term of type t exists to name X
    f = tmp_path / "fin.hh"
    f.write_text("kind t type. type p t -> o. type q o. p X. p X => q.\n")
    assert run(["solve", f, "q", "--trace"], capsys) == (0, "Unknown\n", "")
    assert run(["solve", f, "q", "--strict"], capsys) == (2, "Unknown\n", "")
    f.write_text("kind t type. type c t. type p t -> o. type q o. p X. p X => q.\n")
    code, out, _ = run(["solve", f, "q", "--trace"], capsys)
    assert code == 0 and out.splitlines()[:3] == [
        "Proved", "focus [pi X : t \\ p X => q] |- q", "  piL [pi X : t \\ p X => q] |- q  <c>"]


def test_solve_parse_error(capsys):
    code, _, err = run(["solve", CORPUS / "append.hh", "append nil ("], capsys)
    assert code == 1


def test_strengthen_writes_development(tmp_path, capsys):
    out_file = tmp_path / "dev.thm"
    code, out, _ = run(["strengthen", CORPUS / "list_minus.hh",
                        "--out", out_file, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "validated"
    assert doc["dependencies"] == ["list_minus"]
    assert doc["output"] == str(out_file)
    assert doc["replay"] is None
    assert set(doc) == {"verdict", "dependencies", "contexts", "output", "replay"}
    assert out_file.read_text() == (GOLDEN / "list_minus.thm").read_text()
    assert (tmp_path / "list_minus.sig").exists()
    assert (tmp_path / "list_minus.mod").exists()


def test_strengthen_flags_without_directive(tmp_path, capsys):
    prog = (CORPUS / "guarded.hh").read_text()
    prog = "\n".join(ln for ln in prog.splitlines()
                     if not ln.startswith("%strengthen"))
    f = tmp_path / "g.hh"
    f.write_text(prog)
    code, out, _ = run(["strengthen", f, "--from", "f => b", "--goal", "g",
                        "--ctx-name", "myctx", "--out", tmp_path / "g.thm"], capsys)
    assert code == 0
    text = (tmp_path / "g.thm").read_text()
    assert "Define myctx : olist -> prop" in text
    assert "stren_g_from_b" in text


def test_strengthen_blocked_exit_code(tmp_path, capsys):
    code, _, err = run(["strengthen", CORPUS / "direct_use.hh",
                        "--from", "f", "--goal", "g",
                        "--out", tmp_path / "x.thm"], capsys)
    assert code == 3
    assert "f" in err


def test_strengthen_goal_whose_head_is_in_no_clause(tmp_path, capsys):
    # p1 heads the goal but occurs in no clause: it still has a context cell
    f = tmp_path / "k.hh"
    f.write_text("type p0 o.\ntype p1 o.\ntype p5 o.\np0.\n")
    code, out, _ = run(["strengthen", f, "--from", "p5", "--goal", "p1"], capsys)
    assert code == 0 and out.endswith(f"wrote {tmp_path / 'k.thm'}\n")
    assert "Theorem stren_p1_from_p5 :" in (tmp_path / "k.thm").read_text()
    code, out, _ = run(["strengthen", f, "--from", "p5", "--goal", "p0 => p1", "--json",
                        "--out", tmp_path / "k2.thm"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dependencies"] == ["p1"] and doc["contexts"] == {"p1": ["p0"]}
    code, out, _ = run(["strengthen", f, "--from", "p1", "--goal", "p1", "--json"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["contexts"]["p1"] == [] and doc["dependencies"]["p1"] == ["p1"]


def test_context_directive_wins_over_the_ctx_flag(tmp_path, capsys):
    # the %strengthen directive names gctx, so its %context formulas are
    # the user context, whatever --ctx says
    f = tmp_path / "g.hh"
    f.write_text((CORPUS / "guarded.hh").read_text() + "%context gctx b.\n")
    texts = []
    for extra in ([], ["--ctx", "f"]):
        out_file = tmp_path / f"g{len(texts)}.thm"
        code, _, _ = run(["strengthen", f, "--out", out_file, *extra], capsys)
        assert code == 0
        texts.append(out_file.read_text())
    assert "Define gctx : olist -> prop by\n  gctx nil;\n  gctx (b :: L) := gctx L.\n" \
        in texts[0]
    assert texts[1] == texts[0]


def test_a_flag_a_directive_supplies_is_not_parsed(tmp_path, capsys):
    # the %strengthen directive supplies F and G and its %context line the
    # context, so a malformed --from, --goal or --ctx is never read and the
    # development is the one written without it; with no %context line,
    # --ctx is the context and a malformed one still ends the request
    f = tmp_path / "g.hh"
    f.write_text((CORPUS / "guarded.hh").read_text() + "%context gctx b.\n")
    out_file = tmp_path / "g.thm"
    assert run(["strengthen", f, "--out", out_file], capsys)[0] == 0
    want = out_file.read_bytes()
    for flag in ("--from", "--goal", "--ctx"):
        out_file.unlink()
        code, _, err = run(["strengthen", f, flag, "(", "--out", out_file], capsys)
        assert (code, err) == (0, "") and out_file.read_bytes() == want, flag
    code, _, err = run(["strengthen", CORPUS / "guarded.hh", "--ctx", "(",
                        "--out", tmp_path / "x.thm"], capsys)
    assert (code, err) == (1, "error: 1:2: expected a term, found 'end of input'\n")


def test_strengthen_missing_request(tmp_path, capsys):
    code, _, err = run(["strengthen", CORPUS / "branching.hh",
                        "--out", tmp_path / "x.thm"], capsys)
    assert code == 1


def test_replay_tool_absent(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELLA", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))  # no abella anywhere
    code, out, _ = run(["replay", GOLDEN / "list_minus.thm"], capsys)
    assert code == 0
    assert "tool-absent" in out


def test_replay_flag_naming_nothing_is_tool_absent(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELLA", raising=False)
    code, out, _ = run(["replay", GOLDEN / "list_minus.thm",
                        "--abella", tmp_path / "no-such-abella"], capsys)
    assert (code, out) == (0, "tool-absent\n")


def test_replay_env_overrides_flag(tmp_path, capsys, monkeypatch):
    # a fake abella that accepts everything; ABELLA must win over --abella
    fake = tmp_path / "fakeabella"
    fake.write_text("#!/bin/sh\nexit 0\n")
    fake.chmod(0o755)
    monkeypatch.setenv("ABELLA", str(fake))
    code, out, _ = run(["replay", GOLDEN / "list_minus.thm",
                        "--abella", "/nonexistent/abella"], capsys)
    assert code == 0
    assert "accepted" in out


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    code, out, err = run(["analyze", tmp_path / "absent.hh"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {tmp_path / 'absent.hh'}: ")


def test_strengthen_replay_without_abella_is_tool_absent(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELLA", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))  # no abella anywhere
    f = tmp_path / "s.hh"
    f.write_text("type p o. type q o. q.\n")
    code, out, _ = run(["strengthen", f, "--from", "p", "--goal", "q", "--replay"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "replay: tool-absent"


def _fake_abella(tmp_path, script):
    fake = tmp_path / "fakeabella"
    fake.write_text(f"#!/bin/sh\n{script}\n")
    fake.chmod(0o755)
    return fake


def test_replay_flag_names_the_executable_without_the_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELLA", raising=False)
    fake = _fake_abella(tmp_path, "exit 0")
    code, out, _ = run(["replay", GOLDEN / "list_minus.thm", "--abella", fake], capsys)
    assert (code, out) == (0, "accepted\n")


def test_replay_past_its_timeout_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELLA", raising=False)
    fake = _fake_abella(tmp_path, "exec sleep 10")  # exec: the kill reaches the sleep
    code, out, err = run(["replay", GOLDEN / "list_minus.thm", "--abella", fake,
                          "--timeout", "0.2"], capsys)
    assert (code, out, err) == (1, "rejected: timeout\n", "replay rejected: timeout\n")


def test_solve_strict_repeated_pattern_argument_is_unknown(tmp_path, capsys):
    # X x x repeats its argument, so binding it is outside the pattern fragment
    f = tmp_path / "t.hh"
    f.write_text("kind i type. type a i. type f i -> i. type q i -> o. q (f a).\n")
    assert run(["solve", "--strict", f, "pi x : i \\ q (X x x)"], capsys) == (
        2, "Unknown\n", "")


def test_replay_rejected(tmp_path, capsys, monkeypatch):
    fake = tmp_path / "fakeabella"
    fake.write_text("#!/bin/sh\necho 'Typing error.' ; exit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("ABELLA", str(fake))
    code, out, err = run(["replay", GOLDEN / "list_minus.thm"], capsys)
    assert code == 1
    assert "rejected" in out or "rejected" in err


def test_comment_starting_with_context_word_is_skipped(tmp_path, capsys):
    f = tmp_path / "c.hh"
    f.write_text("type p o.\n%contexts are computed below\np.\n")
    code, _, err = run(["analyze", f], capsys)
    assert (code, err) == (0, "")


def test_comment_starting_with_strengthen_word_is_skipped(tmp_path, capsys):
    prog = "\n".join(ln for ln in (CORPUS / "guarded.hh").read_text().splitlines()
                     if not ln.startswith("%strengthen"))
    f = tmp_path / "g.hh"
    f.write_text(prog + "\n%strengthening is not needed here.\n")
    code, _, err = run(["strengthen", f, "--from", "f => b", "--goal", "g",
                        "--out", tmp_path / "g.thm"], capsys)
    assert (code, err) == (0, "")


LISTS = "\n".join(
    ["kind nat type.", "kind list type."] + [f"type n{i} nat." for i in range(10)]
    + ["type nil list.", "type cons nat -> list -> list.",
       "type append list -> list -> list -> o.",
       "append nil L L.", "append L1 L2 L3 => append (cons X L1) L2 (cons X L3)."]) + "\n"


def _list_text(xs):
    return "".join(f"(cons {x} " for x in xs) + "nil" + ")" * len(xs)


def test_append_on_a_long_list_literal_is_refuted(tmp_path, capsys):
    # the benchmark's deep probe: wrong at the first element, so refuted at once
    rng = random.Random(200)
    xs = [f"n{rng.randrange(10)}" for _ in range(200)]
    zs = ["n1" if xs[0] == "n0" else "n0"] + xs[1:] + ["n0"]
    f = tmp_path / "lists.hh"
    f.write_text(LISTS)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = run(["solve", f, f"append {_list_text(xs)} (cons n0 nil) {_list_text(zs)}",
                      "--depth", "408"], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert result == (0, "Refuted\n", "")


def test_append_on_a_1200_element_list_is_proved_at_the_default_limit(tmp_path, capsys):
    # search runs on a goal list and a stack of choice points, so a depth
    # bound that lets it follow the whole list takes it to the answer
    f = tmp_path / "lists.hh"
    f.write_text(LISTS)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = run(["solve", f, f"append {_list_text(['n1'] * 1200)} nil K",
                      "--depth", "2500"], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert result == (0, "Proved\n", "")


def test_too_deep_input_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    # no stage recurses per nesting level now; should one overflow, the CLI
    # reports that as an input error
    def overflow(seq, depth):
        raise RecursionError

    monkeypatch.setattr("harrop.cli.solve", overflow)
    f = tmp_path / "lists.hh"
    f.write_text(LISTS)
    code, out, err = run(["solve", f, "append nil nil K"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"recursion limit ({sys.getrecursionlimit()})" in err


def test_deep_fact_is_analyzed_and_solved_at_the_default_limit(tmp_path, capsys):
    # a 3,000-element list in a program clause: parsing, elaboration, the
    # grammar checks, the analysis and search all take it at a limit of 1000
    f = tmp_path / "long.hh"
    f.write_text(LISTS + "type long list -> o.\n"
                 f"long {_list_text(['n1'] * 3000)}.\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        analyzed = run(["analyze", f, "--json"], capsys)
        solved = run(["solve", f, "long nil"], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert analyzed[0] == 0 and analyzed[2] == ""
    assert json.loads(analyzed[1])["dependencies"]["long"] == ["long"]
    assert solved == (0, "Refuted\n", "")


def test_seed_reaches_a_predicate_that_only_heads_a_seed(tmp_path, capsys):
    # p4 occurs in no program clause; it heads the user-context formula
    # p5 => p4, so it is a context constraint's source and gets the seeds
    f = tmp_path / "k.hh"
    f.write_text("type p0 o. type p1 o. type p4 o. type p5 o. p0.\n")
    code, out, _ = run(["strengthen", f, "--from", "p1", "--goal", "p1",
                        "--ctx", "p5 => p4", "--json"], capsys)
    assert code == 3
    assert json.loads(out)["contexts"] == {p: ["p5 => p4"] for p in ("p0", "p5", "p4", "p1")}


@pytest.mark.parametrize("command", ["analyze", "strengthen"])
def test_missing_output_directory_ends_in_one_error_line(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out.thm"
    code, stdout, err = run([command, CORPUS / "guarded.hh", "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(out) in err


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.hh")), ids=lambda p: p.name)
def test_cli_ends_cleanly_on_mutated_corpus(path, tmp_path, capsys):
    """Every mutated input ends in an exit code, never in a traceback."""
    rng = random.Random(path.name)
    toks = tokenize(path.read_text(encoding="utf-8"))
    for k in range(16):
        f = tmp_path / f"m{k}.hh"
        f.write_text(source_text(mutate_tokens(rng, toks, rng.randint(1, 3))))
        for argv in (["analyze", f, "--json"], ["solve", f, "true"],
                     ["strengthen", f, "--json", "--out", tmp_path / f"m{k}.thm"]):
            code, _, _ = run(argv, capsys)
            assert code in (0, 1, 2, 3), (argv, f.read_text())


def test_failed_trace_render_prints_no_verdict(tmp_path, capsys, monkeypatch):
    # the trace is rendered before the verdict is printed, so a render that
    # fails leaves nothing on stdout
    def fail(trace):
        raise RecursionError

    monkeypatch.setattr("harrop.cli.render_trace", fail)
    f = tmp_path / "lists.hh"
    f.write_text(LISTS)
    code, out, err = run(["solve", f, "append nil nil L", "--trace"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# a predicate `deep` over a deep term, a fact for that term, and a clause that
# uses the fact: (the type of `deep`'s argument, the term's source text)
DEEP_INPUTS = {
    **{f"list-{n}": ("list", _list_text([f"n{i % 10}" for i in range(n)]))
       for n in (200, 1000, 3000)},
    "abs-1000": ("(" + "o -> " * 1000 + "o)", "(" + "x\\ " * 1000 + "true)"),
    "imp-1000": ("o", "(" + "ok => " * 1000 + "ok)"),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_inputs_end_in_an_outcome_at_the_default_limit(name, tmp_path, capsys):
    # parsing, the analysis, search, both printers and the emitter take each
    # input at a limit of 1000, so no run reaches the RecursionError stopgap
    ty, text = DEEP_INPUTS[name]
    f = tmp_path / "deep.hh"
    f.write_text(LISTS + f"type deep {ty} -> o.\ntype ok o.\n"
                 f"deep {text}.\ndeep X => ok.\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        runs = [run(["analyze", f, "--json"], capsys),
                run(["solve", f, f"deep {text}", "--trace"], capsys),
                run(["solve", f, "ok", "--trace"], capsys),
                run(["strengthen", f, "--from", "ok", "--goal", f"deep {text}", "--json",
                     "--out", tmp_path / "deep.thm"], capsys)]
    finally:
        sys.setrecursionlimit(limit)
    assert [(code, err) for code, _, err in runs] == [(0, "")] * 4
    assert runs[1][1].startswith("Proved\n") and runs[2][1].startswith("Proved\n")
    assert json.loads(runs[3][1])["verdict"] == "validated"
    mod = (tmp_path / "deep.mod").read_text()
    assert mod.endswith("ok :- deep X.\n")
    if not name.startswith("abs"):  # the same text in both syntaxes, binders aside
        assert text in runs[1][1] and text in runs[2][1] and f"\ndeep {text}.\n" in mod


def test_one_argument_parser_serves_every_command(tmp_path, capsys):
    """One process's main runs each command in turn with the one argument
    parser it builds, and each prints and writes what a fresh process does."""
    commands = [
        ["analyze", CORPUS / "branching.hh", "--json"],
        ["solve", CORPUS / "append.hh", "append (cons 1 nil) (cons 2 nil) L", "--trace"],
        ["strengthen", tmp_path / "guarded.hh", "--json", "--ctx", "f", "--ctx", "a"],
        ["solve", CORPUS / "append.hh", "append L L (cons 1 nil)", "--strict"],
        ["strengthen", tmp_path / "guarded.hh"],
        ["analyze", CORPUS / "typeof.hh"],
    ]
    (tmp_path / "guarded.hh").write_text((CORPUS / "guarded.hh").read_text())
    thm = tmp_path / "guarded.thm"
    ran = []
    for argv in commands:
        ran.append((run(argv, capsys), thm.read_text() if thm.exists() else None))
        thm.unlink(missing_ok=True)
    assert build_arg_parser() is build_arg_parser()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    for argv, (got, written) in zip(commands, ran):
        fresh = subprocess.run([sys.executable, "-m", "harrop.cli", *map(str, argv)],
                               capture_output=True, text=True, env=env)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert written == (thm.read_text() if thm.exists() else None), argv
        thm.unlink(missing_ok=True)
    assert [got[0] for got, _ in ran] == [0, 0, 0, 0, 0, 0]
    assert ran[2][1] is not None and ran[4][1] is not None


def test_deep_types_are_analyzed_and_solved_at_the_default_limit(tmp_path, capsys):
    # a 1,001-arrow type: comparing, hashing and printing types walk explicit stacks
    lam = "x\\ " * 1000 + "r"
    f = tmp_path / "deep.hh"
    f.write_text("kind i type. type q (" + "i -> " * 1000 + "o) -> o. type r o.\n"
                 f"q ({lam}).\nr => q ({lam}).\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        analyzed = run(["analyze", f, "--json"], capsys)
        solved = run(["solve", f, f"q ({lam})"], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert analyzed[0] == 0 and json.loads(analyzed[1])["dependencies"]["q"] == ["q", "r"]
    assert solved == (0, "Proved\n", "")
