"""Command-line interface: analyze, solve, strengthen, replay.

Exit codes are a stable contract: 0 success, 1 input error, 2 unknown
outcome under --strict, 3 dependency block.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from .abella import build_development, echo_mod, echo_sig, make_plan, render
from .analysis import (
    Blocked, analysis_report, analyze_program, check_strengthenable, render_report,
)
from .engine import Proved, Refuted, Sequent, render_trace, solve
from .errors import HarropError, ReplayRejected
from .formulas import printer
from .parser import (
    parse_clause, parse_goal, parse_source, split_directive_context,
    split_directive_strengthen,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2
EXIT_BLOCKED = 3

DEFAULT_DEPTH = 10
DEFAULT_TIMEOUT = 60.0


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise HarropError(f"cannot read {path}: {e}")


def cmd_analyze(args) -> int:
    parsed = parse_source(_read_source(args.file))
    ctx, deps = analyze_program(parsed.program)
    doc = analysis_report(ctx, deps)
    text = json.dumps(doc, indent=2) + "\n" if args.json else render_report(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    parsed = parse_source(_read_source(args.file))
    program = parsed.program
    goal = parse_goal(args.goal, program, mode="query")
    seq = Sequent(program.sig, program.clauses, (), goal)
    outcome = solve(seq, args.depth)
    if isinstance(outcome, Proved):  # rendered first: a failed render prints no verdict
        sys.stdout.write("Proved\n" + (render_trace(outcome.trace) if args.trace else ""))
        return EXIT_OK
    if isinstance(outcome, Refuted):
        print("Refuted")
        return EXIT_OK
    print("Unknown")
    return EXIT_UNKNOWN if args.strict else EXIT_OK


def _gather_request(args, parsed):
    """Build the strengthen request from directives and flags, directives
    winning: a flag is parsed only when no directive supplies its part."""
    program = parsed.program
    ctx_name, ctx_formulas, f_clause, g_goal = args.ctx_name, None, None, None
    directive_ctx: dict[str, list] = {}
    for d in parsed.directives:
        if d.kind == "context":
            name, clause = split_directive_context(d, program)
            directive_ctx.setdefault(name, []).append(clause)
    for d in parsed.directives:
        if d.kind == "strengthen":
            ctx_name, f_clause, g_goal = split_directive_strengthen(d, program)
            ctx_formulas = directive_ctx.get(ctx_name, ctx_formulas)
    if f_clause is None:  # no %strengthen directive
        if args.from_clause:
            f_clause = parse_clause(args.from_clause, program)
        if args.goal:
            g_goal = parse_goal(args.goal, program, mode="goal")
    if ctx_formulas is None:  # no %context formulas for the context named
        ctx_formulas = [parse_clause(c, program) for c in args.ctx or ()]
    if f_clause is None or g_goal is None:
        raise HarropError(
            "strengthen needs --from and --goal flags or a %strengthen directive")
    return ctx_name or "uctx", tuple(ctx_formulas), f_clause, g_goal


def cmd_strengthen(args) -> int:
    src_path = Path(args.file)
    parsed = parse_source(_read_source(args.file))
    program = parsed.program
    ctx_name, ctx_formulas, f_clause, g_goal = _gather_request(args, parsed)
    verdict = check_strengthenable(program, f_clause, g_goal, ctx_formulas)
    if isinstance(verdict, Blocked):
        print(f"blocked: {verdict.pred} may be depended on by the goal "
              f"(strengthening cannot be validated)", file=sys.stderr)
        if args.json:
            doc = analysis_report(verdict.contexts, verdict.dependencies, verdict)
            doc.update({"output": None, "replay": None})
            print(json.dumps(doc, indent=2))
        return EXIT_BLOCKED
    out_path = Path(args.out) if args.out else src_path.with_suffix(".thm")
    spec_name = src_path.stem
    plan = make_plan(verdict, f_clause, g_goal, ctx_name, ctx_formulas)
    text = render(build_development(program, plan, spec_name))
    out_path.write_text(text, encoding="utf-8")
    # companions are named after the Specification reference inside the .thm
    base = out_path.parent / spec_name
    Path(f"{base}.sig").write_text(echo_sig(program, spec_name), encoding="utf-8")
    Path(f"{base}.mod").write_text(echo_mod(program, spec_name, plan.clauses),
                                   encoding="utf-8")
    replay_status = None
    if args.replay:
        replay_status = _run_abella(out_path, args.abella, args.timeout)
    show = printer()
    report = {
        "verdict": "validated",
        "dependencies": list(plan.deps),
        "contexts": {a: [show(t) for t in plan.contexts[a]]
                     for a in plan.deps},
        "output": str(out_path),
        "replay": replay_status,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"validated: dependencies {', '.join(plan.deps)}")
        for a in plan.deps:
            print(f"  C({a}): {len(plan.contexts[a])} formula(s)")
        print(f"wrote {out_path}")
        if replay_status is not None:
            print(f"replay: {replay_status}")
    return EXIT_OK


def _abella_path(flag_value: str | None) -> str | None:
    env = os.environ.get("ABELLA")
    if env:
        return env if Path(env).exists() or shutil.which(env) else None
    if flag_value:
        return flag_value if Path(flag_value).exists() or shutil.which(flag_value) \
            else None
    return shutil.which("abella")


def _run_abella(thm_path: Path, flag_value: str | None, timeout: float) -> str:
    exe = _abella_path(flag_value)
    if exe is None:
        return "tool-absent"
    try:
        proc = subprocess.run(
            [exe, thm_path.name], cwd=str(thm_path.parent),
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "rejected: timeout"
    output = (proc.stdout or "") + (proc.stderr or "")
    error_lines = [ln for ln in output.splitlines() if "error" in ln.lower()]
    if proc.returncode == 0 and not error_lines and not proc.stderr:
        return "accepted"
    first = error_lines[0] if error_lines else f"exit code {proc.returncode}"
    return f"rejected: {first}"


def cmd_replay(args) -> int:
    status = _run_abella(Path(args.file), args.abella, args.timeout)
    print(status)
    if status.startswith("rejected"):
        raise ReplayRejected(status.split(": ", 1)[-1])
    return EXIT_OK


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on first use.  Only a
    process that calls `main` more than once (a caller that embeds the CLI,
    or a benchmark loop) gains from the cache: a one-shot `harrop` command
    builds the parser once either way."""
    ap = argparse.ArgumentParser(
        prog="harrop",
        description="Hereditary Harrop proof search, context/dependency "
                    "analysis, and Abella strengthening-lemma generation.")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="report dynamic contexts and dependencies")
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.add_argument("--out")
    a.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("solve", help="bounded proof search for a goal")
    s.add_argument("file")
    s.add_argument("goal")
    s.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--strict", action="store_true",
                   help="exit 2 when the outcome is Unknown")
    s.set_defaults(fn=cmd_solve)

    st = sub.add_parser("strengthen",
                        help="validate a strengthening lemma and emit its proof")
    st.add_argument("file")
    st.add_argument("--from", dest="from_clause",
                    help="clause to strengthen away (directive wins)")
    st.add_argument("--goal", help="target goal (directive wins)")
    st.add_argument("--ctx-name", default=None, help="user context name")
    st.add_argument("--ctx", action="append",
                    help="user context formula (repeatable)")
    st.add_argument("--out", help="output .thm path")
    st.add_argument("--json", action="store_true")
    st.add_argument("--replay", action="store_true",
                    help="replay the emitted file through Abella")
    st.add_argument("--abella", default=None, help="abella executable path")
    st.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    st.set_defaults(fn=cmd_strengthen)

    r = sub.add_parser("replay", help="check a .thm file with Abella")
    r.add_argument("file")
    r.add_argument("--abella", default=None)
    r.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    r.set_defaults(fn=cmd_replay)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReplayRejected as e:
        print(f"replay rejected: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (HarropError, OSError) as e:  # OSError: an output file not written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print(f"error: input nested too deeply for the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
