"""Byte check: run one set of `harrop` commands against two source trees and
print every difference in what they print, return and write.

    python tests/bytecheck.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src/` directories, for instance of a checkout of
the parent commit and of this one.  The commands are

- every distinct command of the four benchmark workloads at each of `SEEDS`,
  and the deep probes of `solve-lists`, generated by importing
  `perfbench/workloads.py` (read only) from this checkout;
- the corpus commands: `analyze` (text and `--json`) and `strengthen --json`
  of every corpus file, and a few `solve --trace` queries per program;
- `solve --trace` of `append` on lists of 163, 200 and 1,000 elements;
- `analyze --json`, `strengthen --json` and `solve --trace` on clauses of
  the shapes where a parsed clause's named and closed forms part ways
  (`SHAPES`): a spine `pi` named like an implicit variable, keys whose
  spine is an eta-contracted `pi p`, `&` and nested `pi`/`=>` antecedents,
  beta-redexes and clauses without implicit variables;
- `strengthen` from `p _A` to the goal `q _A` (`UNDERSCORE`): a goal
  variable with a leading underscore, the one name a binder of the
  formula to discard can share with the Abella text around it;
- `strengthen` from `t` to the goal `q` where C(q) holds `p E`
  (`E_VARIABLE`): a context formula's free variable that capitalizes to the
  `E` its membership lemma quantifies;
- `analyze --json` on append families of 150, 300 and 600 predicates, and
  `strengthen --json` on those of 150 and 300 (`STRENGTHEN_FAMILIES`): the
  goal is a predicate with the longest dependency chain, and the formula to
  discard is a predicate outside that chain (validated) or the chain's root
  (blocked), so the emitter backchains along the whole chain;
- `analyze`, `strengthen --json` and `solve` on inputs outside the clause
  and goal grammar (`REJECTED_CLAUSES`, `REJECTED_GOALS`): each is given as
  a program clause, a `--ctx` or `--from` clause, a `--goal`, a `solve`
  goal or a `%strengthen` goal, as its kind allows;
- `strengthen` with a malformed `--from`, `--goal` or `--ctx` on a copy of
  `corpus/guarded.hh` with a `%context` line (`OVERRIDDEN`): its directives
  supply each of these, so the flag is never parsed;
- `solve --trace` of `typeof` on a program with constants named `x1` and
  `x2` (`CLASH`): a closed abstraction is printed with its hint on one
  trace line and renamed on another, where a constant or an enclosing
  binder takes the hint.

Each tree runs every command in its own subprocess, in-process through
`harrop.cli.main` at the default recursion limit, in a fresh directory that
holds the input files, so relative paths print the same on both sides.  The
check compares the exit code, stdout, stderr, the class of an exception
escaping `main`, and the sha256 of every `.thm`, `.sig` and `.mod` file the
command wrote.  It prints one line per difference and exits 1 if there is
any.  This file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRITTEN = (".thm", ".sig", ".mod")
KEEP_TEXT = 1 << 16  # longer outputs are compared by digest only

CORPUS_SOLVES = {
    "append.hh": ["append (cons 1 nil) (cons 2 nil) L", "append L L (cons 1 nil)",
                  "append L M (cons 1 (cons 2 nil))", "append nil nil (cons 1 nil)",
                  "true"],
    "typeof.hh": ["typeof (abs b (x\\ x)) T", "typeof (abs b (x\\ abs b (y\\ x))) T",
                  "typeof (abs b (x\\ x)) (arr b (arr b b))",
                  "typeof (abs (arr b b) (f\\ abs b (x\\ app f x))) T",
                  "pi y\\ typeof y b => typeof (app (abs b (x\\ x)) y) T"],
    "list_minus.hh": ["list_minus X (cons X nil) L", "list_minus X L (cons X nil)"],
    "typeof_append.hh": ["typeof (abs b (x\\ x)) T", "append L M nil"],
    "guarded.hh": ["g", "b => a"],
    "branching.hh": ["q", "(s => r) => p"],
}
SEEDS = (1234, 7)
APPEND_LENGTHS = (163, 200, 1000)
FAMILY_SIZES = (150, 300, 600)
STRENGTHEN_FAMILIES = (150, 300)
SHAPES = """kind i type.
type a i. type b i. type f i -> i. type g (i -> i) -> i.
type p i -> o. type q i -> i -> o. type r o. type s (i -> o) -> o. type u i -> o.
p X => pi X : i \\ q X X1.
p X => p X1 => pi X : i \\ pi X1 : i \\ q X X1.
pi X1 : i \\ p X1 => q X X1.
p X.
r => pi x : i \\ p x.
s p => s (x\\ q x Y) => r.
(p X & q X Y) & r => p Y.
p ((x\\ f x) X) => q ((y\\ y) a) X.
(pi x : i \\ p x => q x X) => (r => pi y : i \\ p y & r) => p X.
q (g (X\\ f X)) X => p X.
r => p a.
r.
"""
SHAPE_COMMANDS = [
    ["analyze", "shapes.hh", "--json"],
    ["strengthen", "shapes.hh", "--json", "--from", "u a", "--goal", "p a"],
    ["strengthen", "shapes.hh", "--json", "--from", "u X", "--goal", "q a X",
     "--ctx", "pi x : i \\ p x => u x"],
    ["strengthen", "shapes.hh", "--json", "--from", "r", "--goal", "p X"],
    *(["solve", "shapes.hh", goal, "--trace"]
      for goal in ("p a", "q a b", "r", "s p", "p (f a)", "pi x : i \\ q x x")),
]
UNDERSCORE = "kind i type. type p i -> o. type q i -> o. q X.\n"
UNDERSCORE_COMMAND = ["strengthen", "u.hh", "--from", "p _A", "--goal", "q _A"]
E_VARIABLE = ("kind i type. type p i -> o. type q o. type r o. type t o.\n"
              "(pi e : i \\ p e => q) => r.\n")
E_VARIABLE_COMMAND = ["strengthen", "e.hh", "--from", "t", "--goal", "q"]

CLASH = """kind ty type. kind tm type.
type b ty. type arr ty -> ty -> ty.
type app tm -> tm -> tm. type abs ty -> (tm -> tm) -> tm. type typeof tm -> ty -> o.
type x1 tm. type x2 tm.
typeof M1 (arr T1 T2) => typeof M2 T1 => typeof (app M1 M2) T2.
(pi x \\ typeof x T1 => typeof (M x) T2) => typeof (abs T1 M) (arr T1 T2).
typeof x1 b. typeof x2 (arr b b).
"""
CLASH_COMMANDS = [["solve", "clash.hh", goal, "--trace", "--depth", "30"] for goal in (
    "typeof (app x2 (app (abs b (x1\\ x1)) x1)) T",
    "typeof (app (abs (arr b b) (x2\\ app x2 x1)) x2) T",
    "typeof (abs b (y\\ abs b (x\\ x))) T",
    "typeof (app (abs (arr b b) (x1\\ abs b (x2\\ app x1 x2))) x2) T",
    "typeof (abs (arr b b) (x\\ app x (app (abs b (x1\\ x1)) x1))) T",
    "typeof (abs b (x1\\ abs (arr b b) (x2\\ app (abs b (x\\ app x2 x)) x1))) T",
    "typeof (abs b (x\\ abs b (x1\\ app x2 (app (abs b (x2\\ x2)) x1)))) T",
)]

# every one is rejected by the parser's grammar check, so search and the
# analysis never meet it
GATE = "kind i type. type a i. type b o. type c o. type q o.\nq.\n"
REJECTED_CLAUSES = ["true", "b & c", "pi P\\ P", "(pi F\\ F a) => q"]
REJECTED_GOALS = ["X", "pi F\\ F a"]

# the %strengthen directive supplies F and G, and the %context line gctx's
# formulas, so none of these malformed flags is read
OVERRIDDEN = "%context gctx b.\n"
OVERRIDDEN_COMMANDS = [["strengthen", "overridden.hh", flag, "("]
                       for flag in ("--from", "--goal", "--ctx")]


def _rejected() -> tuple[dict[str, str], list[list[str]]]:
    files = {"gate/ok.hh": GATE}
    argvs = []
    for i, clause in enumerate(REJECTED_CLAUSES):
        path = f"gate/clause{i}.hh"
        files[path] = f"{GATE}{clause}.\n"
        argvs += [["analyze", path], ["solve", path, "q"],
                  ["strengthen", path, "--json", "--from", "q", "--goal", "q"],
                  ["strengthen", "gate/ok.hh", "--json", "--from", "q", "--goal", "q",
                   "--ctx", clause],
                  ["strengthen", "gate/ok.hh", "--json", "--from", clause, "--goal", "q"]]
    for i, goal in enumerate(REJECTED_GOALS):
        path = f"gate/goal{i}.hh"
        files[path] = f"{GATE}%strengthen u from q in {goal}.\n"
        argvs += [["analyze", path], ["strengthen", path, "--json"],
                  ["solve", "gate/ok.hh", goal],
                  ["strengthen", "gate/ok.hh", "--json", "--from", "q", "--goal", goal]]
    return files, argvs


def commands() -> tuple[dict[str, str], list[list[str]]]:
    """The input files (relative path -> text) and the argv of each command."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # noqa: E402  (read only: generators and their sizes)

    files: dict[str, str] = {}
    argvs: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    for seed in SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(False)
            made = [workload.generate(random.Random(seed), f"w{seed}/{name}")]
            if hasattr(workload, "probes"):
                made.append(workload.probes(random.Random(seed), f"w{seed}/probes"))
            for inputs in made:
                files.update(inputs.files)
                for cmd in inputs.commands:
                    if tuple(cmd.argv) not in seen:
                        seen.add(tuple(cmd.argv))
                        argvs.append(cmd.argv)
    for path in sorted((ROOT / "corpus").glob("*.hh")):
        files[f"corpus/{path.name}"] = path.read_text(encoding="utf-8")
        argvs += [["analyze", f"corpus/{path.name}"],
                  ["analyze", f"corpus/{path.name}", "--json"],
                  ["strengthen", f"corpus/{path.name}", "--json"]]
        argvs += [["solve", f"corpus/{path.name}", goal, "--trace"]
                  for goal in CORPUS_SOLVES.get(path.name, [])]
    files["lists.hh"] = "\n".join(workloads.LIST_HEADER + workloads.APPEND_CLAUSES) + "\n"
    for n in APPEND_LENGTHS:
        xs = workloads.list_text([workloads.NATS[i % 10] for i in range(n)])
        argvs.append(["solve", "lists.hh", f"append {xs} (cons n0 nil) L", "--trace",
                      "--depth", str(2 * n + 8)])
    files["shapes.hh"] = SHAPES
    argvs += SHAPE_COMMANDS
    files["u.hh"] = UNDERSCORE
    argvs.append(UNDERSCORE_COMMAND)
    files["e.hh"] = E_VARIABLE
    argvs.append(E_VARIABLE_COMMAND)
    files["overridden.hh"] = files["corpus/guarded.hh"] + OVERRIDDEN
    argvs += OVERRIDDEN_COMMANDS
    files["clash.hh"] = CLASH
    argvs += CLASH_COMMANDS
    for n in FAMILY_SIZES:
        path = f"family_{n}.hh"
        files[path], deps = workloads.family_program(random.Random(1), n)
        argvs.append(["analyze", path, "--json"])
        if n in STRENGTHEN_FAMILIES:
            goal = max(deps, key=lambda a: len(deps[a]))
            outside = next(a for a in deps if a not in deps[goal])
            root = next(a for a in deps[goal] if len(deps[a]) == 1)
            argvs += [["strengthen", path, "--json", "--from", f"{f} nil nil nil",
                       "--goal", f"{goal} L1 L2 L3"] for f in (outside, root)]
    rejected_files, rejected_argvs = _rejected()
    files.update(rejected_files)
    return files, argvs + rejected_argvs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _output_dirs(argv: list[str]) -> set[Path]:
    """Where a command may write: `strengthen` writes next to its input or
    next to `--out`, and `analyze --out` writes its report."""
    dirs = set()
    if argv[0] == "strengthen":
        dirs.add(Path(argv[1]).parent)
    if "--out" in argv:
        dirs.add(Path(argv[argv.index("--out") + 1]).parent)
    return {d for d in dirs if d.is_dir()}


def run_tree(src: str, spec_path: str, out_path: str) -> None:
    """In a subprocess: run every command of the spec against src."""
    sys.path.insert(0, os.path.abspath(src))
    from harrop.cli import main

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    results = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for path, text in spec["files"].items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")
        for argv in spec["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, ""
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(list(argv))
                except (Exception, SystemExit) as e:  # reported, not fatal
                    error = type(e).__name__
            written = {}
            for p in sorted(p for d in _output_dirs(argv) for p in d.iterdir()):
                if p.suffix in WRITTEN:
                    written[p.as_posix()] = _digest(p.read_text(encoding="utf-8"))
                    p.unlink()
            results.append({"rc": rc, "error": error, "written": written,
                            **{k: v.getvalue() for k, v in (("stdout", out), ("stderr", err))}})
    for r in results:
        for key in ("stdout", "stderr"):
            if len(r[key]) > KEEP_TEXT:
                r[key] = f"<{len(r[key])} characters, sha256 {_digest(r[key])}>"
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def _first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x[:100]!r} != {y[:100]!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--run", nargs=2, metavar=("SPEC", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:  # the child: old_src names the one tree to run
        run_tree(args.old_src, *args.run)
        return 0
    files, argvs = commands()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps({"files": files, "argvs": argvs}), encoding="utf-8")
        sides = []
        for i, src in enumerate((args.old_src, args.new_src)):
            out = Path(tmp, f"out{i}.json")
            subprocess.run([sys.executable, __file__, src, src, "--run", str(spec), str(out)],
                           check=True)
            sides.append(json.loads(out.read_text(encoding="utf-8")))
    differences = 0
    for argv, old, new in zip(argvs, *sides):
        for key in ("rc", "error", "stdout", "stderr", "written"):
            if old[key] != new[key]:
                differences += 1
                what = (_first_difference(old[key], new[key])
                        if key in ("stdout", "stderr") else f"{old[key]!r} != {new[key]!r}")
                shown = " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv)
                print(f"DIFF {key}: {shown}\n    {what}")
    print(f"{len(argvs)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
