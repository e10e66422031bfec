"""Benchmark of the `harrop` command-line tool on generated `.hh` inputs.

    python3 perfbench/run.py --workload solve-lists --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; it imports `harrop` from the checkout's
`src/` and works in `.perfbench_work/` and `.perfbench_out/` at its root.

Each operation is one in-process `harrop.cli.main([...])` call, issued in a
closed loop by one client thread in this one process, so the next command
starts only when the previous one has returned.  The loop runs whole rounds
of the schedule (see workloads.py) for `--seconds` and at least MIN_COMMANDS
commands.  Set-up, timed as `setup_s`, is repeated SETUP_REPEATS times; the
last one's inputs are used.  After the loop every answer
is checked against the oracle its generator built (see workloads.py), and
every command's stdout and written files are fingerprinted.

`--trace 0` prints the end-to-end metrics.  Command times are wall times
scaled to a reference machine speed, which a fixed calibration loop timed
between commands measures (see `calibration`): on a shared machine the raw
times of one input swing by half between runs, the scaled ones by a few per
cent.  The unscaled loop time and median are printed as well.  Set-up time
is not scaled: it barely follows the calibration.

`--trace 1` runs two schedule rounds of commands, each one untraced and then
with every module boundary wrapped (see tracer.py), and prints the per-layer
metrics, in unscaled time; its timings never feed the end-to-end ones.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import DEEP_PROBE_LEN, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
OUT = Path(".perfbench_out")
SETUP_REPEATS = 7
MIN_COMMANDS = 100        # p90 needs ten commands beyond it
TRACE_ROUNDS = 2          # schedule rounds in the traced sample
CAL_REF_S = 0.003         # duration of calibration() at the reference speed
CAL_WINDOW = 1            # calibrations on each side that set a command's speed


@dataclass
class Record:
    index: int        # position in the command pool
    seconds: float
    rc: int | None
    packed: bytes     # stdout, compressed so that kept outputs hardly move peak RSS
    error: str        # exception raised out of main, if any
    cal: float = 0.0  # calibration() just before the command

    @property
    def out(self) -> str:
        return zlib.decompress(self.packed).decode()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes and no command floor (smoke test)")
    return ap.parse_args(argv)


def import_harrop() -> dict:
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "harrop" or m.startswith("harrop.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"harrop.{m}")
               for m in ("cli", "parser", "engine", "analysis")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"harrop imported from {modules['cli'].__file__}, not {SRC}")
    return modules


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _build(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node("leaf", key, None)
    return _Node("pair", _build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1))


def _mirror(t: _Node) -> _Node:
    if t.op == "leaf":
        return _Node("leaf", t.left + 1, None)
    return _Node("pair", _mirror(t.right), _mirror(t.left))


def _show(t: _Node) -> str:
    return f"{t.left}" if t.op == "leaf" else f"({_show(t.left)} {_show(t.right)})"


def calibration() -> float:
    """Seconds that one fixed piece of interpreter work takes right now.

    Other tenants of a shared machine slow a process down by up to a half,
    for seconds at a time.  This work is written like the program's own
    (frozen dataclass trees built, rewritten, hashed and printed by recursive
    functions) and never touches harrop, so CAL_REF_S over its duration is
    the machine's current speed; command times are scaled by it (see
    `scaled`).
    """
    gc.disable()
    try:
        start = time.perf_counter()
        tree = _build(9, 0)
        seen = {_mirror(_mirror(tree)): 0, tree: 1}
        len(_show(_mirror(tree))) + len(seen)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: list[float], cals: list[float]) -> list[float]:
    """Times at the reference speed: each one scaled by the median of the
    calibrations taken just before the previous command, just before this
    one and just after it."""
    return [t * CAL_REF_S / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, t in enumerate(seconds)]


def setup(workload, seed: int, workdir: Path):
    """Import harrop, generate the inputs, write the files; timed together."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    modules = import_harrop()
    inputs = workload.generate(random.Random(seed), workdir.as_posix())
    for path, text in inputs.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    for cmd in inputs.commands:
        for path in cmd.outputs:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    return time.perf_counter() - start, modules, inputs


def run_one(main, cmd: Command, index: int, call=None) -> Record:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(index, main, list(cmd.argv)) if call else main(list(cmd.argv))
    except (Exception, SystemExit) as e:  # a crash of the program is a failed command
        error = type(e).__name__
    elapsed = time.perf_counter() - start
    return Record(index, elapsed, rc, zlib.compress(out.getvalue().encode(), 1), error)


def closed_loop(main, commands: list[Command], seconds: float, min_commands: int,
                round_size: int):
    """Whole schedule rounds until `seconds` and `min_commands` are reached,
    so that every run covers each size class equally often."""
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        cal = calibration()
        records.append(run_one(main, commands[i % len(commands)], i % len(commands)))
        records[-1].cal = cal
        if (len(records) % round_size == 0 and len(records) >= min_commands
                and time.perf_counter() - start >= seconds):
            return records, time.perf_counter() - start


# -- checking -----------------------------------------------------------------------

def make_replay(modules: dict):
    """Re-solve a Proved command, require the CLI to have printed exactly that
    trace, and replay the trace against the expected ground atom."""
    parser, engine = modules["parser"], modules["engine"]
    programs = {}

    def replay(cmd: Command, atom: str, trace_text: str) -> str | None:
        path, query = cmd.argv[1], cmd.argv[2]
        depth = int(cmd.argv[cmd.argv.index("--depth") + 1])
        if path not in programs:
            programs[path] = parser.parse_source(Path(path).read_text()).program
        prog = programs[path]
        goal = parser.parse_goal(query, prog, mode="query")
        outcome = engine.solve(engine.Sequent(prog.sig, prog.clauses, (), goal), depth)
        if not isinstance(outcome, engine.Proved):
            return "re-solving did not prove"
        if engine.render_trace(outcome.trace) != trace_text:
            return "printed trace is not the re-solved trace"
        ground = engine.Sequent(prog.sig, prog.clauses, (),
                                parser.parse_goal(atom, prog))
        ok, msg = engine.replay_trace(ground, outcome.trace)
        return None if ok else f"replay: {msg}"

    return replay


def fingerprint(rec: Record, cmd: Command) -> str:
    h = hashlib.sha256(f"{rec.rc}\0{rec.error}\0{rec.out}\0".encode())
    for path in cmd.outputs:
        p = Path(path)
        h.update(p.read_bytes() if p.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()[:32]


def check(workload, records, commands, modules, prints: dict) -> dict[int, str]:
    """Check every record; returns the failed pool indices with the reason.
    `prints` maps pool index to fingerprint and is extended here; a repeated
    command must print what its first run printed."""
    replay = make_replay(modules)
    failed: dict[int, str] = {}
    checked = set()
    for rec in records:
        cmd = commands[rec.index]
        fp = fingerprint(rec, cmd)
        if prints.setdefault(rec.index, fp) != fp:
            failed[rec.index] = "output changed on a repeat"
        if rec.index in checked:
            continue
        checked.add(rec.index)
        missing = [p for p in cmd.outputs if not Path(p).is_file()]
        why = (f"raised {rec.error}" if rec.error
               else f"did not write {missing[0]}" if missing
               else workload.check(cmd, rec.rc, rec.out, replay))
        if why:
            failed[rec.index] = why
    return failed


def deep_probes(workload, main, seed: int) -> list[str]:
    """Run the workload's deep probes outside the timed loop, so that the
    workload itself has no failing operation, and say how each one ended."""
    probes = workload.probes(random.Random(seed), (WORK / "probes").as_posix())
    for path, text in probes.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    ends = []
    for cmd in probes.commands:
        rec = run_one(main, cmd, 0)
        ok = not rec.error and workload.check(cmd, rec.rc, rec.out, None) is None
        ends.append("Refuted" if ok else rec.error or f"exit {rec.rc}: {rec.out[:30]!r}")
    shutil.rmtree(WORK / "probes", ignore_errors=True)
    return ends


# -- fingerprints across runs ------------------------------------------------------

def code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def inputs_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(f"{path}\0{files[path]}\0".encode())
    return h.hexdigest()[:32]


def record_fingerprints(tag: str, files: dict, prints: dict) -> list[str]:
    """Write this run's fingerprints; an earlier run of the same code and seed
    must have produced the same inputs and, command by command, the same bytes."""
    path = OUT / "fingerprints" / f"{tag}-{code_digest()}.json"
    doc = {"inputs": inputs_digest(files),
           "commands": {str(i): fp for i, fp in sorted(prints.items())}}
    problems = []
    if path.exists():
        old = json.loads(path.read_text())
        if old["inputs"] != doc["inputs"]:
            problems.append("inputs differ from an earlier run with this seed")
        for i, fp in doc["commands"].items():
            if old["commands"].get(i, fp) != fp:
                problems.append(f"command {i}: output differs from an earlier run")
        doc["commands"] = {**old["commands"], **doc["commands"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=0, sort_keys=True))
    tmp.replace(path)
    return problems


# -- metrics ------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(records, failed: dict, setup_s: list[float], rss_kb: int) -> dict:
    """The user-visible figures; command times are at the reference speed."""
    seconds = scaled([r.seconds for r in records], [r.cal for r in records])
    busy_s = sum(seconds)
    # a failed command counts as slower than every success
    lat = [math.inf if r.index in failed else t * 1e3 for r, t in zip(records, seconds)]
    correct = sum(1 for r in records if r.index not in failed)

    def finite(x):   # a percentile that falls on failures reads as the whole loop
        return x if math.isfinite(x) else busy_s * 1e3

    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (finite(percentile(lat, 0.5)), "ms"),
        "op_p90_ms": (finite(percentile(lat, 0.9)), "ms"),
        "cmds_per_s": (correct / busy_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return {"parser.tokens_per_s": "1/s", "abella.thm_bytes": "B"}.get(name, "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.tiny)
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    workdir = WORK / args.workload
    setup_s = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, modules, inputs = setup(workload, args.seed, workdir)
            setup_s.append(seconds)
    except ImportError as e:
        print(f"cannot import harrop from {SRC}: {e}", file=sys.stderr)
        return 2
    main_fn = modules["cli"].main
    commands = inputs.commands
    prints: dict[int, str] = {}
    try:
        if args.trace:
            tracer = Tracer()
            untraced, traced = [], []
            # each command runs untraced and then traced, so that warm-up and
            # changes of machine speed fall on both sides alike
            for i, cmd in enumerate(commands[:TRACE_ROUNDS * workload.round_size]):
                untraced.append(run_one(main_fn, cmd, i))
                tracer.install(modules)
                try:
                    traced.append(run_one(main_fn, cmd, i, call=tracer.run_command))
                finally:
                    tracer.uninstall()
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
            records = untraced + traced   # a traced command must print the same
        else:
            records, loop_s = closed_loop(main_fn, commands, args.seconds,
                                          0 if args.tiny else MIN_COMMANDS,
                                          workload.round_size)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = check(workload, records, commands, modules, prints)
        probes = (deep_probes(workload, main_fn, args.seed)
                  if hasattr(workload, "probes") else [])
        problems = record_fingerprints(tag, inputs.files, prints)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_failed = sum(1 for r in records if r.index in failed)
    for i, why in sorted(failed.items())[:20]:
        print(f"FAILED command {i}: {why}")
    for p in problems[:20]:
        print("FAILED", p)
    print(f"workload {args.workload}  seed {args.seed}  commands {len(records)}  "
          f"failed {n_failed}  fail_ratio {n_failed / len(records):.4f}")
    if probes:
        print(f"deep probes ({DEEP_PROBE_LEN}-element lists): {', '.join(probes)}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{tag}.tsv.gz")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = overhead
        metrics["cli.deep_probe_fail_ratio"] = (
            sum(e != "Refuted" for e in probes) / len(probes) if probes else 0.0)
        metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
    else:
        metrics = end_to_end(records, failed, setup_s, rss_kb)
        raw = sorted(r.seconds for r in records)
        print(f"unscaled: loop {loop_s:.2f} s, op p50 {1e3 * raw[len(raw) // 2]:.2f} ms, "
              f"speed {CAL_REF_S / statistics.median(r.cal for r in records):.3f} of "
              f"reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
