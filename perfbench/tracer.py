"""Spans around the calls into each `harrop` module, for the traced run.

Each public function is wrapped at the module global where its caller looks it
up, so the program itself is not edited: `harrop.cli` calls the parser, the
engine, the analysis and the Abella emitter through its own globals, the
analysis calls its fixpoint stages and the clause helpers of `formulas`
through its globals, and the engine calls its unifier and the term kernel
through its globals.  `cli.main` is the root span of every command.  Spans
(name, start, end, parent, command) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import re
import time
from collections import defaultdict

# (harrop submodule, global name, span name)
WRAPPED = [
    ("cli", "parse_source", "parser.parse_source"),
    ("cli", "parse_goal", "parser.parse_goal"),
    ("parser", "parse_clause", "parser.parse_clause"),  # imported inside cli
    ("cli", "solve", "engine.solve"),
    ("cli", "render_trace", "engine.render_trace"),
    ("cli", "analyze_program", "analysis.analyze_program"),
    ("cli", "check_strengthenable", "analysis.check_strengthenable"),
    ("cli", "analysis_report", "analysis.report"),
    ("cli", "render_report", "analysis.report"),
    ("cli", "make_plan", "abella.make_plan"),
    ("cli", "build_development", "abella.build_development"),
    ("cli", "render", "abella.render"),
    ("cli", "echo_sig", "abella.echo"),
    ("cli", "echo_mod", "abella.echo"),
    ("analysis", "analyze_program", "analysis.analyze_program"),
    ("analysis", "collect_context_constraints", "analysis.collect_context_constraints"),
    ("analysis", "solve_context_fixpoint", "analysis.solve_context_fixpoint"),
    ("analysis", "collect_dependency_constraints",
     "analysis.collect_dependency_constraints"),
    ("analysis", "solve_dependency_fixpoint", "analysis.solve_dependency_fixpoint"),
    ("analysis", "canonical_key", "formulas.canonical_key"),
    ("analysis", "normalize_clause", "formulas.normalize_clause"),
    ("engine", "unify", "engine.unify"),
    ("engine", "normalize", "terms.normalize"),
    ("engine", "subst_metas", "terms.subst_metas"),
    ("engine", "metas_of", "terms.metas_of"),
]

ROOT = "cli.main"

# What a span keeps of its call, taken cheaply while tracing; sizes are
# computed from it after the run so that they add nothing to any span.
KEEP = {
    "parser.parse_source": lambda args, result: args[0],
    "parser.parse_goal": lambda args, result: args[0],
    "parser.parse_clause": lambda args, result: args[0],
    "engine.solve": lambda args, result: type(result).__name__,
    "engine.unify": lambda args, result: result[0] == "ok",
    "engine.render_trace": lambda args, result: result,
    "abella.render": lambda args, result: result,
    "analysis.collect_context_constraints": lambda args, result: result,
    "analysis.collect_dependency_constraints": lambda args, result: result,
    "analysis.solve_context_fixpoint": lambda args, result: result,
    "analysis.solve_dependency_fixpoint": lambda args, result: result,
}

# the .hh lexical units: arrows, identifiers and numerals, punctuation
TOKEN_RE = re.compile(r"=>|->|[A-Za-z0-9_][A-Za-z0-9_']*|[()\.:\\&,]")


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name, start_ns, end_ns, parent, command, kept)
        self._stack = [-1]
        self._saved: list = []
        self.command = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                kept = keep(args, result) if keep and result is not None else None
                spans[idx] = (name, start, end, parent, self.command, kept)

        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def run_command(self, index: int, main, argv):
        """One command under the root span."""
        self.command = index
        try:
            return self._wrap(ROOT, main)(argv)
        finally:
            self.command = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("command\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, cmd, _) in enumerate(self.spans):
                f.write(f"{cmd}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced commands, from span self times."""
        child_ns = defaultdict(int)
        for name, start, end, parent, cmd, kept in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        commands = defaultdict(set)
        kept_by_name = defaultdict(list)
        solve_ns = defaultdict(list)
        for i, (name, start, end, parent, cmd, kept) in enumerate(self.spans):
            own = end - start - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            commands[name].add(cmd)
            if kept is not None:
                kept_by_name[name].append(kept)
            if name == "engine.solve":
                solve_ns[kept].append(own)

        def ms(name):      # self time per command that reaches the layer
            return self_ns[name] / 1e6 / len(commands[name]) if commands[name] else 0.0

        def per_cmd(name):
            return calls[name] / len(commands[name]) if commands[name] else 0.0

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        parse_names = ["parser.parse_source", "parser.parse_goal", "parser.parse_clause"]
        tokens = sum(len(TOKEN_RE.findall(text))
                     for n in parse_names for text in kept_by_name[n])
        parse_s = sum(self_ns[n] for n in parse_names) / 1e9
        unify_ok = kept_by_name["engine.unify"]
        out = {
            "parser.parse_source.ms": ms("parser.parse_source"),
            "parser.parse_goal.ms": ms("parser.parse_goal"),
            "parser.parse_clause.ms": ms("parser.parse_clause"),
            "parser.tokens_per_s": tokens / parse_s if parse_s else 0.0,
            "engine.solve.proved_ms": mean(solve_ns["Proved"]) / 1e6,
            "engine.solve.refuted_ms": mean(solve_ns["Refuted"]) / 1e6,
            "engine.unify.calls": per_cmd("engine.unify"),
            "engine.unify.ms": ms("engine.unify"),
            "engine.unify.ok_ratio": mean(unify_ok),
            "engine.render_trace.ms": ms("engine.render_trace"),
            "engine.trace_nodes": mean(t.count("\n")
                                       for t in kept_by_name["engine.render_trace"]),
        }
        for name in ("terms.normalize", "terms.subst_metas", "terms.metas_of",
                     "formulas.canonical_key", "formulas.normalize_clause"):
            out[f"{name}.calls"] = per_cmd(name)
            out[f"{name}.ms"] = ms(name)
        for stage in ("collect_context_constraints", "solve_context_fixpoint",
                      "collect_dependency_constraints", "solve_dependency_fixpoint",
                      "report"):
            out[f"analysis.{stage}.ms"] = ms(f"analysis.{stage}")
        out["analysis.context_constraints"] = mean(
            len(r) for r in kept_by_name["analysis.collect_context_constraints"])
        out["analysis.dependency_constraints"] = mean(
            len(r) for r in kept_by_name["analysis.collect_dependency_constraints"])
        out["analysis.context_formulas"] = mean(
            sum(len(fs) for fs in r.values())
            for r in kept_by_name["analysis.solve_context_fixpoint"])
        out["analysis.dependency_pairs"] = mean(
            sum(len(s) for s in r.values())
            for r in kept_by_name["analysis.solve_dependency_fixpoint"])
        for stage in ("make_plan", "build_development", "render", "echo"):
            out[f"abella.{stage}.ms"] = ms(f"abella.{stage}")
        out["abella.thm_bytes"] = mean(
            len(t.encode()) for t in kept_by_name["abella.render"])
        out["cli.self_ms"] = ms(ROOT)
        return out
