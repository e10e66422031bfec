"""Seeded input generators and answer oracles for the four benchmark workloads.

Every generator writes `.hh` text of its own and keeps, next to each command,
the answer it must produce.  The answers come from the generator's own model
of the input (the concatenated list, a simple-type checker over a named term
AST, the dependency forest a family was built from, the predicate a random
program never mentions), never from `harrop`.  Only the trace replay of a
`Proved` answer goes through `harrop.engine`, because a trace can only be
replayed against the kernel's own terms.

Sizes sit on a grid, and every round of the schedule visits each grid point
once, in a seeded order.  The timed loop runs whole rounds, and the inputs
at one grid point cost about the same whatever the seed (fixed shapes, or
random shapes held to one size), so two seeds give close figures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


POOL_ROUNDS = 20   # rounds of distinct commands generated for a run


@dataclass
class Command:
    argv: list[str]                   # arguments for harrop.cli.main
    expect: tuple                     # what the oracle requires
    outputs: tuple[str, ...] = ()     # files the command writes


@dataclass
class Inputs:
    files: dict[str, str] = field(default_factory=dict)   # path -> text
    commands: list[Command] = field(default_factory=list)


def rounds(rng: random.Random, grid: list, n_rounds: int) -> list:
    """n_rounds seeded permutations of the grid, one after another."""
    out = []
    for _ in range(n_rounds):
        r = list(grid)
        rng.shuffle(r)
        out.extend(r)
    return out


# -- solve-lists --------------------------------------------------------------------

NATS = [f"n{i}" for i in range(10)]
LIST_HEADER = (["kind nat type.", "kind list type."]
               + [f"type {n} nat." for n in NATS]
               + ["type nil list.", "type cons nat -> list -> list.",
                  "type append list -> list -> list -> o."])
APPEND_CLAUSES = ["append nil L L.",
                  "append L1 L2 L3 => append (cons X L1) L2 (cons X L3)."]
DEEP_PROBE_LEN = 200      # the parser overflows the stack on these today
DEEP_PROBES = 5


def list_text(xs: list[str]) -> str:
    s = "nil"
    for x in reversed(xs):
        s = f"(cons {x} {s})"
    return s


def _distractor(rng: random.Random, k: int) -> list[str]:
    """A list predicate that never matches an append goal: its clauses open
    two to five binders before the head mismatch shows."""
    arg_tys = ["list", "nat", "list"][:1 + k % 3]
    name = f"d{k}"
    decl = f"type {name} {' -> '.join(arg_tys)} -> o."
    base_args, step_args, rec_args = [], [], []
    for i, ty in enumerate(arg_tys):
        if ty == "list":
            base_args.append("nil" if i == 0 else f"L{i}")
            step_args.append(f"(cons N{i} L{i})")
            rec_args.append(f"L{i}")
        else:
            base_args.append(rng.choice(NATS))
            step_args.append(f"N{i}")
            rec_args.append(f"N{i}")
    return [decl, f"{name} {' '.join(base_args)}.",
            f"{name} {' '.join(rec_args)} => {name} {' '.join(step_args)}."]


def lists_program(rng: random.Random, n_distractors: int) -> str:
    decls, clauses = [], []
    for k in range(n_distractors):
        d = _distractor(rng, k)
        decls.append(d[0])
        clauses.extend(d[1:])
    # append comes first: a proof never tries a distractor, a refutation
    # tries every one of them at every step
    return "\n".join(LIST_HEADER + decls + APPEND_CLAUSES + clauses) + "\n"


def _other(nat: str) -> str:
    return NATS[(NATS.index(nat) + 1) % len(NATS)]


def check_solve(cmd: Command, rc: int, out: str, replay) -> str | None:
    """Shared oracle of the two solve workloads."""
    if rc != 0:
        return f"exit code {rc}"
    if cmd.expect[0] == "refuted":
        return None if out == "Refuted\n" else f"expected Refuted, got {out[:40]!r}"
    lines = out.split("\n", 2)
    if lines[0] != "Proved":
        return f"expected Proved, got {lines[0]!r}"
    atom = cmd.expect[1]
    if len(lines) < 2 or not lines[1].endswith(f"|- {atom}"):
        return "trace root is not the expected atom"
    return replay(cmd, atom, out[len("Proved\n"):])


class SolveLists:
    name = "solve-lists"

    def __init__(self, tiny: bool):
        self.lengths = [4, 5] if tiny else list(range(4, 13, 2))
        self.distractors = [0, 2] if tiny else [0, 8, 16]
        self.round_size = 2 * len(self.lengths) * len(self.distractors)
        self.rounds = 3 if tiny else POOL_ROUNDS

    def generate(self, rng: random.Random, workdir: str) -> Inputs:
        inp = Inputs()
        for d in self.distractors:
            inp.files[f"{workdir}/lists_d{d}.hh"] = lists_program(rng, d)
        grid = [(n, kind, d) for n in self.lengths for kind in ("proved", "refuted")
                for d in self.distractors]
        for n, kind, d in rounds(rng, grid, self.rounds):
            xs = [rng.choice(NATS) for _ in range(n)]
            ys = [rng.choice(NATS) for _ in range(rng.randint(1, 3))]
            zs = xs + ys
            # a wrong last element makes the search walk the whole space
            result = "L" if kind == "proved" else list_text(zs[:-1] + [_other(zs[-1])])
            argv = ["solve", f"{workdir}/lists_d{d}.hh",
                    f"append {list_text(xs)} {list_text(ys)} {result}",
                    "--trace", "--depth", str(2 * n + 8)]
            expect = (("proved", f"append {list_text(xs)} {list_text(ys)} "
                                 f"{list_text(zs)}")
                      if kind == "proved" else ("refuted",))
            inp.commands.append(Command(argv, expect))
        return inp

    def probes(self, rng: random.Random, workdir: str) -> Inputs:
        """Append queries on DEEP_PROBE_LEN-element list literals, wrong at
        the first element of the result, so each is refuted at once once it
        parses.  They are not part of the timed loop."""
        path = f"{workdir}/lists_d0.hh"
        inp = Inputs({path: lists_program(rng, 0)})
        for _ in range(DEEP_PROBES):
            xs = [rng.choice(NATS) for _ in range(DEEP_PROBE_LEN)]
            zs = [_other(xs[0])] + xs[1:] + ["n0"]
            argv = ["solve", path, f"append {list_text(xs)} (cons n0 nil) "
                    f"{list_text(zs)}", "--depth", str(2 * DEEP_PROBE_LEN + 8)]
            inp.commands.append(Command(argv, ("refuted",)))
        return inp

    check = staticmethod(check_solve)


# -- solve-binders ------------------------------------------------------------------

TYPEOF_PROGRAM = """kind ty type.
kind tm type.
type b ty.
type c ty.
type arr ty -> ty -> ty.
type app tm -> tm -> tm.
type abs ty -> (tm -> tm) -> tm.
type typeof tm -> ty -> o.
typeof M1 (arr T1 T2) => typeof M2 T1 => typeof (app M1 M2) T2.
(pi x \\ typeof x T1 => typeof (M x) T2) => typeof (abs T1 M) (arr T1 T2).
"""

BASE = ["b", "c"]


def arr(a, b):
    return ("arr", a, b)


def ty_text(ty, level: int = 0) -> str:
    if isinstance(ty, str):
        return ty
    s = f"arr {ty_text(ty[1], 3)} {ty_text(ty[2], 3)}"
    return f"({s})" if level >= 3 else s


# named terms: ("var", x) | ("abs", ty, x, body) | ("app", fn, arg)

def term_text(t, level: int = 0) -> str:
    """The `.hh` text of a term, in the layout the formula printer uses."""
    if t[0] == "var":
        return t[1]
    if t[0] == "abs":
        s = f"abs {ty_text(t[1], 3)} ({t[2]}\\ {term_text(t[3], 0)})"
    else:
        s = f"app {term_text(t[1], 3)} {term_text(t[2], 3)}"
    return f"({s})" if level >= 3 else s


def type_of(t, env: dict):
    """The oracle: the simple type of a Church-style term, or None."""
    if t[0] == "var":
        return env.get(t[1])
    if t[0] == "abs":
        body = type_of(t[3], {**env, t[2]: t[1]})
        return None if body is None else arr(t[1], body)
    fn, a = type_of(t[1], env), type_of(t[2], env)
    if fn is None or a is None or isinstance(fn, str) or fn[1] != a:
        return None
    return fn[2]


def height(t) -> int:
    if t[0] == "var":
        return 1
    if t[0] == "abs":
        return 1 + height(t[3])
    return 1 + max(height(t[1]), height(t[2]))


FILLER_TYPES = ["b", "c", arr("b", "c"), arr("c", "b")]


def binder_nest(rng: random.Random, depth: int, well_typed: bool):
    """`depth` nested abstractions over an application body.

    The body is `app f (app g x)` (or the ill-typed `app g (app g x)`) with
    f : b2 -> b1, g : b1 -> b2 and x : b1 bound by the three outermost
    binders, so every variable lookup walks the whole dynamic context and
    the cost depends on the depth alone.  The seed picks which base type is
    b1, the order of the three, and the types of the other binders.
    """
    b1, b2 = rng.sample(BASE, 2)
    core = [("f", arr(b2, b1)), ("g", arr(b1, b2)), ("x", b1)]
    rng.shuffle(core)
    binders = core + [("y", rng.choice(FILLER_TYPES)) for _ in range(depth - 3)]
    names = {role: f"x{i + 1}" for i, (role, _) in enumerate(binders[:3])}
    fn = "f" if well_typed else "g"
    t = ("app", ("var", names[fn]), ("app", ("var", names["g"]), ("var", names["x"])))
    for i in reversed(range(depth)):
        t = ("abs", binders[i][1], f"x{i + 1}", t)
    return t


class SolveBinders:
    name = "solve-binders"

    def __init__(self, tiny: bool):
        self.depths = [4, 5] if tiny else list(range(4, 17, 2))
        self.round_size = 2 * len(self.depths)
        self.rounds = 3 if tiny else POOL_ROUNDS

    def generate(self, rng: random.Random, workdir: str) -> Inputs:
        path = f"{workdir}/typeof.hh"
        inp = Inputs({path: TYPEOF_PROGRAM})
        grid = [(d, kind) for d in self.depths for kind in ("proved", "refuted")]
        for d, kind in rounds(rng, grid, self.rounds):
            t = binder_nest(rng, d, kind == "proved")
            ty = type_of(t, {})
            argv = ["solve", path, f"typeof {term_text(t, 3)} T", "--trace",
                    "--depth", str(3 * height(t) + 6)]
            expect = (("refuted",) if ty is None else
                      ("proved", f"typeof {term_text(t, 3)} {ty_text(ty, 3)}"))
            inp.commands.append(Command(argv, expect))
        return inp

    check = staticmethod(check_solve)


# -- analyze-families ---------------------------------------------------------------

FAMILY_HEADER = ["kind nat type.", "kind list type.", "type z nat.",
                 "type nil list.", "type cons nat -> list -> list."]


def family_program(rng: random.Random, n: int) -> tuple[str, dict[str, set[str]]]:
    """n append-shaped predicates whose step clauses call a parent predicate:
    a forest, so S(a_k) is a_k plus the dependencies of its parent."""
    decls, clauses, deps = [], [], {}
    for k in range(n):
        parent = k if k == 0 or rng.random() < 0.25 else rng.randrange(k)
        deps[f"a{k}"] = {f"a{k}"} | deps.get(f"a{parent}", set())
        decls.append(f"type a{k} list -> list -> list -> o.")
        clauses.append(f"a{k} nil L L.")
        clauses.append(f"a{parent} L1 L2 L3 => a{k} (cons X L1) L2 (cons X L3).")
    rng.shuffle(clauses)
    return "\n".join(FAMILY_HEADER + decls + clauses) + "\n", deps


class AnalyzeFamilies:
    name = "analyze-families"

    def __init__(self, tiny: bool):
        self.sizes = [4, 5] if tiny else list(range(6, 25))
        self.round_size = len(self.sizes)
        self.rounds = 3 if tiny else POOL_ROUNDS

    def generate(self, rng: random.Random, workdir: str) -> Inputs:
        inp = Inputs()
        for i, n in enumerate(rounds(rng, self.sizes, self.rounds)):
            path = f"{workdir}/family_{i}.hh"
            inp.files[path], deps = family_program(rng, n)
            inp.commands.append(Command(["analyze", path, "--json"], ("deps", deps)))
        return inp

    def check(self, cmd: Command, rc: int, out: str, replay) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        deps = cmd.expect[1]
        if doc.get("verdict") is not None:
            return "analyze reported a verdict"
        if doc.get("contexts") != {a: [] for a in deps}:
            return "contexts are not all empty"
        got = doc.get("dependencies") or {}
        if {a: set(s) for a, s in got.items()} != deps:
            return "dependency sets differ"
        return None


# -- strengthen-random --------------------------------------------------------------

# propositional goals and clauses in the shapes of tests/genutil.py:
# an atom is "pK"; ("imp", antecedent, consequent)

def rand_goal(rng: random.Random, n: int, depth: int):
    """A goal with a rigid head: an atom, or a clause implying a goal."""
    if depth <= 0 or rng.random() < 0.5:
        return f"p{rng.randrange(n)}"
    return ("imp", rand_clause(rng, n, depth - 1), rand_goal(rng, n, depth - 1))


def rand_clause(rng: random.Random, n: int, depth: int):
    t = f"p{rng.randrange(n)}"
    for _ in range(rng.choice([0, 1, 1, 2]) if depth > 0 else 0):
        t = ("imp", rand_goal(rng, n, depth - 1), t)
    return t


def nested(t, in_goal: bool = False) -> int:
    """Implications inside antecedents: the clauses that the context analysis
    pushes into dynamic contexts."""
    if isinstance(t, str):
        return 0
    return int(in_goal) + nested(t[1], True) + nested(t[2], in_goal)


NESTED_PER_CLAUSE = 1.25   # the mean of nested(rand_clause(rng, n, 3))


def rand_program(rng: random.Random, n: int, n_clauses: int) -> list:
    """Random clauses whose nested implications number within 4% of the
    mean: analysis cost follows that count most closely, and holding it keeps
    programs of one size alike."""
    target = NESTED_PER_CLAUSE * n_clauses
    while True:
        clauses = [rand_clause(rng, n, 3) for _ in range(n_clauses)]
        if abs(sum(map(nested, clauses)) - target) <= max(1.0, 0.04 * target):
            return clauses


def head(t) -> str:
    while not isinstance(t, str):
        t = t[2]
    return t


def antecedents(t) -> list:
    out = []
    while not isinstance(t, str):
        out.append(t[1])
        t = t[2]
    return out


def formula_text(t, level: int = 0) -> str:
    if isinstance(t, str):
        return t
    s = f"{formula_text(t[1], 1)} => {formula_text(t[2], 0)}"
    return f"({s})" if level >= 1 else s


class StrengthenRandom:
    name = "strengthen-random"

    def __init__(self, tiny: bool):
        self.sizes = [(4, 8)] if tiny else [
            (p, 3 * p + (p - 8) * p // 16) for p in range(8, 15)]
        self.round_size = 2 * len(self.sizes)
        self.rounds = 3 if tiny else POOL_ROUNDS

    def generate(self, rng: random.Random, workdir: str) -> Inputs:
        inp = Inputs()
        grid = [(pc, kind) for pc in self.sizes for kind in ("validated", "blocked")]
        for i, ((p, c), kind) in enumerate(rounds(rng, grid, self.rounds)):
            atoms = [f"p{k}" for k in range(p)]
            clauses = rand_program(rng, p, c)
            # one hypothetical clause, which seeds every dynamic context
            goal = ("imp", ("imp", *rng.sample(atoms, 2)), rng.choice(atoms))
            g = head(goal)
            stem = f"{workdir}/rand_{i}"
            inp.files[stem + ".hh"] = "\n".join(
                [f"type {a} o." for a in atoms] + ["type t o."]
                + [formula_text(d) + "." for d in clauses]) + "\n"
            out_dir = f"{workdir}/out"
            argv = ["strengthen", stem + ".hh", "--goal", formula_text(goal),
                    "--json", "--out", f"{out_dir}/rand_{i}.thm"]
            if kind == "validated":
                argv[2:2] = ["--from", "t"]
                outputs = tuple(f"{out_dir}/rand_{i}{ext}"
                                for ext in (".thm", ".sig", ".mod"))
                inp.commands.append(Command(argv, ("validated",), outputs))
            else:
                # the goal's head, or the head of an antecedent of a clause
                # for it: both lie in S(head of goal) by construction
                near = [g] + [head(a) for d in clauses if head(d) == g
                              for a in antecedents(d)]
                argv[2:2] = ["--from", rng.choice(near)]
                inp.commands.append(Command(argv, ("blocked", argv[3])))
        return inp

    def check(self, cmd: Command, rc: int, out: str, replay) -> str | None:
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if cmd.expect[0] == "blocked":
            if rc != 3:
                return f"blocked command exit code {rc}"
            if doc.get("verdict") != "blocked" or doc.get("blocked_on") != cmd.expect[1]:
                return "expected blocked on " + cmd.expect[1]
            return None
        if rc != 0:
            return f"validated command exit code {rc}"
        if doc.get("verdict") != "validated" or doc.get("output") != cmd.argv[-1]:
            return "expected validated"
        return None


WORKLOADS = {w.name: w for w in (SolveLists, SolveBinders, AnalyzeFamilies,
                                 StrengthenRandom)}
