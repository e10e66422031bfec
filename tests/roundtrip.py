"""Round trips and kernel operations that only the tests read: a structural
parser for the Abella subset the package emits, a `.hh` printer for parsed
programs, the inverse of `normalize_clause`, and substitution for a named
free variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from harrop.errors import TypeMismatch
from harrop.formulas import NormalClause, Program, conj, imp, printer, quantify
from harrop.terms import Term, Var, map_leaves, shift


# -- a parser for the emitted `.thm` subset -------------------------------------------------

@dataclass(frozen=True)
class ThmSkeleton:
    kind: str                 # "specification" | "define" | "theorem" | "split"
    name: str
    clause_count: int = 0
    tactics: tuple[str, ...] = ()
    formula: str = ""


def parse_thm(text: str) -> list[ThmSkeleton]:
    """Structural parser for the emitted Abella subset; raises ValueError on
    text outside it.  Used to check that rendered output re-parses."""
    items: list[ThmSkeleton] = []
    statements = _split_statements(text)
    i = 0
    while i < len(statements):
        s = statements[i]
        if s.startswith("Specification"):
            m = re.match(r'Specification\s+"([^"]+)"$', s)
            if not m:
                raise ValueError(f"bad Specification statement: {s!r}")
            items.append(ThmSkeleton("specification", m.group(1)))
            i += 1
        elif s.startswith("Define"):
            m = re.match(r"Define\s+([A-Za-z0-9_]+)\s*:\s*(.*?)\s+by\s+(.*)$",
                         s, re.DOTALL)
            if not m:
                raise ValueError(f"bad Define statement: {s!r}")
            clauses = _split_top(m.group(3), ";")
            items.append(ThmSkeleton("define", m.group(1), clause_count=len(clauses)))
            i += 1
        elif s.startswith("Theorem"):
            m = re.match(r"Theorem\s+([A-Za-z0-9_]+)\s*:\s*(.*)$", s, re.DOTALL)
            if not m:
                raise ValueError(f"bad Theorem statement: {s!r}")
            name, formula = m.group(1), m.group(2)
            tactics = []
            i += 1
            while i < len(statements) and _is_tactic(statements[i]):
                tactics.append(statements[i])
                i += 1
            if not tactics:
                raise ValueError(f"theorem {name} has no proof")
            items.append(ThmSkeleton("theorem", name, tactics=tuple(tactics),
                                     formula=formula))
        elif s.startswith("Split"):
            m = re.match(r"Split\s+([A-Za-z0-9_]+)\s+as\s+(.*)$", s)
            if not m:
                raise ValueError(f"bad Split statement: {s!r}")
            items.append(ThmSkeleton("split", m.group(1)))
            i += 1
        else:
            raise ValueError(f"unrecognized statement: {s!r}")
    return items


_TACTIC_HEADS = ("induction", "intros", "case", "apply", "search", "split")


def _is_tactic(s: str) -> bool:
    return s.split(" ", 1)[0] in _TACTIC_HEADS


def _split_statements(text: str) -> list[str]:
    """Split on '.' at brace/paren depth zero; normalizes whitespace."""
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    in_str = False
    for ch in text:
        if in_str:
            cur.append(ch)
            if ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            cur.append(ch)
            continue
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "." and depth == 0:
            stmt = " ".join("".join(cur).split())
            if stmt:
                out.append(stmt)
            cur = []
        else:
            cur.append(ch)
    tail = " ".join("".join(cur).split())
    if tail:
        raise ValueError(f"trailing text without '.': {tail!r}")
    return out


def _split_top(text: str, sep: str) -> list[str]:
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        out.append("".join(cur).strip())
    return out


# -- `.hh` text of a parsed program -----------------------------------------------------------

def print_program(program: Program) -> str:
    """Round-trippable `.hh` text for a parsed program."""
    show = printer()
    lines = []
    for k in program.kinds:
        lines.append(f"kind {k} type.")
    for name, ty in program.sig.consts.items():
        lines.append(f"type {name} {ty!r}.")
    if lines and program.clauses:
        lines.append("")
    for c in program.clauses:
        lines.append(f"{show(c)}.")
    return "\n".join(lines) + "\n"


# -- clause re-nesting and named substitution ---------------------------------------------------

def renest_clause(nc: NormalClause) -> Term:
    """Rebuild pi xs. (G1 & ... & Gn) => A (right-nested conjunction)."""
    t = nc.head
    if nc.antecedents:
        g = nc.antecedents[-1]
        for a in reversed(nc.antecedents[:-1]):
            g = conj(a, g)
        t = imp(g, t)
    return quantify(nc.binders, t)


def substitute(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding substitution of repl for the free variable `name`.

    Bound occurrences are untouched by construction (they are indices, not
    names).  Raises TypeMismatch if some occurrence of the variable has a
    type different from repl's.
    """
    rty = repl.ty

    def leaf(u: Term, k: int) -> Term:
        if isinstance(u, Var) and u.name == name:
            if u.ty != rty:
                raise TypeMismatch(
                    f"substituting term of type {rty!r} for {name} of type {u.ty!r}")
            return shift(repl, k)
        return u

    return map_leaves(t, leaf)
