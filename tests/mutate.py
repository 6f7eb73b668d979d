"""Single-token mutation testing of tricover modules against the tier-1 suite.

Run from the repository root, for example

    python tests/mutate.py src/tricover/cyclebreak.py src/tricover/hypergraph.py

Each mutant changes one token of one module:

* a flipped comparison: < and <=, > and >=, == and !=, in and not in,
  is and is not, each into the other;
* an and/or swap: every operator of one boolean expression;
* a flipped boolean return: return True and return False;
* a min/max swap: a call of min made a call of max, and max of min;
* an integer literal moved by one: n into n + 1, and n into n - 1.

Every mutant runs in a fresh copy of src/, tests/, README.md and
pyproject.toml under a temporary directory, with
`python -m pytest -x -q` and a per-mutant timeout of 240 s, at most two
at a time. A mutant is killed when a test fails, timed out when
the suite did not finish (a hung search, which CI's step timeout would also
catch), and survived when the whole suite passed. Survivors are either
equivalent mutants or gaps in the suite, and each needs a reason. The
reasons found so far are kept in EQUIVALENT: a survivor listed there is
reported as equivalent, with its reason, and is not a gap.

Standard library only; pytest does not collect this file. The unmutated
copy runs first, and a failure there stops the run with exit code 2.
Otherwise the exit code is 1 when some mutant survived that EQUIVALENT does
not list, 0 when none did.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 240  # seconds per mutant: the suite takes about 20 s, and some mutants hang a search
JOBS = 2  # mutants run at once
COPIED = ("src", "tests", "README.md", "pyproject.toml")
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "in": "not in", "not in": "in"}
FLIP.update({"is": "is not", "is not": "is", "and": "or", "or": "and", "True": "False", "False": "True"})
FLIP.update({"min": "max", "max": "min"})
COMPARE = re.compile(rb"not\s+in\b|is\s+not\b|<=|>=|==|!=|<|>|\bin\b|\bis\b")
BOOLOP = re.compile(rb"\b(?:and|or)\b")

# Mutants that change no answer, keyed by (module file, stripped source line,
# label) rather than line number, so that edits elsewhere keep them valid.
# The three take lines of FVS rule 5, each with several equivalent mutants.
RULE5_0 = "take = [vs[i - 1] for i in range(1, k + 1) if i % 3 == 0]"
RULE5_1 = "take = [us[0], us[2]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 0]"
RULE5_2 = "take = [us[0]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 1]"
EQUIVALENT = {
    ("cover.py", "if any(w > v for w in adj[u] & adj[v]):", "> -> >="): "w is a neighbour of v, so w != v",
    ("cyclebreak.py", "if best is None or key < best:", "< -> <="): "the keys of distinct cycles are unique",
    ("cyclebreak.py", "if w < start or w in spine:", "< -> <="): "start is on the spine, so w == start is skipped anyway",
    ("cyclebreak.py", "degree = degrees.get(high, 0)", "0 -> -1 at column 27"): (
        "a vertex gone from degrees has no hyperedge left, and any default below 3 drops its stale entry alike"
    ),
    ("cyclebreak.py", "degree = degrees.get(high, 0)", "0 -> 1 at column 27"): (
        "a vertex gone from degrees has no hyperedge left, and any default below 3 drops its stale entry alike"
    ),
    ("cyclebreak.py", "if len(rest) != 1 or rest[0] in es:", "0 -> -1 at column 26"): (
        "the or reads rest[0] only when rest has one element, so rest[-1] is the same"
    ),
    ("cyclebreak.py", "return rest[0]", "0 -> -1 at column 12"): "the guard leaves rest one element, so rest[-1] is rest[0]",
    ("cyclebreak.py", RULE5_0, "1 -> 2 at column 33"): "i = 1 is not 0 mod 3, so it took no vertex",
    ("cyclebreak.py", RULE5_0, "1 -> 2 at column 40"): "k = 0 mod 3 here, so i = k + 1 is not 0 mod 3",
    ("cyclebreak.py", "us = us[1:] + us[:1]", "1 -> 0 at column 18"): "only us[0] and us[2] are read on, both from us[1:]",
    ("cyclebreak.py", "us = us[1:] + us[:1]", "1 -> 2 at column 18"): "only us[0] and us[2] are read on, both from us[1:]",
    ("cyclebreak.py", RULE5_1, "4 -> 5 at column 50"): "i = 4 is not 0 mod 3, so it took no vertex",
    ("cyclebreak.py", RULE5_1, "1 -> 0 at column 57"): "k = 1 mod 3 here, so i = k is not 0 mod 3",
    ("cyclebreak.py", RULE5_1, "1 -> 2 at column 57"): "k = 1 mod 3 here, so i = k + 1 is not 0 mod 3",
    ("cyclebreak.py", RULE5_2, "4 -> 3 at column 43"): "i = 3 is not 1 mod 3, so it takes no vertex",
    ("cyclebreak.py", RULE5_2, "1 -> 0 at column 50"): "k = 2 mod 3 here, so i = k is not 1 mod 3",
    ("cyclebreak.py", RULE5_2, "1 -> 2 at column 50"): "k = 2 mod 3 here, so i = k + 1 is not 1 mod 3",
    ("cyclebreak.py", "if len(removed) > h.num_hyperedges // 3:", "3 -> 2 at column 38"): (
        "no input exceeds the floor(m/3) bound, a theorem, so the looser floor(m/2) check raises on none either"
    ),
    ("cyclebreak.py", "for length in range(3, len(edges) + 1):", "3 -> 2 at column 20"): (
        "a linear hypergraph has no cycle of length 2, so the extra pass finds none"
    ),
    ("cyclebreak.py", "for length in range(3, len(edges) + 1):", "1 -> 2 at column 36"): (
        "no cycle has more hyperedges than the input, so the extra length finds none before the raise"
    ),
    ("oracles.py", "if len(chosen) < len(best):", "< -> <="): (
        "a leaf passed its parent's bound check, so it is already smaller than the incumbent"
    ),
}


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    line: int
    text: str  # the stripped source line
    edits: tuple[tuple[int, int, str], ...]  # (start, end, replacement), byte offsets into the source
    label: str

    def apply(self, source: bytes) -> bytes:
        for start, end, text in sorted(self.edits, reverse=True):
            source = source[:start] + text.encode() + source[end:]
        return source


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the first character of each line, 1-based by index:
    ast column offsets count UTF-8 bytes."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _between(source: bytes, starts: list[int], left: ast.AST, right: ast.AST) -> tuple[int, bytes]:
    """The source between two nodes, and its offset."""
    a = starts[left.end_lineno] + left.end_col_offset
    b = starts[right.lineno] + right.col_offset
    return a, source[a:b]


def mutants(path: str) -> list[Mutant]:
    """Every mutant of the module at path, in source order."""
    source = (ROOT / path).read_bytes()
    starts = _offsets(source)
    lines = source.decode().splitlines()
    found: list[Mutant] = []

    def add(node: ast.AST, edits: tuple[tuple[int, int, str], ...], label: str) -> None:
        found.append(Mutant(path, node.lineno, lines[node.lineno - 1].strip(), edits, label))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                a, gap = _between(source, starts, left, right)
                m = COMPARE.search(gap)
                op = re.sub(r"\s+", " ", m.group().decode())
                edit = (a + m.start(), a + m.end(), FLIP[op])
                add(node, (edit,), f"{op} -> {FLIP[op]}")
        elif isinstance(node, ast.BoolOp):
            edits = []
            for left, right in zip(node.values, node.values[1:]):
                a, gap = _between(source, starts, left, right)
                m = BOOLOP.search(gap)
                edits.append((a + m.start(), a + m.end(), FLIP[m.group().decode()]))
            op = "and" if isinstance(node.op, ast.And) else "or"
            add(node, tuple(edits), f"{op} -> {FLIP[op]}")
        elif isinstance(node, ast.Return) and isinstance(getattr(node.value, "value", None), bool):
            v = node.value
            a, b = starts[v.lineno] + v.col_offset, starts[v.end_lineno] + v.end_col_offset
            old = source[a:b].decode()
            add(node, ((a, b, FLIP[old]),), f"return {old} -> return {FLIP[old]}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            f = node.func
            a = starts[f.lineno] + f.col_offset
            add(node, ((a, a + len(f.id), FLIP[f.id]),), f"{f.id} -> {FLIP[f.id]}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            a, b = starts[node.lineno] + node.col_offset, starts[node.end_lineno] + node.end_col_offset
            if source[a:b].decode() != str(node.value):
                continue  # not a plain decimal literal at this span: an f-string part, say
            # A line can hold one literal more than once, so the label names its column.
            column = a - starts[node.lineno] - (len(lines[node.lineno - 1]) - len(lines[node.lineno - 1].lstrip()))
            for moved in (node.value + 1, node.value - 1):
                add(node, ((a, b, str(moved)),), f"{node.value} -> {moved} at column {column}")
    return sorted(found, key=lambda m: (m.line, m.edits))


def run(mutant: Mutant | None) -> tuple[str, float]:
    """Run tier-1 on a copy with the mutant applied, if any: killed,
    survived or timeout."""
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="tricover-mutant-") as work:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, Path(work, name), ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, Path(work, name))
        if mutant:
            target = Path(work, mutant.path)
            target.write_bytes(mutant.apply(target.read_bytes()))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        proc = subprocess.Popen(
            cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        try:
            code = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.monotonic() - began
    return ("survived" if code == 0 else "killed"), time.monotonic() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the repository root")
    args = parser.parse_args(argv)

    todo = [m for path in args.modules for m in mutants(path)]
    baseline, seconds = run(None)
    print(f"unmutated copy: {'passed' if baseline == 'survived' else baseline} ({seconds:.0f} s)", flush=True)
    if baseline != "survived":
        return 2
    tally = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for m, (outcome, seconds) in zip(todo, pool.map(run, todo)):
            reason = EQUIVALENT.get((Path(m.path).name, m.text, m.label))
            if outcome == "survived" and reason:
                outcome = f"equivalent, {reason}"
                tally["equivalent"] += 1
            else:
                tally[outcome] += 1
            print(f"{m.path}:{m.line}: {m.label}: {outcome} ({seconds:.0f} s)", flush=True)
    detected = tally["killed"] + tally["timeout"]
    print(
        f"{detected}/{len(todo)} detected: {tally['killed']} killed, {tally['timeout']} timed out, "
        f"{tally['equivalent']} equivalent, {tally['survived']} survived"
    )
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
