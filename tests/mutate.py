"""Single-token mutation testing of tricover modules against the tier-1 suite.

Run from the repository root, for example

    python tests/mutate.py src/tricover/cyclebreak.py src/tricover/hypergraph.py

Each mutant changes one token of one module:

* a flipped comparison: < and <=, > and >=, == and !=, in and not in,
  is and is not, each into the other;
* an and/or swap: every operator of one boolean expression;
* a flipped boolean return: return True and return False.

Every mutant runs in a fresh copy of src/, tests/, README.md and
pyproject.toml under a temporary directory, with
`python -m pytest -x -q` and a per-mutant timeout of 240 s, at most two
at a time. A mutant is killed when a test fails, timed out when
the suite did not finish (a hung search, which CI's step timeout would also
catch), and survived when the whole suite passed. Survivors are either
equivalent mutants or gaps in the suite, and each needs a reason.

Standard library only; pytest does not collect this file. The unmutated
copy runs first, and a failure there stops the run with exit code 2.
Otherwise the exit code is 1 when some mutant survived, 0 when none did.
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
COMPARE = re.compile(rb"not\s+in\b|is\s+not\b|<=|>=|==|!=|<|>|\bin\b|\bis\b")
BOOLOP = re.compile(rb"\b(?:and|or)\b")


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    line: int
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
    found: list[Mutant] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                a, gap = _between(source, starts, left, right)
                m = COMPARE.search(gap)
                op = re.sub(r"\s+", " ", m.group().decode())
                edit = (a + m.start(), a + m.end(), FLIP[op])
                found.append(Mutant(path, node.lineno, (edit,), f"{op} -> {FLIP[op]}"))
        elif isinstance(node, ast.BoolOp):
            edits = []
            for left, right in zip(node.values, node.values[1:]):
                a, gap = _between(source, starts, left, right)
                m = BOOLOP.search(gap)
                edits.append((a + m.start(), a + m.end(), FLIP[m.group().decode()]))
            op = "and" if isinstance(node.op, ast.And) else "or"
            found.append(Mutant(path, node.lineno, tuple(edits), f"{op} -> {FLIP[op]}"))
        elif isinstance(node, ast.Return) and isinstance(getattr(node.value, "value", None), bool):
            v = node.value
            a, b = starts[v.lineno] + v.col_offset, starts[v.end_lineno] + v.end_col_offset
            old = source[a:b].decode()
            found.append(Mutant(path, node.lineno, ((a, b, FLIP[old]),), f"return {old} -> return {FLIP[old]}"))
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
    tally = {"killed": 0, "timeout": 0, "survived": 0}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for m, (outcome, seconds) in zip(todo, pool.map(run, todo)):
            tally[outcome] += 1
            print(f"{m.path}:{m.line}: {m.label}: {outcome} ({seconds:.0f} s)", flush=True)
    detected = tally["killed"] + tally["timeout"]
    print(
        f"{detected}/{len(todo)} detected: {tally['killed']} killed, {tally['timeout']} timed out, "
        f"{tally['survived']} survived"
    )
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
