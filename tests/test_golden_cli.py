"""Golden CLI outputs: `cli.main` stdout, stderr and exit code, byte for byte.

Each case runs one command on a fixture from tests/golden/inputs. The
expected stdout of case NAME is tests/golden/expected/NAME.out; exit codes
and stderr of all cases are in tests/golden/expected/status.json, and the
CSV that `random-experiment --csv` writes is NAME.csv. Default output is
part of the package's contract, so a change that alters it on purpose
regenerates the goldens and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tricover.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

GRAPHS = ("k4", "k5", "book3", "gnp12", "triangle_free")
HYPERGRAPHS = ("fano", "petersen_dual", "non_linear")


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; "{csv}" stands for a CSV output path."""
    cases: dict[str, list[str]] = {}
    for name in GRAPHS:
        path = f"{name}.txt"
        cases[f"{name}-cover"] = ["cover", path]
        for strategy in ("best", "fvs", "fes", "bipartite"):
            cases[f"{name}-cover-{strategy}-explain"] = ["cover", path, "--strategy", strategy, "--explain"]
        cases[f"{name}-analyze"] = ["analyze", path]
        cases[f"{name}-analyze-oracle"] = ["analyze", path, "--oracle"]
    # The edges of random_gnp(16, 0.95, 1): a dense graph whose FVS trace is
    # mostly rule 3 and rule-2 drops, so it pins the cycle searches' effect.
    for strategy in ("best", "fvs"):
        cases[f"gnp16_dense-cover-{strategy}-explain"] = ["cover", "gnp16_dense.txt", "--strategy", strategy, "--explain"]
    # Its 115 edges are over the oracle's 40-edge cap: pins exit code 4.
    cases["gnp16_dense-analyze-oracle"] = ["analyze", "gnp16_dense.txt", "--oracle"]
    for name in HYPERGRAPHS:
        for command in ("fvs", "fes", "solve-acyclic"):
            cases[f"{name}-{command}"] = [command, f"{name}.txt"]
    cases["experiment-greedy"] = [
        "random-experiment", "--n", "9", "--p", "0.5", "--trials", "4", "--seed", "1", "--csv", "{csv}",
    ]
    cases["experiment-steiner"] = [
        "random-experiment", "--n", "13", "--p", "0.6", "--trials", "3", "--seed", "2",
        "--estimator", "steiner-seeded", "--csv", "{csv}",
    ]
    # The paper's own experiment scale, G(49, 0.95).
    g49 = ["random-experiment", "--n", "49", "--p", "0.95", "--trials", "3", "--seed", "1", "--csv", "{csv}"]
    cases["experiment-g49-greedy"] = g49
    cases["experiment-g49-steiner"] = g49 + ["--estimator", "steiner-seeded"]
    return cases


CASES = _cases()


def run_case(argv: list[str], csv_path: Path) -> tuple[int, str, str, bytes | None]:
    """(exit code, stdout, stderr, CSV bytes or None) of one case."""
    resolved = []
    for arg in argv:
        if arg == "{csv}":
            resolved.append(str(csv_path))
        elif arg.endswith(".txt"):
            resolved.append(str(INPUTS / arg))
        else:
            resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    csv_bytes = csv_path.read_bytes() if "{csv}" in argv else None
    return code, out.getvalue(), err.getvalue(), csv_bytes


@pytest.fixture(scope="module")
def status() -> dict:
    return json.loads((EXPECTED / "status.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, status, tmp_path):
    code, out, err, csv_bytes = run_case(CASES[name], tmp_path / "out.csv")
    assert {"exit": code, "stderr": err} == status[name]
    assert out == (EXPECTED / f"{name}.out").read_text()
    if csv_bytes is not None:
        assert csv_bytes == (EXPECTED / f"{name}.csv").read_bytes()


def test_every_golden_file_has_a_case():
    names = {p.stem for p in EXPECTED.iterdir() if p.suffix in (".out", ".csv")}
    assert names <= set(CASES)


def _regenerate() -> None:
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    status = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            code, out, err, csv_bytes = run_case(argv, Path(tmp) / "out.csv")
            status[name] = {"exit": code, "stderr": err}
            (EXPECTED / f"{name}.out").write_text(out)
            if csv_bytes is not None:
                (EXPECTED / f"{name}.csv").write_bytes(csv_bytes)
    (EXPECTED / "status.json").write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
