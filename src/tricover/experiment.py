"""Random-graph experiment harness.

Each trial draws one Erdos-Renyi graph, estimates a triangle-packing lower
bound, and sizes the bipartition cover. Trial i uses seed (base seed + i), so
trials are independent and individually reproducible.

Packing estimators:

* greedy: maximal edge-disjoint triangles in canonical order;
* steiner-seeded (needs n = 1 or 3 mod 6): start from the triangles of a
  fixed triangle decomposition of K_n that survive into the sample, then
  greedily extend to a maximal packing. The survivor count alone is already a
  valid lower bound and is reported separately.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .errors import ExperimentSpecError
from .graph import _surviving_triangles, bipartite_cut_cover, extend_packing, random_gnp
from .oracles import steiner_triple_system

ESTIMATORS = ("greedy", "steiner-seeded")


@dataclass(frozen=True)
class ExperimentSpec:
    n: int
    p: float
    trials: int
    seed: int
    estimator: str = "greedy"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ExperimentSpecError("n must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ExperimentSpecError("p must lie in [0, 1]")
        if self.trials < 1:
            raise ExperimentSpecError("need at least one trial")
        if self.estimator not in ESTIMATORS:
            raise ExperimentSpecError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        if self.estimator == "steiner-seeded" and (self.n < 3 or self.n % 6 not in (1, 3)):
            raise ExperimentSpecError("steiner-seeded estimator needs n = 1 or 3 (mod 6), n >= 3")


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    num_edges: int
    steiner_survivors: int | None
    packing_lower: int
    cover_size: int
    packing_over_edges: float | None
    cover_over_packing: float | None
    packing_ge_quarter_edges: bool | None
    cover_le_twice_packing: bool | None


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    records: tuple[TrialRecord, ...]

    @property
    def applicable_trials(self) -> int:
        return sum(1 for r in self.records if r.num_edges > 0)

    @property
    def packing_ok_count(self) -> int:
        return sum(1 for r in self.records if r.packing_ge_quarter_edges)

    @property
    def cover_ok_count(self) -> int:
        return sum(1 for r in self.records if r.cover_le_twice_packing)

    @property
    def fraction_packing_ge_quarter(self) -> float | None:
        if self.applicable_trials == 0:
            return None
        return self.packing_ok_count / self.applicable_trials

    @property
    def fraction_cover_le_twice(self) -> float | None:
        if self.applicable_trials == 0:
            return None
        return self.cover_ok_count / self.applicable_trials


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    steiner = spec.estimator == "steiner-seeded"
    # Steiner triples are sorted, a < b < c, so each survivor's edge ids ascend.
    base_triples = [t.vertices for t in steiner_triple_system(spec.n).triangles] if steiner else []

    records = []
    for i in range(spec.trials):
        trial_seed = spec.seed + i
        g = random_gnp(spec.n, spec.p, trial_seed)
        alive = _surviving_triangles(g, base_triples)  # empty for greedy, which has no base
        packing = extend_packing(g, alive)

        cover = bipartite_cut_cover(g)
        m = g.num_edges
        records.append(
            TrialRecord(
                index=i,
                seed=trial_seed,
                num_edges=m,
                steiner_survivors=len(alive) if steiner else None,
                packing_lower=len(packing),
                cover_size=len(cover),
                packing_over_edges=len(packing) / m if m > 0 else None,
                cover_over_packing=len(cover) / len(packing) if packing.triangles else None,
                packing_ge_quarter_edges=(4 * len(packing) >= m) if m > 0 else None,
                cover_le_twice_packing=(len(cover) <= 2 * len(packing)) if m > 0 else None,
            )
        )
    return ExperimentResult(spec, tuple(records))


# (CSV column and CLI record key, TrialRecord attribute), in output order.
RECORD_COLUMNS = (
    ("trial", "index"),
    ("seed", "seed"),
    ("edges", "num_edges"),
    ("steiner_survivors", "steiner_survivors"),
    ("packing_lower", "packing_lower"),
    ("cover_size", "cover_size"),
    ("packing_over_edges", "packing_over_edges"),
    ("cover_over_packing", "cover_over_packing"),
    ("packing_ge_quarter_edges", "packing_ge_quarter_edges"),
    ("cover_le_twice_packing", "cover_le_twice_packing"),
)


def write_csv(result: ExperimentResult, path: str) -> None:
    """Per-trial records as CSV; booleans as 0/1, missing values blank."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for column, _ in RECORD_COLUMNS])
        for r in result.records:
            writer.writerow([cell(getattr(r, attr)) for _, attr in RECORD_COLUMNS])
