"""The benchmark workloads.

Each workload names its seeded corpus, the instances run once during
set-up as warm-up, the single call that is timed per instance, the output
check, and the percentile of all timed calls reported as its tail latency.
That percentile leaves at least ten calls beyond it in a run, and is one
that stayed steady across seeds in tuning runs (interquartile range under a
tenth of the median); higher ones were decided by the few heaviest
instances a seed happens to draw, or by single noisy calls.

Warm-up runs the smallest instances, so that set-up time does not depend on
which ones the seed happened to shuffle first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import checks
import corpus


class Workload:
    name: str
    tail_percentile: int

    def prepare(self, instances, workdir: str) -> None:
        """Write whatever the timed call reads; nothing by default."""


class CliWorkload(Workload):
    """`tricover <command> FILE <flags>` through cli.main, in-process."""

    command: str
    flags: tuple[str, ...] = ()

    def prepare(self, instances, workdir: str) -> None:
        for i, inst in enumerate(instances):
            inst.path = os.path.join(workdir, f"{self.name}-{i}.txt")
            with open(inst.path, "w") as fh:
                fh.write(inst.text)

    def call(self, tc, inst) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tc.cli.main([self.command, inst.path, *self.flags])
        return rc, out.getvalue() if rc == 0 else err.getvalue()

    def check(self, inst, output) -> tuple[int, int]:
        rc, text = output
        checks.require(rc == 0, f"exit code {rc}: {text.strip()}")
        return self.check_payload(inst, json.loads(text))


class CoverDense(CliWorkload):
    name = "cover-dense"
    tail_percentile = 85
    command = "cover"
    corpus = staticmethod(corpus.cover_dense_corpus)
    check_payload = staticmethod(checks.check_cover)

    def warmup(self, instances) -> list[int]:
        return [min(range(len(instances)), key=lambda i: len(instances[i].edges))]


class AnalyzeSmall(CliWorkload):
    name = "analyze-small"
    tail_percentile = 90
    command = "analyze"
    flags = ("--oracle",)
    corpus = staticmethod(corpus.analyze_small_corpus)
    check_payload = staticmethod(checks.check_analyze)

    def warmup(self, instances) -> list[int]:
        return sorted(range(len(instances)), key=lambda i: len(instances[i].edges))[:5]


class ExperimentG49(Workload):
    name = "experiment-g49"
    tail_percentile = 90
    corpus = staticmethod(corpus.experiment_corpus)

    def warmup(self, instances) -> list[int]:
        return [0, 1]

    def call(self, tc, inst):
        spec = tc.ExperimentSpec(
            n=corpus.EXPERIMENT_N,
            p=corpus.EXPERIMENT_P,
            trials=1,
            seed=inst.params["seed"],
            estimator=inst.params["estimator"],
        )
        return tc.run_experiment(spec)

    def check(self, inst, output) -> tuple[int, int]:
        return checks.check_experiment(inst, output)


class HypergraphMixed(Workload):
    name = "hypergraph-mixed"
    tail_percentile = 95
    corpus = staticmethod(corpus.hypergraph_mixed_corpus)

    def warmup(self, instances) -> list[int]:
        return [
            min((i for i, inst in enumerate(instances) if inst.key.startswith(kind)),
                key=lambda i: len(instances[i].hyperedges))
            for kind in ("linear", "cubic")
        ]

    def call(self, tc, inst) -> tuple[list[str], object]:
        h, labels = tc.parse_hypergraph(inst.text)
        cert = tc.hypergraph_cover(h)
        return sorted(labels[v] for v in cert.cover), cert.claimed_bound

    def check(self, inst, output) -> tuple[int, int]:
        return checks.check_hypergraph(inst, output)


WORKLOADS = {w.name: w for w in (CoverDense(), HypergraphMixed(), ExperimentG49(), AnalyzeSmall())}
