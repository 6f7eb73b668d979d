"""Closed-loop benchmark of the tricover pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process, one thread, one caller: each
instance of the seeded corpus is sent when the previous one returns, in
whole passes over the corpus, until the next pass would end after S
seconds (at least MIN_PASSES passes). Every output is checked. The last
stdout line is one JSON object with "correct", "attempted", "failed" and
"metrics"; metric names and units come from BENCHMARK.json at the root
("end_to_end" with --trace 0, "per_layer" with --trace 1).

Every timing is scaled for the host's speed at the time it was taken (see
hostspeed.py): it is the time the call would take on a host whereon a fixed
reference kernel takes hostspeed.REFERENCE_S. Between calls the kernel is
run at least every hostspeed.INTERVAL_S; the calibration is not timed.

The collector runs before each timed call, untimed, and the benchmark's
own objects are frozen out of it after set-up (gc.freeze), so the garbage
collection a call pays for depends on its own allocations, as in a fresh
process. Otherwise it depends on the benchmark's heap and on where the
previous call left the collector's counters: at G(49, 0.95) a full
collection of about 12 ms fell on every other trial, and on greedy or on
steiner-seeded trials depending on the seed.

Each instance is timed by the median of its scaled repetitions. The
end-to-end metrics are then taken over the corpus: the median of those
per-instance times, the instance count over their sum as throughput, the
mean of the per-instance scaled CPU times, and as tail latency a fixed upper
percentile of all scaled calls of the run (the workload's tail_percentile,
set so that a run has at least ten calls beyond it). Cover sizes and lower
bounds are summed over the corpus once, so they do not grow with the
number of passes. setup_s is the median of SETUP_REPEATS complete set-ups
(import, corpus, files, warm-up), each scaled as a whole.

With --trace 1, untraced and traced passes alternate; the per-layer
metrics are totals for one traced pass over the corpus, self times scaled
per instance, and the spans are written to .bench_work/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 11
MIN_PASSES = 3

sys.path.insert(0, HERE)

import corpus  # noqa: E402
from checks import CheckFailed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """Counts attempts and failures, and keeps the first output of each instance."""

    def __init__(self, workload, instances, tc, speed: HostSpeed):
        self.workload = workload
        self.instances = instances
        self.tc = tc
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}
        self.quality: dict[int, tuple[int, int]] = {}
        self.errors: list[str] = []
        self.info: dict = {}

    def one(self, i: int, inst) -> tuple[float, float, float]:
        """Time one instance, then check its output outside the timed region.

        Returns the call's start in run time, its wall time and its CPU time.
        """
        self.attempted += 1
        output = error = None
        gc.collect()
        start = self.speed.now()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            output = self.workload.call(self.tc, inst)
        except Exception:
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if error is None:
            try:
                quality = self.workload.check(inst, output)
                if i in self.first and self.first[i] != output:
                    raise CheckFailed("output differs from the first pass")
                self.first.setdefault(i, output)
                self.quality.setdefault(i, quality)
            except (CheckFailed, KeyError, TypeError, ValueError) as ex:
                error = f"check failed: {type(ex).__name__}: {ex}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{inst.key}: {error}")
        return start, wall, cpu

    def one_pass(self, tracer: Tracer | None = None) -> list[tuple[float, float, float]]:
        """One pass over the corpus, sampling the host's speed between calls."""
        timings = []
        for i, inst in enumerate(self.instances):
            self.speed.tick()
            if tracer is not None:
                tracer.instance = i
            timings.append(self.one(i, inst))
        return timings

    def scaled(self, timings: list[tuple[float, float, float]]) -> list[tuple[float, float]]:
        """(wall, cpu) of each timing, scaled for the host's speed around it."""
        out = []
        for start, wall, cpu in timings:
            factor = self.speed.scale(start, start + wall)
            out.append((wall * factor, cpu * factor))
        return out


def load_package():
    """Import tricover from src/ afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "tricover" or n.startswith("tricover.")]:
        del sys.modules[name]
    tc = importlib.import_module("tricover")
    importlib.import_module("tricover.cli")
    return tc


def set_up(workload, seed: int, speed: HostSpeed) -> tuple[float, Run]:
    """Import, generate the corpus, write input files, warm up. Timed as a whole."""
    speed.sample()
    start = speed.now()
    tc = load_package()
    instances = workload.corpus(seed)
    workload.prepare(instances, WORKDIR)
    run = Run(workload, instances, tc, speed)
    for i in workload.warmup(instances):
        run.one(i, instances[i])
    end = speed.now()
    speed.sample()
    return (end - start) * speed.scale(start, end), run


def untraced(run: Run, seconds: float) -> dict[str, float]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run.one_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    run.speed.sample()
    per_instance: list[list[tuple[float, float]]] = [[] for _ in run.instances]
    for timings in passes:
        for i, scaled in enumerate(run.scaled(timings)):
            per_instance[i].append(scaled)
    wall = [statistics.median(w for w, _ in s) for s in per_instance]
    cpu = [statistics.median(c for _, c in s) for s in per_instance]
    every_call = [w for s in per_instance for w, _ in s]
    n = len(run.instances)
    q = run.workload.tail_percentile / 100
    run.info = dict(passes=len(passes), timed_calls=len(every_call), tail=f"p{run.workload.tail_percentile}",
                    calls_beyond_tail=round((1 - q) * (len(every_call) - 1), 1), kernel_samples=len(run.speed.took))
    return {
        "throughput_per_s": n / sum(wall),
        "latency_p50_ms": 1000 * statistics.median(wall),
        "latency_tail_ms": 1000 * quantile(every_call, q),
        "cpu_ms_per_inst": 1000 * statistics.mean(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cover_size_total": sum(c for c, _ in run.quality.values()),
        "lower_bound_total": sum(lb for _, lb in run.quality.values()),
    }


def traced(run: Run, seconds: float, seed: int) -> dict[str, float]:
    tracer = Tracer()
    pairs = []
    start = time.perf_counter()
    while True:
        plain = run.one_pass()
        first = len(tracer.spans)
        tracer.install()
        try:
            with_trace = run.one_pass(tracer)
        finally:
            tracer.uninstall()
        pairs.append((plain, with_trace, first, len(tracer.spans)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    run.speed.sample()
    plain_s = traced_s = 0.0
    layer_runs: list[dict[str, float]] = []
    for plain, with_trace, first, last in pairs:
        plain_s += sum(w for w, _ in run.scaled(plain))
        factors = [run.speed.scale(t, t + wall) for t, wall, _ in with_trace]
        traced_s += sum(wall * f for (_, wall, _), f in zip(with_trace, factors))
        layer_runs.append(tracer.metrics(first, last, factors))
    path = os.path.join(WORKDIR, f"spans-{run.workload.name}-seed{seed}.jsonl")
    tracer.write(path)
    run.info = dict(pairs=len(pairs), spans=len(tracer.spans), span_file=os.path.relpath(path, ROOT),
                    absent=tracer.absent)
    out: dict[str, float] = {}
    for name, value in layer_runs[0].items():
        # Counts repeat exactly on every pass; times are averaged over passes.
        out[name] = statistics.mean(r[name] for r in layer_runs) if name.endswith("_s") else value
    out["trace.wall_s"] = traced_s / len(pairs)
    out["trace.overhead_ratio"] = traced_s / plain_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "tricover", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: run from a tricover checkout; {SRC}/tricover or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload]

    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, run = set_up(workload, args.seed, speed)
        setups.append(setup_s)
    gc.collect()
    gc.freeze()

    if args.trace:
        values = traced(run, args.seconds, args.seed)
        wanted = spec["per_layer"]
    else:
        values = untraced(run, args.seconds)
        values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]

    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
              f"unlisted {sorted(set(values) - names)}", file=sys.stderr)
        return 3
    for err in run.errors:
        print(f"error: {err}", file=sys.stderr)
    info = dict(workload=workload.name, seed=args.seed, corpus=len(run.instances), digest=corpus.digest(run.instances),
                error_rate=run.failed / run.attempted, **run.info)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
