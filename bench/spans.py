"""Span tracing of tricover's public functions, installed from outside the package.

Modules bind imported names at import time (``from .hypergraph import
is_linear``), so a wrapper set on the defining module alone would miss most
calls. `Tracer.install` therefore rebinds every ``tricover`` module attribute
that is the original function object, and `Tracer.uninstall` puts the
originals back, so untraced passes run the package exactly as shipped.

Spans are kept in memory as (group, function, start, end, parent, instance)
and written out once at the end. Counts that describe what the algorithm did
(triangles found, FVS rule histogram, FES size) are read from the values the
functions return, never from timers.
"""

from __future__ import annotations

import collections
import json
import sys
import time

# (metric group, module, function). A group's layer is its first dotted
# part; functions sharing a group are summed. Groups ending in ".other" only
# feed their layer's total.
TRACED = (
    ("cli.main", "cli", "main"),
    ("io.parse", "io", "parse_graph"),
    ("io.parse", "io", "parse_hypergraph"),
    ("graph.enumerate_triangles", "graph", "enumerate_triangles"),
    ("graph.random_gnp", "graph", "random_gnp"),
    ("graph.packing", "graph", "greedy_triangle_packing"),
    ("graph.packing", "graph", "extend_packing"),
    ("graph.bipartite_cut_cover", "graph", "bipartite_cut_cover"),
    ("graph.other", "graph", "irreducible_subgraph"),
    ("hypergraph.is_linear", "hypergraph", "is_linear"),
    ("hypergraph.triangle_hypergraph", "hypergraph", "triangle_hypergraph"),
    ("hypergraph.on_cycle_elements", "hypergraph", "on_cycle_elements"),
    ("hypergraph.rebuild", "hypergraph", "delete_vertices"),
    ("hypergraph.rebuild", "hypergraph", "delete_hyperedges"),
    ("hypergraph.shortest_cycle", "hypergraph", "shortest_cycle"),
    ("hypergraph.other", "hypergraph", "is_acyclic"),
    ("hypergraph.other", "hypergraph", "is_k_uniform"),
    ("hypergraph.other", "hypergraph", "components"),
    ("cyclebreak.feedback_vertex_set", "cyclebreak", "feedback_vertex_set"),
    ("cyclebreak.minimal_fes", "cyclebreak", "minimal_fes"),
    ("cyclebreak.other", "cyclebreak", "fes_size_bound"),
    ("acyclic.solve_acyclic", "acyclic", "solve_acyclic"),
    ("cover", "cover", "best_cover"),
    ("cover", "cover", "cover_via_fvs"),
    ("cover", "cover", "cover_via_fes"),
    ("cover", "cover", "cover_via_bipartite"),
    ("cover", "cover", "hypergraph_cover"),
    ("cover", "cover", "condition_report"),
    ("cover.cover_is_valid", "cover", "cover_is_valid"),
    ("oracles.max_triangle_packing", "oracles", "max_triangle_packing"),
    ("oracles.max_matching", "oracles", "max_matching"),
    ("oracles.steiner_triple_system", "oracles", "steiner_triple_system"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
)

LAYERS = ("cli", "io", "graph", "hypergraph", "cyclebreak", "acyclic", "cover", "oracles", "experiment")

# Rule names of FvsResult.trace at the time the benchmark was written; any
# other name is counted under "other".
FVS_RULES = (
    "base",
    "drop_off_cycle_vertex",
    "drop_off_cycle_hyperedge",
    "take_high_degree_vertex",
    "take_vertex_past_pendant_edge",
    "break_cycle_len_0_mod_3",
    "break_cycle_len_1_mod_3",
    "break_cycle_len_4_paired_detours",
    "break_cycle_len_2_mod_3",
)


def _observe(fname: str, result) -> tuple | None:
    """Counts taken from a returned value, stored on the span.

    A return type reshaped by a later change yields no counts rather than a
    failed instance.
    """
    try:
        if fname == "enumerate_triangles":
            return (len(result),)
        if fname == "feedback_vertex_set":
            return (len(result.removed_vertices), tuple(step[0] for step in result.trace))
        if fname == "minimal_fes":
            return (len(result.removed_hyperedges),)
    except (AttributeError, TypeError, IndexError):
        pass
    return None


class Tracer:
    """Records spans of the TRACED functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fname = fn.__name__

        def traced(*args, **kwargs):
            rec = [group, fname, clock(), 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            rec[6] = _observe(fname, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fname
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "tricover" or name.startswith("tricover.")]
        self.absent = []
        for group, modname, fname in TRACED:
            home = sys.modules.get(f"tricover.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(group, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._stack.clear()

    def self_times(self, first: int, last: int) -> dict[int, float]:
        """Per span in spans[first:last]: its duration minus its direct children's."""
        own = {i: self.spans[i][3] - self.spans[i][2] for i in range(first, last)}
        for i in range(first, last):
            parent = self.spans[i][4]
            if parent >= 0:
                own[parent] -= self.spans[i][3] - self.spans[i][2]
        return own

    def metrics(self, first: int, last: int, scale: list[float]) -> dict[str, float]:
        """Per-layer totals over spans[first:last] (one traced corpus pass),
        each self time multiplied by its instance's scale factor."""
        selfs = self.self_times(first, last)
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        layer_s: collections.Counter = collections.Counter()
        rules: collections.Counter = collections.Counter()
        triangles = fvs_taken = fes_size = 0
        for i in range(first, last):
            group, fname, _, _, _, instance, seen = self.spans[i]
            own = selfs[i] * scale[instance]
            calls[group] += 1
            self_s[group] += own
            layer_s[group.split(".")[0]] += own
            if seen is None:
                continue
            if fname == "enumerate_triangles":
                triangles += seen[0]
            elif fname == "feedback_vertex_set":
                fvs_taken += seen[0]
                rules.update(r if r in FVS_RULES else "other" for r in seen[1])
            elif fname == "minimal_fes":
                fes_size += seen[0]
        steps = sum(rules.values())
        out: dict[str, float] = {}
        for group in dict.fromkeys(g for g, _, _ in TRACED):
            if not group.endswith(".other"):
                out[f"{group}.calls"] = calls[group]
                out[f"{group}.self_s"] = self_s[group]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_s[layer]
        out["graph.triangles"] = triangles
        out["cyclebreak.fvs_steps"] = steps
        for rule in FVS_RULES + ("other",):
            out[f"cyclebreak.fvs_rule.{rule}"] = rules[rule]
        out["cyclebreak.fvs_take_ratio"] = fvs_taken / steps if steps else 0.0
        out["cyclebreak.fes_size"] = fes_size
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for group, fname, start, end, parent, instance, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": f"{group}:{fname}", "start": start, "end": end, "parent": parent, "instance": instance}
                    )
                    + "\n"
                )
