"""Reference triangle-packing code for differential tests.

Plain triple scans over has_edge/edge_id, written without the bitmask and
index shortcuts of tricover.graph, so a fast path can be compared with them.
"""

from __future__ import annotations

from itertools import combinations

from tricover import Graph, PackingWitness, Triangle


def reference_triangle(g: Graph, a: int, b: int, c: int) -> Triangle:
    return Triangle((a, b, c), tuple(sorted((g.edge_id(a, b), g.edge_id(b, c), g.edge_id(a, c)))))


def reference_extend_packing(g: Graph, base) -> PackingWitness:
    """The greedy extension before the edge-driven scan: every triangle in
    canonical order, taken when edge-disjoint from those chosen. Triangles
    come from an own triple scan, not from enumerate_triangles."""
    chosen = list(base)
    used = {e for t in chosen for e in t.edge_ids}
    for a, b, c in combinations(range(g.n), 3):
        if not (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)):
            continue
        t = reference_triangle(g, a, b, c)
        if used.isdisjoint(t.edge_ids):
            chosen.append(t)
            used.update(t.edge_ids)
    return PackingWitness(tuple(chosen))
