"""Reference acyclic solver for differential tests.

`_solve` is the depth-and-sort solver that `tricover.acyclic` ran before its
sweep in reverse BFS order: one BFS records every hyperedge's depth and the
vertex it was entered from, and the greedy sweep then visits the hyperedges
deepest first, ties by id. The package's solver must return exactly the same
transversal and matching.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from tricover.acyclic import DualPair
from tricover.errors import CyclicInputError


def _solve(edges: Mapping[int, frozenset[int]], incident: Mapping[int, Iterable[int]]) -> DualPair:
    """tricover.acyclic._solve, with depth maps and a sort by (-depth, id):
    `edges` none empty, whose members are all keys of incident; incident
    ids not in edges are skipped. Roots are the members of edges in
    ascending order."""
    vertex_depth: dict[int, int] = {}
    edge_depth: dict[int, int] = {}
    entry: dict[int, int] = {}
    unreached = dict(edges)
    for root in sorted({v for e in edges.values() for v in e}):
        if root in vertex_depth:
            continue
        vertex_depth[root] = 0
        queue = [root]
        for v in queue:
            for eid in incident[v]:
                if (e := unreached.pop(eid, None)) is None:
                    continue
                depth = edge_depth[eid] = vertex_depth[v] + 1
                entry[eid] = v
                for w in e:
                    if w in vertex_depth:
                        if w != v:
                            raise CyclicInputError("hypergraph has a cycle")
                        continue
                    vertex_depth[w] = depth + 1
                    queue.append(w)

    transversal: set[int] = set()
    matching: set[int] = set()
    for eid in sorted(edges, key=lambda e: (-edge_depth[e], e)):
        if edges[eid].isdisjoint(transversal):
            transversal.add(entry[eid])
            matching.add(eid)
    return DualPair(frozenset(transversal), frozenset(matching))
