"""Exact minimum transversal and maximum matching on acyclic hypergraphs.

On a cycle-free hypergraph the two optima coincide. The solver roots the
incidence forest and sweeps hyperedge nodes from deepest to shallowest:
whenever a hyperedge is not yet hit, its attachment vertex on the root side
joins the transversal and the hyperedge joins the matching. The two sets come
out the same size; since every matching is at most as large as every
transversal, equal sizes certify that both are optimal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CyclicInputError, EmptyHyperedgeError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class DualPair:
    """A transversal and a matching of equal cardinality.

    Equality of the two sizes is a self-certifying optimality witness: the
    transversal is minimum and the matching is maximum.
    """

    transversal: frozenset[int]
    matching: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.transversal)


def solve_acyclic(h: Hypergraph) -> DualPair:
    """Minimum transversal and maximum matching of an acyclic hypergraph.

    One BFS over the incidence structure, from the least unreached vertex of
    each component, records every hyperedge's depth and the vertex it was
    entered from. A hyperedge holding an already reached vertex other than
    that entry vertex closes a cycle, whatever the visiting order. On a
    forest that order changes nothing either: each hyperedge is entered from
    its parent vertex in the tree rooted at the least vertex, and its depth
    is its BFS distance. Hyperedges are then processed deepest first (ties
    by id); a not-yet-hit hyperedge contributes its entry vertex to the
    transversal and itself to the matching. Components are independent, so
    this global order equals per-component processing.

    Raises EmptyHyperedgeError when some hyperedge has no vertices (it could
    not be attached to any tree), and CyclicInputError on cyclic input.
    """
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        if not e:
            raise EmptyHyperedgeError(f"hyperedge {eid} is empty")

    vertex_depth: dict[int, int] = {}
    edge_depth: dict[int, int] = {}
    entry: dict[int, int] = {}
    for root in sorted(h.vertices):
        if root in vertex_depth:
            continue
        vertex_depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid in h.incident(v):
                if eid in edge_depth:
                    continue
                depth = edge_depth[eid] = vertex_depth[v] + 1
                entry[eid] = v
                for w in h.hyperedge(eid):
                    if w in vertex_depth:
                        if w != v:
                            raise CyclicInputError("hypergraph has a cycle")
                        continue
                    vertex_depth[w] = depth + 1
                    queue.append(w)

    transversal: set[int] = set()
    matching: set[int] = set()
    for eid in sorted(h.hyperedge_ids, key=lambda e: (-edge_depth[e], e)):
        if h.hyperedge(eid).isdisjoint(transversal):
            transversal.add(entry[eid])
            matching.add(eid)
    return DualPair(frozenset(transversal), frozenset(matching))
