"""Exact minimum transversal and maximum matching on acyclic hypergraphs.

On a cycle-free hypergraph the two optima coincide. The solver roots the
incidence forest and sweeps hyperedge nodes from deepest to shallowest:
whenever a hyperedge is not yet hit, its attachment vertex on the root side
joins the transversal and the hyperedge joins the matching. The two sets come
out the same size; since every matching is at most as large as every
transversal, equal sizes certify that both are optimal.

The one solver, `_solve`, reads plain mappings and skips incident ids that
are not hyperedges to solve, so the cover routes solve a remainder in
place: the instance's incidence map with the hyperedges their breaker spares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
    for eid, e in h._edges.items():
        if not e:
            raise EmptyHyperedgeError(f"hyperedge {eid} is empty")
    return _solve(h._edges, h._incident)


def _solve(edges: Mapping[int, frozenset[int]], incident: Mapping[int, Iterable[int]]) -> DualPair:
    """solve_acyclic on `edges`, none empty, whose members are all keys of
    incident; incident ids not in edges are skipped. Roots are the members
    of edges in ascending order, so a small remainder of a large instance
    reads only the incidences of its own vertices."""
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
