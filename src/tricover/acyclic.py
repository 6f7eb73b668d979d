"""Exact minimum transversal and maximum matching on acyclic hypergraphs.

On a cycle-free hypergraph the two optima coincide. The solver roots the
incidence forest by BFS and sweeps the hyperedges in reverse BFS order, so
deepest first: whenever a hyperedge is not yet hit, its attachment vertex on
the root side joins the transversal and the hyperedge joins the matching.
The two sets come out the same size; since every matching is at most as
large as every transversal, equal sizes certify that both are optimal.

The one solver, `_solve`, reads plain mappings and skips incident ids that
are not hyperedges to solve, so the cover routes solve a remainder in
place: the instance's incidence map with the hyperedges their breaker spares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
    each component, enters every hyperedge from one of its vertices; a
    hyperedge holding an already reached vertex other than that one closes a
    cycle, whatever the visiting order. On a forest, BFS enters hyperedges
    in non-decreasing depth, each from its parent vertex, so the sweep runs
    in reverse entry order, deepest first: a not-yet-hit hyperedge
    contributes its entry vertex to the transversal and itself to the
    matching. A vertex's hyperedges are entered in descending id order, so
    the least unhit one is matched; hyperedges at one depth entered from
    different vertices are disjoint, so their order changes nothing.

    Raises EmptyHyperedgeError when some hyperedge has no vertices (it could
    not be attached to any tree), and CyclicInputError on cyclic input.
    """
    for eid, e in h._edges.items():
        if not e:
            raise EmptyHyperedgeError(f"hyperedge {eid} is empty")
    return _solve(h._edges, h._incident)


def _solve(edges: Mapping[int, frozenset[int]], incident: Mapping[int, Sequence[int]]) -> DualPair:
    """solve_acyclic on `edges`, none empty, whose members are all keys of
    incident, each mapped to its ascending incident ids; ids not in edges
    are skipped. Roots are the members of edges in ascending order, so a
    small remainder of a large instance reads only the incidences of its
    own vertices."""
    reached: set[int] = set()
    entry: dict[int, int] = {}  # hyperedge -> vertex it was entered from, in BFS order
    for root in sorted({v for e in edges.values() for v in e}):
        if root in reached:
            continue
        reached.add(root)
        queue = [root]
        for v in queue:
            for eid in reversed(incident[v]):
                if eid in entry or eid not in edges:
                    continue
                entry[eid] = v
                for w in edges[eid]:
                    if w in reached:
                        if w != v:
                            raise CyclicInputError("hypergraph has a cycle")
                        continue
                    reached.add(w)
                    queue.append(w)

    transversal: set[int] = set()
    matching: set[int] = set()
    for eid in reversed(entry):
        if edges[eid].isdisjoint(transversal):
            transversal.add(entry[eid])
            matching.add(eid)
    return DualPair(frozenset(transversal), frozenset(matching))
