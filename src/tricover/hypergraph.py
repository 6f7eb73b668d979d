"""Hypergraphs, their cycles and the one acyclicity test.

A cycle of length k >= 2 is an alternating sequence v1 e1 v2 e2 ... vk ek v1
with distinct vertices, distinct hyperedges, and {v_i, v_{i+1}} contained in
e_i (indices mod k). The cycle is treated as a sub-hypergraph whose vertex set
is the union of its hyperedges. Consequences used throughout:

* a hyperedge lies on a cycle when it is one of the cycle's hyperedges;
* a vertex lies on a cycle when it belongs to any hyperedge of some cycle,
  even if it is not one of the v_i on the alternating spine;
* in a linear hypergraph every cycle has length at least 3, since a 2-cycle
  would force two hyperedges to share two vertices.

Hyperedge i is the i-th hyperedge given to the constructor, and no deletion
renumbers the rest, so recursion traces and witness sets always refer to the
input instance.

A Hypergraph holds two mappings, hyperedge id -> members and non-isolated
vertex -> ascending incident hyperedge ids; the cycle searches of the
cycle-breaking engines read them directly, never a copy of the second.
Hypergraph cycles of length k are exactly the incidence-graph cycles of
length 2k, and `are_acyclic` decides them with one union-find pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, pairwise
from typing import Collection, Iterable

from .graph import Graph, _triangle_scan


class Hypergraph:
    """Hypergraph with integer vertex ids and hyperedge ids 0..m-1 in input order."""

    __slots__ = ("vertices", "_edges", "_incident")

    def __init__(self, vertices: Iterable[int], hyperedges: Iterable[Iterable[int]]):
        self.vertices = vs = frozenset(vertices)
        self._edges = {i: frozenset(e) for i, e in enumerate(hyperedges)}
        incident: dict[int, list[int]] = {}
        for eid, e in self._edges.items():
            for v in e:
                if v not in vs:
                    raise ValueError(f"hyperedge {eid} contains unknown vertex {v}")
                incident.setdefault(v, []).append(eid)
        self._incident = {v: tuple(eids) for v, eids in incident.items()}

    @property
    def num_hyperedges(self) -> int:
        return len(self._edges)

    @property
    def hyperedge_ids(self) -> tuple[int, ...]:
        return tuple(self._edges)

    @property
    def hyperedges(self) -> tuple[frozenset[int], ...]:
        """Hyperedge vertex sets in ascending id order."""
        return tuple(self._edges.values())

    def hyperedge(self, eid: int) -> frozenset[int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise ValueError(f"unknown hyperedge id {eid}") from None

    def incident(self, v: int) -> tuple[int, ...]:
        """Ids of hyperedges containing v, ascending."""
        if v not in self.vertices:
            raise ValueError(f"unknown vertex id {v}")
        return self._incident.get(v, ())

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    def non_isolated_vertices(self) -> frozenset[int]:
        return frozenset(self._incident)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._edges.items())))

    def __repr__(self) -> str:
        return f"Hypergraph(vertices={len(self.vertices)}, hyperedges={self.num_hyperedges})"


def is_linear(h: Hypergraph) -> bool:
    """True when every pair of distinct hyperedges shares at most one vertex.

    Equivalently, no vertex pair lies in two hyperedges: one pass over each
    hyperedge's pairs, O(sum |e|^2), stopping at the first repeated pair.
    """
    seen: set[tuple[int, int]] = set()
    for e in h.hyperedges:
        for pair in combinations(sorted(e), 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def is_k_uniform(h: Hypergraph, k: int) -> bool:
    return all(len(e) == k for e in h.hyperedges)


def triangle_hypergraph(g: Graph) -> Hypergraph:
    """The hypergraph whose vertices are g's edge ids and whose hyperedges are
    the edge-id triples of g's triangles, hyperedge i being the i-th
    triangle of enumerate_triangles(g).

    Always 3-uniform and linear: two triangles of a simple graph share at most
    one edge. Edges of g lying in no triangle become isolated vertices.
    """
    return Hypergraph(range(g.num_edges), [(uv, uw, vw) for _, _, _, uv, uw, vw in _triangle_scan(g)])


@dataclass(frozen=True)
class Component:
    vertices: frozenset[int]
    hyperedge_ids: tuple[int, ...]


def components(h: Hypergraph) -> tuple[Component, ...]:
    """Connected components under alternating paths, ordered by least vertex.

    Isolated vertices form singleton components. Empty hyperedges touch no
    vertex and are not assigned to any component.
    """
    forest = _Forest()
    for e in h.hyperedges:
        for pair in pairwise(e):  # False only for a pair already joined
            forest.link(pair)
    verts: dict[int, list[int]] = {}
    for v in sorted(h.vertices):
        verts.setdefault(forest.find(v), []).append(v)
    eids: dict[int, list[int]] = {root: [] for root in verts}
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        if e:
            eids[forest.find(next(iter(e)))].append(eid)
    return tuple(Component(frozenset(verts[root]), tuple(eids[root])) for root in verts)


class _Forest:
    """Union-find over vertices, grown one hyperedge at a time.

    A vertex not in _parent is its own root; a walk to a root halves its
    path, so no order of links builds a long chain. While the linked
    hyperedges are acyclic, one more closes a cycle exactly when two of its
    vertices are already joined."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent, get = self._parent, self._parent.get
        while (up := get(x)) is not None:
            if (top := get(up)) is None:
                return up
            parent[x] = x = top
        return x

    def link(self, e: Collection[int]) -> bool:
        """Join e's vertices and return True; return False, joining nothing,
        when e closes a cycle. It inlines the walk of find."""
        parent, get, roots = self._parent, self._parent.get, []
        for v in e:
            while (up := get(v)) is not None:
                if (top := get(up)) is None:
                    v = up
                    break
                parent[v] = v = top
            if v in roots:
                return False
            roots.append(v)
        for r in roots[1:]:
            parent[r] = roots[0]
        return True


def are_acyclic(hyperedges: Iterable[frozenset[int]]) -> bool:
    """True when the given hyperedges form no cycle: one union-find pass.
    feedback_vertex_set's output check passes the hyperedges its removed
    vertices spare, so no residual hypergraph is built."""
    return all(map(_Forest().link, hyperedges))
