"""Hypergraphs with the cycle machinery used by the cycle-breaking engines.

A cycle of length k >= 2 is an alternating sequence v1 e1 v2 e2 ... vk ek v1
with distinct vertices, distinct hyperedges, and {v_i, v_{i+1}} contained in
e_i (indices mod k). The cycle is treated as a sub-hypergraph whose vertex set
is the union of its hyperedges. Consequences used throughout:

* a hyperedge lies on a cycle when it is one of the cycle's hyperedges;
* a vertex lies on a cycle when it belongs to any hyperedge of some cycle,
  even if it is not one of the v_i on the alternating spine;
* in a linear hypergraph every cycle has length at least 3, since a 2-cycle
  would force two hyperedges to share two vertices.

Hyperedge i is the i-th hyperedge given to the constructor. The FVS working
copy drops hyperedges in place without renumbering the rest, so recursion
traces and witness sets always refer to the input instance.

The incidence graph (bipartite, vertices on one side and hyperedges on the
other, adjacency = membership) drives all cycle searches: hypergraph cycles of
length k correspond exactly to incidence cycles of length 2k. The searches
read it from two mappings, hyperedge id -> members and non-isolated vertex ->
incident hyperedge ids. `_WorkingState` copies only the first, and the FVS
engine deletes from that copy in place. It reads the input's own incidence
map, skipping dropped ids, and counts each vertex's surviving hyperedges.
It has the one cycle-membership search: a peel to the 2-core, then a BFS
for a cycle through each hyperedge the peel leaves. The only other search
is `_shortest_cycle`, which FVS rule 5 calls on the working copy's
surviving hyperedges; rule 4 reads the degree counts and searches nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, pairwise
from typing import Collection, Iterable, Mapping

from .errors import InvariantError
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
    feedback_vertex_set's output check and the CLI pass the hyperedges a
    feedback set spares, so no residual hypergraph is built."""
    return all(map(_Forest().link, hyperedges))


class _WorkingState:
    """A hypergraph deleted from in place, with the one cycle-membership search.

    edges maps each surviving hyperedge id to its members. incident is the
    input's own incidence map, never copied: each non-isolated vertex to
    the ascending ids of all its hyperedges, dropped ones included, so
    every reader skips ids not in edges. degree counts each vertex's
    surviving hyperedges, and a vertex leaves it with its last one:
    deleting it means no more. alive lists the surviving ids of a vertex.

    peel takes the incidence graph to its 2-core: a hyperedge with at most
    one member left in another unpeeled one is on no cycle. The constructor
    peels, and FVS peels again after rule 3 has taken a vertex, before any
    search. off_cycle reports the voided hyperedges the last peel took off
    with no search, and searches the rest, so a peel only spares searches
    that would fail. A cycle a search closes is kept whole, as its
    hyperedge ids: live counts, per hyperedge, the kept cycles through it
    that survive, so its keys are the hyperedges known to be on a cycle.
    Deleting hyperedges creates no cycle, so dropping one kills only the
    cycles through it, and only a hyperedge left with no live cycle is
    voided, to be searched again.

    The kept cycles stand in for fully dynamic 2-edge-connectivity (Holm,
    de Lichtenberg and Thorup, J. ACM 2001), which is too much code. Both
    cheaper answers were measured and fail. A peel is not rule 2: a
    hyperedge of the 2-core can lie on no cycle, and deciding rule 2 by a
    fresh peel changes the fvs route's cover on 6 of 2,761 generated
    instances. A bridge pass from scratch on every sweep is exact but
    quadratic where rule 4 fires once per three hyperedges: 11.9 s against
    0.68 s on a cubic dual of m = 4,000.
    """

    __slots__ = ("edges", "incident", "degree", "live", "_through", "_voided", "_peeled")

    def __init__(self, h: Hypergraph):
        self.edges = dict(h._edges)
        self.incident = incident = h._incident
        self.degree = dict(zip(incident, map(len, incident.values())))
        self.live: dict[int, int] = {}  # hyperedge -> live kept cycles through it, when there are any
        self._through: dict[int, list[list[int]]] = {}  # hyperedge -> the kept cycles through it, once there is one
        self._voided = list(self.edges)  # to search at the next off_cycle
        self.peel()

    def alive(self, v: int) -> list[int]:
        """The ids of v's surviving hyperedges, ascending."""
        edges = self.edges
        return [f for f in self.incident[v] if f in edges]

    def peel(self) -> None:
        """Set _peeled to the hyperedges that peeling the incidence graph to
        its 2-core takes off now. None lies on a cycle, and deleting
        hyperedges creates none, so off_cycle reports them with no search.
        The constructor peels once; FVS peels again after rule 3."""
        # left: per vertex, its hyperedges not yet popped off the stack;
        # shared: per unpeeled hyperedge, its members of degree 2 or more.
        edges, incident = self.edges, self.incident
        left = self.degree.copy()
        shared = {eid: len(e) for eid, e in edges.items()}
        for v, d in left.items():
            if d == 1:
                for f in incident[v]:
                    if f in edges:
                        shared[f] -= 1
        peeled = self._peeled = {eid for eid, n in shared.items() if n < 2}
        stack = list(peeled)
        while stack:
            for v in edges[stack.pop()]:
                left[v] -= 1
                if left[v] == 1:
                    for f in incident[v]:
                        if f in edges and f not in peeled:
                            shared[f] -= 1
                            if shared[f] < 2:
                                peeled.add(f)
                                stack.append(f)

    def drop_edge(self, eid: int) -> None:
        live = self.live
        for cycle in self._through.pop(eid, ()):
            for g in cycle:
                if live[g] == 1:
                    del live[g]
                    self._voided.append(g)
                else:
                    live[g] -= 1
            cycle.clear()
        degree = self.degree
        for v in self.edges.pop(eid):
            if degree[v] == 1:
                del degree[v]
            else:
                degree[v] -= 1

    def drop_vertex(self, v: int) -> None:
        edges = self.edges
        for eid in self.incident[v]:
            if eid in edges:
                self.drop_edge(eid)

    def off_cycle(self) -> list[int]:
        """The surviving voided hyperedges that no live cycle certifies and
        that were peeled or a new search finds on no cycle, each reported
        once."""
        voided, self._voided = self._voided, []
        edges, live, peeled = self.edges, self.live, self._peeled
        return [g for g in voided if g in edges and g not in live and (g in peeled or not self._certify(g))]

    def _certify(self, eid: int) -> bool:
        """Find and keep cycles through eid, or return False when there is none.

        A cycle through eid leaves it at two members that lie in another
        hyperedge, so with fewer than two such members the search fails at
        once, as the peel would. Otherwise one BFS grows a region from each
        member of eid, with eid banned. A hyperedge f entered from vertex x
        of one region that holds a vertex w of another closes a cycle with
        eid: the region paths to x and w lie in different BFS trees, and f
        was entered only now. The search finishes the expansion of the first
        such x and keeps every cycle closed there. A region with nothing left
        to expand has entered all hyperedges at its vertices, so no other can
        meet it: the search fails when fewer than two regions can still
        expand.
        """
        edges, incident, degree, live, through = self.edges, self.incident, self.degree, self.live, self._through
        members = edges[eid]
        if sum(degree[v] > 1 for v in members) < 2:
            return False
        region = {v: r for r, v in enumerate(members)}
        via = dict.fromkeys(members)  # vertex -> hyperedge it was reached by
        entered = {eid: None}  # hyperedge -> vertex it was entered from
        queued = [1] * len(members)  # queued vertices per region
        expanding = len(members)  # regions with a queued vertex
        queue = deque(members)
        closed = False
        while expanding > 1:
            x = queue.popleft()
            r = region[x]
            for f in incident[x]:
                if f in entered or f not in edges:
                    continue
                entered[f] = x
                for w in edges[f]:
                    s = region.get(w)
                    if s is None:
                        region[w] = r
                        via[w] = f
                        queue.append(w)
                        queued[r] += 1
                    elif s != r:
                        cycle = [eid, f]
                        for end in (x, w):
                            while (g := via[end]) is not None:
                                cycle.append(g)
                                end = entered[g]
                        for g in cycle:
                            live[g] = live.get(g, 0) + 1
                            through.setdefault(g, []).append(cycle)
                        closed = True
            if closed:
                return True
            queued[r] -= 1
            expanding -= not queued[r]
        return False


def _shortest_cycle(
    edges: Mapping[int, Collection[int]], incident: Mapping[int, Collection[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A minimum-length cycle as (spine v1 ... vk, hyperedge ids e1 ... ek),
    read from hyperedge id -> members and non-isolated vertex -> incident
    hyperedge ids of a hypergraph already known to be linear (so every
    cycle has length >= 3) and to have a cycle.

    The tie-break is exact: among all minimum-length cycles, the least
    (sorted hyperedge ids, spine, hyperedge ids) wins, and the answer is in
    canonical form, the least (spine, hyperedge ids) over all rotations of
    both orientations, so the spine starts at its smallest vertex id. The
    girth is found by iterative deepening: every cycle of length 3, 4, ...
    is enumerated in both orientations from its least spine vertex, and the
    first length that has one is the girth. The least key found, which is
    unique and already canonical, is the answer, so neither the enumeration
    order nor the order of the mappings matters. InvariantError is raised
    when no length up to the hyperedge count has a cycle.
    """
    best: tuple | None = None  # (sorted hyperedge ids, spine, hyperedge ids)
    spine: list[int] = []
    on_spine: set[int] = set()
    used_edges: list[int] = []
    used_edge_set: set[int] = set()

    def extend(start: int, cur: int, length: int) -> None:
        nonlocal best
        depth = len(used_edges)
        for eid in incident[cur]:
            if eid in used_edge_set:
                continue
            e = edges[eid]
            if depth == length - 1:
                if start in e:
                    ids = (*used_edges, eid)
                    key = (sorted(ids), tuple(spine), ids)
                    if best is None or key < best:
                        best = key
                continue
            for w in e:
                if w < start or w in on_spine:
                    continue
                spine.append(w)
                on_spine.add(w)
                used_edges.append(eid)
                used_edge_set.add(eid)
                extend(start, w, length)
                used_edge_set.discard(eid)
                used_edges.pop()
                on_spine.discard(w)
                spine.pop()

    # A cycle has at most one hyperedge per spine step, so it is no longer
    # than the hyperedge count.
    for length in range(3, len(edges) + 1):
        for start in incident:
            spine, on_spine = [start], {start}
            extend(start, start, length)
        if best is not None:
            return best[1], best[2]
    raise InvariantError("no cycle found in a hypergraph that has one")
