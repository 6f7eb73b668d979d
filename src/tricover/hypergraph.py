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

Hyperedge ids are stable: deleting vertices or hyperedges yields a new
hypergraph whose surviving hyperedges keep their original ids, so recursion
traces and witness sets always refer to the input instance.

The incidence graph (bipartite, vertices on one side and hyperedges on the
other, adjacency = membership) drives all cycle searches: hypergraph cycles of
length k correspond exactly to incidence cycles of length 2k. The searches
read it from two mappings, hyperedge id -> members and non-isolated vertex ->
incident hyperedge ids. `_WorkingState` holds a copy that the FVS engine
mutates in place, and has the one cycle-membership search: a peel to the
2-core, then a BFS for a cycle through each hyperedge the peel leaves. The
only other search is `_shortest_cycle`, which FVS rule 5 calls on the
working copy's mappings; rule 4 reads degrees off them and searches nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Mapping

from .errors import InvariantError
from .graph import Graph, _triangle_scan


class Hypergraph:
    """Hypergraph with integer vertex ids and stable integer hyperedge ids."""

    __slots__ = ("vertices", "_edges", "_incident")

    def __init__(self, vertices: Iterable[int], hyperedges: Iterable[Iterable[int]]):
        vs = frozenset(vertices)
        edges = {i: frozenset(e) for i, e in enumerate(hyperedges)}
        self._init_parts(vs, edges)

    @classmethod
    def _from_parts(cls, vertices: frozenset[int], edges: Mapping[int, frozenset[int]]) -> "Hypergraph":
        obj = cls.__new__(cls)
        obj._init_parts(vertices, dict(edges))
        return obj

    def _init_parts(self, vertices: frozenset[int], edges: dict[int, frozenset[int]]) -> None:
        incident: dict[int, list[int]] = {}
        self._edges = {eid: edges[eid] for eid in sorted(edges)}
        for eid, e in self._edges.items():
            for v in e:
                if v not in vertices:
                    raise ValueError(f"hyperedge {eid} contains unknown vertex {v}")
                incident.setdefault(v, []).append(eid)
        self.vertices = vertices
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
        forest.join(e)
    verts: dict[int, list[int]] = {}
    for v in sorted(h.vertices):
        verts.setdefault(forest.find(v), []).append(v)
    eids: dict[int, list[int]] = {root: [] for root in verts}
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        if e:
            eids[forest.find(next(iter(e)))].append(eid)
    return tuple(Component(frozenset(verts[root]), tuple(eids[root])) for root in verts)


def delete_vertices(h: Hypergraph, vertex_ids: Iterable[int]) -> Hypergraph:
    """Remove the vertices and every hyperedge touching one of them."""
    drop = frozenset(vertex_ids)
    unknown = drop - h.vertices
    if unknown:
        raise ValueError(f"unknown vertex ids {sorted(unknown)}")
    keep_edges = {eid: e for eid, e in zip(h.hyperedge_ids, h.hyperedges) if not (e & drop)}
    return Hypergraph._from_parts(h.vertices - drop, keep_edges)


def delete_hyperedges(h: Hypergraph, edge_ids: Iterable[int]) -> Hypergraph:
    """Remove the hyperedges; every vertex stays."""
    drop = frozenset(edge_ids)
    unknown = drop - frozenset(h.hyperedge_ids)
    if unknown:
        raise ValueError(f"unknown hyperedge ids {sorted(unknown)}")
    keep_edges = {eid: e for eid, e in zip(h.hyperedge_ids, h.hyperedges) if eid not in drop}
    return Hypergraph._from_parts(h.vertices, keep_edges)


class _Forest:
    """Union-find over vertices, grown one hyperedge at a time.

    Linking a hyperedge joins its vertices. While the linked hyperedges form
    an acyclic hypergraph, a further hyperedge closes a cycle exactly when two
    of its vertices are already joined.
    """

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def closes_cycle(self, e: Collection[int]) -> bool:
        return len({self.find(v) for v in e}) < len(e)

    def join(self, vs: Iterable[int]) -> None:
        """Join the vertices vs, whether or not that closes a cycle."""
        roots = [self.find(v) for v in vs]
        for r in roots[1:]:
            self._parent[r] = roots[0]

    def link(self, e: Collection[int]) -> bool:
        """Join e's vertices and return True; return False, joining nothing,
        when e closes a cycle."""
        roots = {self.find(v) for v in e}
        if len(roots) < len(e):
            return False
        self.join(roots)
        return True


def is_acyclic(h: Hypergraph) -> bool:
    """True when h has no cycle, i.e. its incidence graph is a forest."""
    return _acyclic(h.hyperedges)


def _acyclic(hyperedges: Iterable[frozenset[int]]) -> bool:
    """True when the given hyperedges form no cycle: one union-find pass."""
    forest = _Forest()
    return all(forest.link(e) for e in hyperedges)


class _WorkingState:
    """A hypergraph mutated in place, with the one cycle-membership search.

    edges maps each surviving hyperedge id to its members; incident maps each
    non-isolated vertex to the ids of its surviving hyperedges. A vertex
    leaves incident with its last hyperedge: deleting it means no more.

    The constructor peels the incidence graph to its 2-core once: a hyperedge
    with at most one member left in another unpeeled one is on no cycle. The
    first off_cycle reports the peeled hyperedges and searches the rest. A
    cycle a search closes is kept whole, as its hyperedge ids: live counts,
    per hyperedge, the kept cycles through it that survive, and certified is
    a view of the hyperedges that have one. Deleting hyperedges creates no
    cycle, so dropping one kills only the cycles through it, and only a
    hyperedge left with no live cycle is voided, to be searched again.
    """

    __slots__ = ("edges", "incident", "live", "certified", "_through", "_voided", "_peeled")

    def __init__(self, h: Hypergraph):
        self.edges = dict(zip(h.hyperedge_ids, h.hyperedges))
        self.incident = {v: set(h.incident(v)) for v in h.non_isolated_vertices()}
        self.live: dict[int, int] = {}  # hyperedge -> live kept cycles through it, when there are any
        self.certified = self.live.keys()
        self._through = {eid: [] for eid in self.edges}  # hyperedge -> the kept cycles through it; a dead one is empty
        self._voided = list(self.edges)  # hyperedges to search at the next off_cycle
        # degree: per vertex, its hyperedges not yet popped off the stack;
        # shared: per unpeeled hyperedge, its members of degree 2 or more.
        degree = {v: len(eids) for v, eids in self.incident.items()}
        shared = {eid: len(e) for eid, e in self.edges.items()}
        for (f,) in (eids for eids in self.incident.values() if len(eids) == 1):
            shared[f] -= 1
        peeled = self._peeled = {eid for eid, n in shared.items() if n < 2}
        stack = list(peeled)
        while stack:
            for v in self.edges[stack.pop()]:
                degree[v] -= 1
                if degree[v] == 1:
                    for f in self.incident[v] - peeled:
                        shared[f] -= 1
                        if shared[f] < 2:
                            peeled.add(f)
                            stack.append(f)

    def drop_edge(self, eid: int) -> None:
        live = self.live
        for cycle in self._through.pop(eid):
            for g in cycle:
                if live[g] == 1:
                    del live[g]
                    self._voided.append(g)
                else:
                    live[g] -= 1
            cycle.clear()
        for v in self.edges.pop(eid):
            eids = self.incident[v]
            eids.discard(eid)
            if not eids:
                del self.incident[v]

    def drop_vertex(self, v: int) -> None:
        for eid in list(self.incident[v]):
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

        One BFS grows a region from each member of eid, with eid banned. A
        hyperedge f entered from vertex x of one region that holds a vertex
        w of another closes a cycle with eid: the region paths to x and w
        lie in different BFS trees, and f was entered only now. The search
        finishes the expansion of the first such x and keeps every cycle
        closed there. A region with nothing left to expand has entered all
        hyperedges at its vertices, so no other can meet it: the search
        fails when fewer than two regions can still expand.
        """
        edges, incident, live, through = self.edges, self.incident, self.live, self._through
        members = list(edges[eid])
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
                if f in entered:
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
                            through[g].append(cycle)
                        closed = True
            if closed:
                return True
            queued[r] -= 1
            expanding -= not queued[r]
        return False


def on_cycle_elements(h: Hypergraph) -> tuple[frozenset[int], frozenset[int]]:
    """(vertices, hyperedge ids) lying on at least one cycle of h.

    The first off_cycle of a fresh _WorkingState: a linear-time peel, then a
    BFS per unpeeled hyperedge that no kept cycle runs through; one that
    fails may walk its whole component.
    """
    state = _WorkingState(h)
    state.off_cycle()
    edges_on = frozenset(state.certified)
    return frozenset(v for e in edges_on for v in state.edges[e]), edges_on


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
