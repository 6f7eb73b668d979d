"""Simple undirected graphs with canonical edge ids, plus triangle machinery and generators.

Vertices are dense integers 0..n-1. Every edge gets a stable id: its index in
the lexicographic ordering of the sorted vertex pairs, so ids never depend on
construction order. Triangle hypergraphs built elsewhere reuse these edge ids
as their vertex ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Sequence


class Triangle(NamedTuple):
    """A triangle, stored as its sorted vertex triple and sorted edge-id triple."""

    vertices: tuple[int, int, int]
    edge_ids: tuple[int, int, int]


@dataclass(frozen=True)
class PackingWitness:
    """A sequence of pairwise edge-disjoint triangles.

    Certifies a lower bound on the maximum number of edge-disjoint triangles.
    """

    triangles: tuple[Triangle, ...]

    def __len__(self) -> int:
        return len(self.triangles)

    def edge_ids(self) -> frozenset[int]:
        return frozenset(e for t in self.triangles for e in t.edge_ids)

    def validate(self, g: "Graph") -> None:
        """Raise ValueError unless every triangle lies in g and no edge id repeats."""
        used: set[int] = set()
        for t in self.triangles:
            a, b, c = t.vertices
            if not (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)):
                raise ValueError(f"not a triangle of the graph: {t.vertices}")
            expect = tuple(sorted((g.edge_id(a, b), g.edge_id(b, c), g.edge_id(a, c))))
            if t.edge_ids != expect:
                raise ValueError(f"edge ids {t.edge_ids} do not match vertices {t.vertices}")
            for e in t.edge_ids:
                if e in used:
                    raise ValueError(f"edge id {e} used by two triangles")
                used.add(e)


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_edge_index", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted([(u, v) if u < v else (v, u) for u, v in edges]))
        # One pass over the sorted pairs: a duplicate sits right after its twin.
        before = None
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if pair == before:
                raise ValueError(f"duplicate edge {pair}")
            before = pair
        self._edge_index = {pair: i for i, pair in enumerate(self.edges)}
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        return pair in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        return self._edge_index[pair]

    def edge_pair(self, edge_id: int) -> tuple[int, int]:
        return self.edges[edge_id]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _triangle_scan(g: Graph) -> list[tuple[int, int, int, int, int, int]]:
    """(u, v, w, uv, uw, vw) for every triangle u < v < w of g, each exactly
    once, ordered by vertex triple.

    Scans each edge (u, v) with u < v and keeps only common neighbors w > v,
    so every triangle is reported from its lexicographically smallest edge.
    For u < v < w the ids of uv, uw and vw already ascend, as pairs do.
    """
    index = g._edge_index
    return [
        (u, v, w, uv, index[u, w], index[v, w])
        for uv, (u, v) in enumerate(g.edges)
        for w in sorted(g.neighbors(u) & g.neighbors(v))
        if w > v
    ]


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of g, each exactly once, ordered by sorted vertex triple."""
    return tuple([Triangle((u, v, w), (uv, uw, vw)) for u, v, w, uv, uw, vw in _triangle_scan(g)])


def bipartite_cut_cover(g: Graph) -> frozenset[int]:
    """Edge ids outside a large bipartition cut; always a triangle cover.

    Deterministic local search: start with every vertex on side 0, scan
    vertices in id order, move a vertex whenever that strictly increases the
    cut, and stop after a full pass without moves. At a local optimum each
    vertex has at least half its incident edges cut, so the cut has >= |E|/2
    edges and the returned uncut set has at most floor(|E|/2). Any triangle
    has two vertices on one side, hence an uncut edge in the returned set.

    same[v] counts v's neighbours on v's own side and is kept up to date as
    vertices move, so checking a vertex costs O(1) and a move O(deg).
    """
    adj = g._adj
    side = [0] * g.n
    same = [len(nbrs) for nbrs in adj]
    moved = True
    while moved:
        moved = False
        for v in range(g.n):
            if 2 * same[v] > len(adj[v]):
                s = side[v] = side[v] ^ 1
                same[v] = len(adj[v]) - same[v]
                for w in adj[v]:
                    same[w] += 1 if side[w] == s else -1
                moved = True
    return frozenset(i for i, (u, v) in enumerate(g.edges) if side[u] == side[v])


def _first_fit(sets: Iterable[Collection[int]]) -> list[int]:
    """Positions of the sets one first-fit pass keeps: each set that is
    disjoint from every set kept before it."""
    used: set[int] = set()
    kept = []
    for i, s in enumerate(sets):
        if used.isdisjoint(s):
            kept.append(i)
            used.update(s)
    return kept


def extend_packing(g: Graph, base: Sequence[Triangle]) -> PackingWitness:
    """Greedily extend an edge-disjoint triangle set to a maximal one.

    Candidates are taken in canonical triangle order: by smallest edge, in
    id order, so the scan takes the first free triangle on each unused edge
    (a triangle taken on uv uses uv up).

    Bit w of free[v] is set while edge vw exists and is unused, so the least
    free w > v on edge uv is the lowest set bit of free[u] & free[v] above v.
    These masks take n bits per vertex and live only for this call. The loop
    that clears the base's edges checks each base triangle: its sorted triple
    a < b < c must give ids (ab, ac, bc), one index lookup each, on edges still
    free. Only a failure there runs PackingWitness.validate, which raises
    ValueError on a base that is not edge-disjoint triangles of g.
    """
    chosen = list(base)
    get = g._edge_index.get
    free = [sum(1 << w for w in nbrs) for nbrs in g._adj]
    for t in chosen:
        a, b, c = sorted(t.vertices)
        ids = (get((a, b)), get((a, c)), get((b, c)))
        if ids != t.edge_ids or not free[a] >> b & free[a] >> c & free[b] >> c & 1:
            PackingWitness(tuple(chosen)).validate(g)
        taken = ~(1 << a | 1 << b | 1 << c)
        for x in (a, b, c):
            free[x] &= taken
    for uv, (u, v) in enumerate(g.edges):
        if not free[u] >> v & 1:
            continue
        common = (free[u] & free[v]) >> (v + 1)
        if common:
            w = v + (common & -common).bit_length()
            chosen.append(Triangle((u, v, w), (uv, g._edge_index[u, w], g._edge_index[v, w])))
            taken = ~(1 << u | 1 << v | 1 << w)
            for x in (u, v, w):
                free[x] &= taken
    return PackingWitness(tuple(chosen))


def _surviving_triangles(g: Graph, triples: Iterable[tuple[int, int, int]]) -> list[Triangle]:
    """Triangles of g among sorted triples t = (a, b, c), with one index lookup
    per edge: t[:2] is ab, t[::2] is ac and t[1:] is bc."""
    get = g._edge_index.get
    return [Triangle(t, ids) for t in triples if None not in (ids := (get(t[:2]), get(t[::2]), get(t[1:])))]


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each of the C(n, 2) pairs kept independently with probability p.

    Reproducible: a Mersenne Twister seeded with `seed` draws one uniform
    number per vertex pair in lexicographic pair order.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)
