"""Independent exact solvers used as ground truth for every approximate module.

All searches are deterministic branch-and-bound or ordered subset
enumeration. They are meant for desk-scale instances; a budget caps instance
size, explored nodes, and wall-clock time, and blowing any cap raises
BudgetExceededError rather than ever returning a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, InvariantError
from .graph import Graph, PackingWitness, Triangle, _first_fit, enumerate_triangles
from .hypergraph import Hypergraph, _acyclic, on_cycle_elements


@dataclass(frozen=True)
class OracleBudget:
    """Limits for exact searches.

    max_edges caps the instance size (graph edges or hyperedges, whichever
    the oracle consumes); max_nodes caps explored search nodes; time_cap is
    in seconds.
    """

    max_edges: int = 40
    max_nodes: int = 5_000_000
    time_cap: float = 60.0


GRAPH_BUDGET = OracleBudget(max_edges=40)
HYPERGRAPH_BUDGET = OracleBudget(max_edges=14)


class _Search:
    """Node/time accounting for one oracle call."""

    __slots__ = ("budget", "nodes", "start")

    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.nodes = 0
        self.start = time.monotonic()

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExceededError(f"search exceeded {self.budget.max_nodes} nodes")
        if self.nodes % 4096 == 0 and time.monotonic() - self.start > self.budget.time_cap:
            raise BudgetExceededError(f"search exceeded {self.budget.time_cap} seconds")


def _check_size(count: int, budget: OracleBudget, what: str) -> None:
    if count > budget.max_edges:
        raise BudgetExceededError(f"{what} has {count} items, budget allows {budget.max_edges}")


def _max_disjoint(items: list[tuple[int, frozenset[int]]], search: _Search) -> list[int]:
    """Ids of a maximum pairwise-disjoint subfamily.

    Each search node carries its candidates, the ascending indices of the
    undecided items disjoint from all chosen ones. Branch on the first
    candidate (include first); bound by the candidate count and by the
    number of elements the candidates span over the smallest item size.
    """
    best = [items[i][0] for i in _first_fit(members for _, members in items)]
    min_size = min((len(m) for _, m in items if m), default=1)

    chosen: list[int] = []

    def rec(avail: list[int]) -> None:
        nonlocal best
        search.tick()
        span: set[int] = set()
        empties = 0
        for i in avail:
            if items[i][1]:
                span |= items[i][1]
            else:
                empties += 1
        bound = len(chosen) + min(len(avail), empties + len(span) // max(min_size, 1))
        if bound <= len(best):
            return
        if not avail:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        iid, members = items[avail[0]]
        chosen.append(iid)
        rec([i for i in avail[1:] if members.isdisjoint(items[i][1])])
        chosen.pop()
        rec(avail[1:])

    rec(list(range(len(items))))
    return sorted(best)


def _min_hitting_set(items: list[tuple[int, frozenset[int]]], search: _Search) -> list[int]:
    """A minimum set of elements meeting every item (hitting set / transversal).

    Branch on the vertices of the first unhit item; lower-bound by a greedy
    pairwise-disjoint subfamily of the unhit items, each of which needs its
    own private element.
    """
    for iid, members in items:
        if not members:
            raise ValueError(f"item {iid} is empty; no hitting set exists")

    # Greedy incumbent: repeatedly take the element hitting the most unhit items.
    unhit = list(range(len(items)))
    incumbent: list[int] = []
    while unhit:
        counts: dict[int, int] = {}
        for i in unhit:
            for v in items[i][1]:
                counts[v] = counts.get(v, 0) + 1
        pick = min(counts, key=lambda v: (-counts[v], v))
        incumbent.append(pick)
        unhit = [i for i in unhit if pick not in items[i][1]]
    best = sorted(incumbent)

    chosen: list[int] = []

    def rec(unhit_idx: list[int]) -> None:
        nonlocal best
        search.tick()
        if not unhit_idx:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + len(_first_fit(items[i][1] for i in unhit_idx)) >= len(best):
            return
        target = items[unhit_idx[0]][1]
        for v in sorted(target):
            chosen.append(v)
            rec([i for i in unhit_idx if v not in items[i][1]])
            chosen.pop()

    rec(list(range(len(items))))
    return best


def max_triangle_packing(g: Graph, budget: OracleBudget = GRAPH_BUDGET) -> tuple[int, PackingWitness]:
    """Exact maximum number of pairwise edge-disjoint triangles, with witness."""
    _check_size(g.num_edges, budget, "graph edge set")
    tris = enumerate_triangles(g)
    items = [(i, frozenset(t.edge_ids)) for i, t in enumerate(tris)]
    ids = _max_disjoint(items, _Search(budget))
    witness = PackingWitness(tuple(tris[i] for i in ids))
    return len(ids), witness


def min_triangle_cover(g: Graph, budget: OracleBudget = GRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum edge set meeting every triangle, with witness (edge ids)."""
    _check_size(g.num_edges, budget, "graph edge set")
    items = [(i, frozenset(t.edge_ids)) for i, t in enumerate(enumerate_triangles(g))]
    cover = _min_hitting_set(items, _Search(budget))
    return len(cover), frozenset(cover)


def max_matching(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact maximum number of pairwise disjoint hyperedges, with witness ids."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    items = [(eid, e) for eid, e in zip(h.hyperedge_ids, h.hyperedges)]
    ids = _max_disjoint(items, _Search(budget))
    return len(ids), frozenset(ids)


def min_transversal(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum vertex set meeting every hyperedge, with witness."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    items = [(eid, e) for eid, e in zip(h.hyperedge_ids, h.hyperedges)]
    cover = _min_hitting_set(items, _Search(budget))
    return len(cover), frozenset(cover)


def _min_feedback_set(h: Hypergraph, budget: OracleBudget, vertices: bool) -> tuple[int, frozenset[int]]:
    """Exact minimum set of on-cycle vertices (or hyperedges) whose deletion
    leaves h acyclic: the first hit of an ordered subset search by size.

    Each subset is tested by one union-find pass over the hyperedges it
    spares, with no hypergraph built."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    search = _Search(budget)
    verts_on, edges_on = on_cycle_elements(h)
    candidates = sorted(verts_on if vertices else edges_on)
    if not candidates:
        return 0, frozenset()
    edges = list(zip(h.hyperedge_ids, h.hyperedges))
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            search.tick()
            drop = frozenset(combo)
            if _acyclic(e for eid, e in edges if (drop.isdisjoint(e) if vertices else eid not in drop)):
                return k, drop
    raise InvariantError("deleting every on-cycle element left a cycle")


def min_feedback_vertex_set(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum vertex set meeting every cycle, by ordered subset search.

    Only vertices lying on some cycle are candidates: any other vertex can be
    dropped from a feedback vertex set without reintroducing a cycle.
    """
    return _min_feedback_set(h, budget, vertices=True)


def min_feedback_edge_set(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum hyperedge set meeting every cycle, by ordered subset search."""
    return _min_feedback_set(h, budget, vertices=False)


def _quasigroup_triples(q: int, star) -> list[tuple[int, int, int]]:
    """The triples {(i, k), (j, k), (i*j, k+1)} for i < j in Z_q and k in
    Z_3, where i*j is star(i, j) and point (i, k) is i + k*q."""
    return [
        (i + k * q, j + k * q, star(i, j) + (k + 1) % 3 * q)
        for i in range(q)
        for j in range(i + 1, q)
        for k in range(3)
    ]


def _bose_triples(n: int) -> list[tuple[int, int, int]]:
    """Triangle decomposition of K_n for n = 3 (mod 6), built over Z_q x {0,1,2}
    with q = n/3 odd, using the idempotent symmetric quasigroup
    i*j = (i+j)/2 mod q."""
    q = n // 3
    half = (q + 1) // 2  # multiplicative inverse of 2 mod q
    return [(i, i + q, i + 2 * q) for i in range(q)] + _quasigroup_triples(q, lambda i, j: (i + j) * half % q)


def _skolem_triples(n: int) -> list[tuple[int, int, int]]:
    """Triangle decomposition of K_n for n = 1 (mod 6), built over
    Z_q x {0,1,2} plus the extra point n-1, q = (n-1)/3 even, using the
    half-idempotent symmetric quasigroup i*j = s/2 for even s = (i+j) mod q,
    t + (s-1)/2 for odd s, where t = q/2."""
    q = (n - 1) // 3
    t = q // 2

    def star(i: int, j: int) -> int:
        half, odd = divmod((i + j) % q, 2)
        return half + t * odd

    triples = [(i, i + q, i + 2 * q) for i in range(t)]
    triples += [(n - 1, i + t + k * q, i + (k + 1) % 3 * q) for i in range(t) for k in range(3)]
    return triples + _quasigroup_triples(q, star)


def steiner_triple_system(n: int) -> PackingWitness:
    """n(n-1)/6 edge-disjoint triangles covering every edge of K_n exactly once.

    Exists exactly when n = 1 or 3 (mod 6); other n raise ValueError. The
    witness uses the edge ids of complete_graph(n) without building it: edge
    (a, b), a < b, has id a*(2n-a-1)//2 + b - a - 1. The same pass checks that
    each triple is 0 <= a < b < c < n, that no edge is covered twice and that
    there are C(n, 2)/3 triples, else InvariantError.
    """
    if n < 3 or n % 6 not in (1, 3):
        raise ValueError(f"no triangle decomposition of K_{n}: need n = 1 or 3 (mod 6), n >= 3")
    triples = _bose_triples(n) if n % 6 == 3 else _skolem_triples(n)
    row = [a * (2 * n - a - 1) // 2 - a - 1 for a in range(n)]  # id of (a, b) is row[a] + b
    covered = bytearray(n * (n - 1) // 2)
    triangles = []
    for a, b, c in sorted(map(sorted, triples)):
        if not 0 <= a < b < c < n:
            raise InvariantError(f"triple {(a, b, c)} is not three distinct vertices of K_{n}")
        ab, ac, bc = row[a] + b, row[a] + c, row[b] + c
        if covered[ab] | covered[ac] | covered[bc]:
            raise InvariantError(f"triple {(a, b, c)} covers an edge a second time")
        covered[ab] = covered[ac] = covered[bc] = 1
        triangles.append(Triangle((a, b, c), (ab, ac, bc)))
    if 3 * len(triangles) != len(covered):
        raise InvariantError("decomposition does not cover every edge exactly once")
    return PackingWitness(tuple(triangles))


def fano_plane() -> Hypergraph:
    """The 7-point, 7-line projective plane as a linear 3-uniform hypergraph."""
    lines = [
        {1, 2, 3},
        {1, 4, 5},
        {1, 6, 7},
        {2, 4, 6},
        {2, 5, 7},
        {3, 4, 7},
        {3, 5, 6},
    ]
    return Hypergraph(range(1, 8), lines)
