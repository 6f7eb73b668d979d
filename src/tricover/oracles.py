"""Independent exact solvers used as ground truth for every approximate module.

All searches are deterministic branch-and-bound, meant for desk-scale
instances; a budget caps instance size and explored nodes, and blowing
either cap raises BudgetExceededError rather than ever returning a wrong
answer. Graph oracles run them on the triangle hypergraph, scanned only once
the edge cap holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, EmptyHyperedgeError, InvariantError
from .graph import Graph, PackingWitness, Triangle, _first_fit
from .hypergraph import Hypergraph, triangle_hypergraph


@dataclass(frozen=True)
class OracleBudget:
    """Limits for exact searches.

    max_edges caps the instance size (graph edges or hyperedges, whichever
    the oracle consumes); max_nodes caps explored search nodes. Both caps
    are counts, so whether a search answers or refuses does not depend on
    the host's speed.
    """

    max_edges: int = 40
    max_nodes: int = 5_000_000


GRAPH_BUDGET = OracleBudget(max_edges=40)
HYPERGRAPH_BUDGET = OracleBudget(max_edges=14)


class _Search:
    """One oracle call: h's (hyperedge id, members) items in id order, their
    bitmasks, and node accounting.

    bit[v] is 1 << k for the k-th smallest element v of the items' union,
    and masks[i] ORs the bits of item i, so bit positions are dense whatever
    the raw (negative or huge) vertex ids are."""

    __slots__ = ("items", "bit", "masks", "budget", "nodes")

    def __init__(self, h: Hypergraph, budget: OracleBudget):
        self.items = list(zip(h.hyperedge_ids, h.hyperedges))
        self.bit = {v: 1 << k for k, v in enumerate(sorted(frozenset().union(*h.hyperedges)))}
        self.masks = [sum(map(self.bit.__getitem__, e)) for e in h.hyperedges]
        self.budget = budget
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExceededError(f"search exceeded {self.budget.max_nodes} nodes")


def _check_size(count: int, budget: OracleBudget, what: str) -> None:
    if count > budget.max_edges:
        raise BudgetExceededError(f"{what} has {count} items, budget allows {budget.max_edges}")


def _capped_triangle_hypergraph(g: Graph, budget: OracleBudget) -> Hypergraph:
    _check_size(g.num_edges, budget, "graph edge set")
    return triangle_hypergraph(g)


def _max_disjoint(search: _Search) -> list[int]:
    """Ascending ids of a maximum pairwise-disjoint subfamily of the items.

    Each search node carries its candidates, the ascending indices of the
    undecided items disjoint from all chosen ones. Branch on the first
    candidate (include first); bound by the candidate count and by the
    number of elements the candidates span over the smallest item size.
    Items are search.masks, where bit k stands for the k-th smallest element
    of all items: the span is the bit count of the candidates' OR, and the
    include child keeps the candidates sharing no bit with the chosen item.
    """
    items, masks = search.items, search.masks
    best = [items[i][0] for i in _first_fit(members for _, members in items)]
    min_size = min((len(m) for _, m in items if m), default=1)
    has_empty = not all(masks)

    chosen: list[int] = []

    def rec(avail: list[int]) -> None:
        nonlocal best
        search.tick()
        if len(chosen) + len(avail) <= len(best):
            return
        if not avail:
            best = chosen.copy()
            return
        span = 0
        for i in avail:
            span |= masks[i]
        free = span.bit_count() // min_size
        if has_empty:
            free += sum(1 for i in avail if not masks[i])
        if len(chosen) + free <= len(best):
            return
        first = masks[avail[0]]
        chosen.append(items[avail[0]][0])
        rec([i for i in avail[1:] if not masks[i] & first])
        chosen.pop()
        rec(avail[1:])

    rec(list(range(len(items))))
    return sorted(best)


def _min_hitting_set(search: _Search) -> list[int]:
    """A minimum set of elements meeting every item (hitting set / transversal).

    Branch on the vertices of the first unhit item; lower-bound by a greedy
    pairwise-disjoint subfamily of the unhit items, each of which needs its
    own private element. Items are search.masks, where bit k stands for the
    k-th smallest element of all items (search.bit[v] is v's bit): the bound
    is a first-fit pass over the unhit masks, and branching on v keeps the
    items whose mask misses v's bit.
    """
    items, masks, bit = search.items, search.masks, search.bit
    for iid, members in items:
        if not members:
            raise EmptyHyperedgeError(f"hyperedge {iid} is empty")

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
        used, bound = 0, len(chosen)
        for i in unhit_idx:
            if not used & masks[i]:
                used |= masks[i]
                bound += 1
        if bound >= len(best):
            return
        for v in sorted(items[unhit_idx[0]][1]):
            chosen.append(v)
            b = bit[v]
            rec([i for i in unhit_idx if not masks[i] & b])
            chosen.pop()

    rec(list(range(len(items))))
    return best


def max_triangle_packing(g: Graph, budget: OracleBudget = GRAPH_BUDGET) -> tuple[int, PackingWitness]:
    """Exact maximum number of pairwise edge-disjoint triangles, with witness.
    Triangle u < v < w has edge ids uv < uw < vw, so g.edges gives back u, v, w."""
    h = _capped_triangle_hypergraph(g, budget)
    ids = [sorted(h.hyperedge(i)) for i in _max_disjoint(_Search(h, budget))]
    return len(ids), PackingWitness(tuple(Triangle((*g.edges[uv], g.edges[vw][1]), (uv, uw, vw)) for uv, uw, vw in ids))


def min_triangle_cover(g: Graph, budget: OracleBudget = GRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum edge set meeting every triangle, with witness (edge ids)."""
    cover = _min_hitting_set(_Search(_capped_triangle_hypergraph(g, budget), budget))
    return len(cover), frozenset(cover)


def max_matching(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact maximum number of pairwise disjoint hyperedges, with witness ids."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    ids = _max_disjoint(_Search(h, budget))
    return len(ids), frozenset(ids)


def min_transversal(h: Hypergraph, budget: OracleBudget = HYPERGRAPH_BUDGET) -> tuple[int, frozenset[int]]:
    """Exact minimum vertex set meeting every hyperedge, with witness.
    Raises EmptyHyperedgeError when some hyperedge is empty, as
    solve_acyclic does."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    cover = _min_hitting_set(_Search(h, budget))
    return len(cover), frozenset(cover)


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
