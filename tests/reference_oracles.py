"""Reference exact-oracle searches for differential tests.

`_max_disjoint` and `_min_hitting_set` are the set-based branch-and-bound
searches that `tricover.oracles` ran before its bitmask kernels: each node's
span is a frozenset union and each child filter an `isdisjoint` or `in`
test. They branch, bound and tick exactly as the bitmask kernels must, so the
two agree on every returned id and on `search.nodes`.

`min_feedback_vertex_set` and `min_feedback_edge_set` are exact feedback-set
oracles: an ordered subset search over the on-cycle elements that
`reference_fvs.on_cycle_elements` finds.
"""

from __future__ import annotations

from itertools import combinations

from tricover.errors import InvariantError
from tricover.graph import _first_fit
from tricover.hypergraph import Hypergraph, are_acyclic
from tricover.oracles import HYPERGRAPH_BUDGET, OracleBudget, _check_size, _Search

from reference_fvs import on_cycle_elements


def _max_disjoint(search: _Search) -> list[int]:
    """Ascending ids of a maximum pairwise-disjoint subfamily of the items.

    Each search node carries its candidates, the ascending indices of the
    undecided items disjoint from all chosen ones. Branch on the first
    candidate (include first); bound by the candidate count and by the
    number of elements the candidates span over the smallest item size.
    """
    items = search.items
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


def _min_hitting_set(search: _Search) -> list[int]:
    """A minimum set of elements meeting every item (hitting set / transversal).

    Branch on the vertices of the first unhit item; lower-bound by a greedy
    pairwise-disjoint subfamily of the unhit items, each of which needs its
    own private element.
    """
    items = search.items
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


def _min_feedback_set(h: Hypergraph, budget: OracleBudget, vertices: bool) -> tuple[int, frozenset[int]]:
    """Exact minimum set of on-cycle vertices (or hyperedges) whose deletion
    leaves h acyclic: the first hit of an ordered subset search by size.

    Each subset is tested by one union-find pass over the hyperedges it
    spares, with no hypergraph built."""
    _check_size(h.num_hyperedges, budget, "hypergraph")
    search = _Search(h, budget)
    verts_on, edges_on = on_cycle_elements(h)
    candidates = sorted(verts_on if vertices else edges_on)
    if not candidates:
        return 0, frozenset()
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            search.tick()
            drop = frozenset(combo)
            if are_acyclic(e for eid, e in search.items if (drop.isdisjoint(e) if vertices else eid not in drop)):
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
