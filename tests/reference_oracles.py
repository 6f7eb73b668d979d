"""Reference exact-oracle searches for differential tests.

`_max_disjoint` and `_min_hitting_set` are the set-based branch-and-bound
searches that `tricover.oracles` ran before its bitmask kernels: each node's
span is a frozenset union and each child filter an `isdisjoint` or `in`
test. They branch, bound and tick exactly as the bitmask kernels must, so the
two agree on every returned id and on `search.nodes`.
"""

from __future__ import annotations

from tricover.graph import _first_fit
from tricover.oracles import _Search


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
