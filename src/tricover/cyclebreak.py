"""Cycle destruction for linear 3-uniform hypergraphs.

Two engines:

* `feedback_vertex_set` removes at most floor(m/3) vertices from an m-edge
  linear 3-uniform hypergraph and leaves it acyclic. It recurses on one of
  five rules, tried in a fixed priority order, each charging at least three
  deleted hyperedges per removed vertex. The rules mutate one
  `hypergraph._WorkingState`, whose peel and cycle searches decide rule 2.
  Rule 4 reads only degrees, and rule 5 searches for a shortest cycle.
* `minimal_fes` greedily shrinks the trivial all-hyperedges feedback edge set
  to a minimal one; for linear 3-uniform inputs its size is bounded by
  2m - |V'| + p, with V' the non-isolated vertices and p their component
  count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .errors import InvariantError, NotLinearError, NotThreeUniformError
from .hypergraph import (
    Hypergraph,
    _acyclic,
    _Forest,
    _shortest_cycle,
    _WorkingState,
    components,
    is_k_uniform,
    is_linear,
)

TraceStep = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class FvsResult:
    """Feedback vertex set of size at most floor(m/3), plus the recursion trace.

    Each trace step is (rule name, involved ids). Deleting removed_vertices
    from the input hypergraph leaves it acyclic.
    """

    removed_vertices: frozenset[int]
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class FesResult:
    """Minimal feedback edge set: deleting it leaves the hypergraph acyclic,
    and re-adding any single removed hyperedge recreates a cycle."""

    removed_hyperedges: frozenset[int]


def feedback_vertex_set(h: Hypergraph) -> FvsResult:
    """Feedback vertex set of a linear 3-uniform hypergraph, size <= floor(m/3).

    Rules, tried in order at every level (isolated vertices are never
    touched):

    1. at most 2 hyperedges left: done (a linear cycle needs 3);
    2. some non-isolated vertex or hyperedge lies on no cycle: drop it;
    3. some vertex has degree >= 3: take it, drop it (kills >= 3 hyperedges);
    4. some vertex p has degree 1 (the least): its hyperedge e1 = {p, a, b},
       a < b, lies on a cycle, which enters and leaves e1 at a and b, so b
       has degree 2 and one other hyperedge e2. e2 lies on a cycle too, so
       it has a member other than b of degree 2; let v3 be the least and e3
       its other hyperedge. Take v3 and drop e1, e2, e3: taking v3 kills e2
       and e3, and leaves b of degree 1, so e1 lies on no cycle. No search
       runs;
    5. otherwise the hypergraph is 2-regular: take a shortest cycle
       v1 e1 ... vk ek, let u_i be the third vertex of e_i and f_i the other
       hyperedge at u_i, and branch on k mod 3:
         k = 0 (mod 3): take {v_i : i = 0 mod 3}, drop the k cycle hyperedges;
         k = 1 (mod 3), f1 != f3 after rotating the labels by one if needed:
           take {u1, u3} and {v_i : i = 0 mod 3, 4 <= i <= k}, drop the cycle
           hyperedges plus f1, f3;
         k = 1 (mod 3), f1 = f3 and f2 = f4: then k must be 4; take {u2, u4},
           drop the cycle hyperedges plus f1, f2;
         k = 2 (mod 3): take {u1} and {v_i : i = 1 mod 3, 4 <= i <= k}, drop
           the cycle hyperedges plus f1.

    Every rule removes at least three hyperedges per taken vertex, which gives
    the floor(m/3) bound. Rule 2 searches for a cycle through a hyperedge
    only when the 2-core peel kept it and no cycle found earlier still runs
    through it. A result that leaves a cycle raises InvariantError. Input
    that is not 3-uniform raises NotThreeUniformError, and 3-uniform input
    that is not linear NotLinearError.
    """
    _require_linear_3_uniform(h)
    return _feedback_vertex_set(h)


def _require_linear_3_uniform(h: Hypergraph) -> None:
    """The one precondition of both cycle-breaking bounds: raise
    NotThreeUniformError, then NotLinearError, unless h is linear and 3-uniform."""
    if not is_k_uniform(h, 3):
        raise NotThreeUniformError("not 3-uniform")
    if not is_linear(h):
        raise NotLinearError("not linear")


def _feedback_vertex_set(h: Hypergraph) -> FvsResult:
    """feedback_vertex_set without its precondition checks, for callers that
    already know h is 3-uniform and linear (triangle hypergraphs always are).

    The rules act on one working copy, deleting in place. Each loop sweeps
    rule 2 with the elements found off-cycle, vertices then hyperedges in
    ascending order, while more than two hyperedges remain: dropping them
    destroys no cycle and creates none. One of rules 3 to 5 follows. One
    union-find pass over the hyperedges the removed vertices miss checks
    the result.
    """
    state = _WorkingState(h)
    removed: set[int] = set()
    trace: list[TraceStep] = []
    by_label, cursor = sorted(state.incident), 0  # rule 3 takes the least vertex of degree >= 3
    while len(state.edges) > 2:
        off_edges = state.off_cycle()
        # The previous loop swept every off-cycle element, so a vertex off a
        # cycle now belongs to a hyperedge found off-cycle now.
        off_verts = {v for e in off_edges for v in state.edges[e] if state.certified.isdisjoint(state.incident[v])}
        for v in sorted(off_verts):
            if v in state.incident and len(state.edges) > 2:
                trace.append(("drop_off_cycle_vertex", (v,)))
                state.drop_vertex(v)
        for eid in sorted(off_edges):
            if eid in state.edges and len(state.edges) > 2:
                trace.append(("drop_off_cycle_hyperedge", (eid,)))
                state.drop_edge(eid)
        if len(state.edges) <= 2:
            break

        # Degrees only fall, so a vertex the cursor passed never reaches 3 again.
        while cursor < len(by_label) and len(state.incident.get(by_label[cursor], ())) < 3:
            cursor += 1
        if cursor < len(by_label):
            high = by_label[cursor]
            removed.add(high)
            trace.append(("take_high_degree_vertex", (high,)))
            state.drop_vertex(high)
            continue

        pendant = min((v for v, eids in state.incident.items() if len(eids) == 1), default=None)
        if pendant is not None:
            # Rule 3 left every degree at most 2, and rule 2 left e1 on a
            # cycle, which enters and leaves e1 at its members a < b other
            # than the pendant. So b has degree 2 and one other hyperedge e2.
            # e2 lies on a cycle too, so besides b it has a member of degree
            # 2; v3 is the least, and e3 its other hyperedge. Taking v3 kills
            # e2 and e3 and leaves b of degree 1 like the pendant, so e1 lies
            # on no cycle: three hyperedges go per taken vertex.
            (e1,) = state.incident[pendant]
            b = max(state.edges[e1] - {pendant})
            e2s = state.incident[b] - {e1}
            if len(e2s) != 1:
                raise InvariantError(f"vertex {b} of on-cycle hyperedge {e1} has no single other hyperedge")
            (e2,) = e2s
            v3 = min((v for v in state.edges[e2] if v != b and len(state.incident[v]) == 2), default=None)
            if v3 is None:
                raise InvariantError(f"hyperedge {e2} survived rule 2 but only {b} has degree 2")
            (e3,) = state.incident[v3] - {e2}
            removed.add(v3)
            trace.append(("take_vertex_past_pendant_edge", (pendant, e1, e2, e3, v3)))
            for eid in (e1, e2, e3):
                state.drop_edge(eid)
            continue

        # 2-regular from here on: no isolated, degree-1, or degree>=3 vertices.
        # The working copy is a sub-hypergraph of the linear input, hence
        # linear itself.
        vs, es = map(list, _shortest_cycle(state.edges, state.incident))
        k = len(es)

        def third(i: int) -> int:
            spine = {vs[i], vs[(i + 1) % k]}
            rest = state.edges[es[i]] - spine
            if len(rest) != 1:
                raise InvariantError(f"cycle hyperedge {es[i]} has no single third vertex")
            return next(iter(rest))

        us = [third(i) for i in range(k)]

        def other_edge(u: int, ei: int) -> int:
            rest = [f for f in state.incident[u] if f != ei]
            if len(rest) != 1 or rest[0] in es:
                raise InvariantError(f"vertex {u} of the 2-regular hypergraph has no single detour off the cycle")
            return rest[0]

        fs = [other_edge(us[i], es[i]) for i in range(k)]

        if k % 3 == 0:
            take = [vs[i - 1] for i in range(1, k + 1) if i % 3 == 0]
            trace.append(("break_cycle_len_0_mod_3", (k, *take)))
            drop = set(es)
        elif k % 3 == 1:
            if fs[0] != fs[2] or fs[1] != fs[3]:
                if fs[0] == fs[2]:
                    # Rotating all labels by one turns (f2, f4) into the new
                    # (f1, f3), which differ here.
                    vs = vs[1:] + vs[:1]
                    es = es[1:] + es[:1]
                    us = us[1:] + us[:1]
                    fs = fs[1:] + fs[:1]
                take = [us[0], us[2]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 0]
                trace.append(("break_cycle_len_1_mod_3", (k, *take)))
                drop = set(es) | {fs[0], fs[2]}
            else:
                # f1 = f3 and f2 = f4 force a 4-cycle through u1, u3, so the
                # shortest cycle itself has length exactly 4.
                if k != 4:
                    raise InvariantError(f"paired detours on a shortest cycle of length {k}, not 4")
                take = [us[1], us[3]]
                trace.append(("break_cycle_len_4_paired_detours", (k, *take)))
                drop = set(es) | {fs[0], fs[1]}
        else:
            take = [us[0]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 1]
            trace.append(("break_cycle_len_2_mod_3", (k, *take)))
            drop = set(es) | {fs[0]}
        removed.update(take)
        for eid in drop:
            state.drop_edge(eid)

    trace.append(("base", ()))
    if not _acyclic(e for e in h.hyperedges if removed.isdisjoint(e)):
        raise InvariantError("the removed vertices leave a cycle")
    return FvsResult(frozenset(removed), tuple(trace))


def minimal_fes(h: Hypergraph) -> FesResult:
    """Minimal feedback edge set, from the greedy scan in hyperedge id order.

    Starting from the trivial feedback edge set (all hyperedges), each
    hyperedge is dropped from it when the rest still meets every cycle,
    equivalently when re-adding the hyperedge to the kept acyclic part closes
    no cycle. An incremental union-find over the kept part implements that
    test.
    """
    forest = _Forest()
    return FesResult(frozenset(eid for eid, e in zip(h.hyperedge_ids, h.hyperedges) if not forest.link(e)))


def is_minimal_fes(h: Hypergraph, removed: Collection[int]) -> bool:
    """True when re-adding any single hyperedge of `removed` to the rest of h
    leaves a cycle.

    One union-find pass over the residual (h without `removed`). When the
    residual is acyclic, a hyperedge re-added to it closes a cycle exactly
    when two of its vertices are already joined; when the residual is itself
    cyclic, every re-addition leaves that cycle, so the answer is True.
    """
    forest = _Forest()
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        if eid not in removed and not forest.link(e):
            return True
    return all(forest.closes_cycle(h.hyperedge(f)) for f in removed)


def fes_size_bound(h: Hypergraph) -> int | None:
    """The guaranteed bound 2m - |V'| + p for a minimal feedback edge set of a
    linear 3-uniform hypergraph: V' = non-isolated vertices, p = number of
    components containing at least one hyperedge. None when h is not linear
    and 3-uniform, where no bound is guaranteed."""
    try:
        _require_linear_3_uniform(h)
    except (NotThreeUniformError, NotLinearError):
        return None
    non_isolated = h.non_isolated_vertices()
    p = sum(1 for c in components(h) if c.hyperedge_ids)
    return 2 * h.num_hyperedges - len(non_isolated) + p
