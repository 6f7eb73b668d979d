"""Cycle destruction for linear 3-uniform hypergraphs.

Two engines:

* `feedback_vertex_set` removes at most floor(m/3) vertices from an m-edge
  linear 3-uniform hypergraph and leaves it acyclic. It drops the
  hyperedges the 2-core peel takes off, then takes vertices of the highest
  degree while one has degree >= 3 (rule 3), with no search. If rule 3
  took any, it peels again, so the searches stay inside the 2-core it
  left. Then, until no hyperedge is left, it drops those on no cycle
  (rule 2) and takes vertices by rule 4 or 5. The rules mutate one
  `hypergraph._WorkingState`, whose peels and cycle searches decide rule
  2. A peel only spares searches that would fail, so rule 2 stays exact.
  Rule 4 reads only degrees, and rule 5 searches for a shortest cycle.
* `minimal_fes` greedily shrinks the trivial all-hyperedges feedback edge set
  to a minimal one; for linear 3-uniform inputs its size is bounded by
  2m - |V'| + p, with V' the non-isolated vertices and p their component
  count. Its one union-find scan, `_fes_hyperedges`, returns the dropped
  hyperedges, and the fes route takes the least vertex of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Collection

from .errors import InvariantError, NotLinearError, NotThreeUniformError
from .hypergraph import (
    Hypergraph,
    _Forest,
    _shortest_cycle,
    _WorkingState,
    are_acyclic,
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

    Rules (isolated vertices are never touched):

    1. no hyperedge left: done. With at most two left, none lies on a cycle
       (a linear cycle needs 3), so rule 2 drops them;
    2. some hyperedge lies on no cycle: drop it (a vertex on no cycle lies
       only in such hyperedges and goes with the last of them). It takes
       no vertex, and no other rule drops a hyperedge by itself;
    3. some vertex has degree >= 3: take one of the highest degree, the
       least on ties (kills >= 3 hyperedges);
    4. some vertex p has degree 1 (the least): its hyperedge e1 = {p, a, b},
       a < b, lies on a cycle, which enters and leaves e1 at a and b, so b
       has degree 2 and one other hyperedge e2. e2 lies on a cycle too, so
       it has a member other than b of degree 2; let v3 be the least and e3
       its other hyperedge. Take v3: that kills e2 and e3, and leaves b of
       degree 1, so e1 lies on no cycle and rule 2 drops it. No search runs;
    5. otherwise the hypergraph is 2-regular: take a shortest cycle
       v1 e1 ... vk ek, let u_i be the third vertex of e_i and f_i the other
       hyperedge at u_i, and branch on k mod 3:
         k = 0 (mod 3): take {v_i : i = 0 mod 3}; the k cycle hyperedges go;
         k = 1 (mod 3), f1 != f3 after rotating the labels by one if needed:
           take {u1, u3} and {v_i : i = 0 mod 3, 4 <= i <= k}; the cycle
           hyperedges and f1, f3 go;
         k = 1 (mod 3), f1 = f3 and f2 = f4: then k must be 4; take {u2, u4};
           the cycle hyperedges and f1, f2 go;
         k = 2 (mod 3): take {u1} and {v_i : i = 1 mod 3, 4 <= i <= k}; the
           cycle hyperedges and f1 go.
       The takes leave the named hyperedges they miss on no cycle, so rule
       2 drops them.

    They run in three phases. First rule 2 drops the hyperedges that the
    2-core peel takes off, in ascending id order, with no search. Then rule
    3 takes vertices until every degree is at most 2; it reads no cycle, so
    no search runs before it is done, and degrees only fall, so it never
    applies again. If it took a vertex, the 2-core is peeled again. Last,
    until no hyperedge is left, rule 2 drops every hyperedge found on no
    cycle, then rule 4 or else rule 5 takes vertices. Rule 2 searches for
    a cycle through a hyperedge only when the last peel kept it and no
    cycle found earlier still runs through it. A peeled hyperedge lies on
    no cycle, so the peels only spare searches that would fail: every
    2-core hyperedge is still searched, and rule 2 stays exact.

    So every hyperedge leaves with a taken vertex or in one
    drop_off_cycle_hyperedge step, and the trace replays from the input
    alone. A take and the rule-2 sweep after it remove at least three
    hyperedges per taken vertex: the floor(m/3) bound. A result that leaves
    a cycle or exceeds that bound raises InvariantError. Input that is not
    3-uniform raises NotThreeUniformError, and 3-uniform input that is not
    linear NotLinearError.
    """
    _require_linear_3_uniform(h)
    res = _feedback_vertex_set(h)
    if not are_acyclic(e for e in h.hyperedges if res.removed_vertices.isdisjoint(e)):
        raise InvariantError("the removed vertices leave a cycle")
    return res


def _require_linear_3_uniform(h: Hypergraph) -> None:
    """The one precondition of both cycle-breaking bounds: raise
    NotThreeUniformError, then NotLinearError, unless h is linear and 3-uniform."""
    if not is_k_uniform(h, 3):
        raise NotThreeUniformError("not 3-uniform")
    if not is_linear(h):
        raise NotLinearError("not linear")


def _feedback_vertex_set(h: Hypergraph) -> FvsResult:
    """feedback_vertex_set without its precondition checks and its
    acyclicity check, for callers that already know h is 3-uniform and
    linear (triangle hypergraphs always are) and check the result themselves.

    The rules act on one working copy, deleting in place. The peeled
    hyperedges go first. Rule 3 then pops a lazy max-heap of (-degree,
    vertex): a stale entry is pushed again while its degree is still at
    least 3, and dropped otherwise. When rule 3 took a vertex, the copy
    peels again: rule 3 leaves many hyperedges on no cycle, which the first
    sweep would otherwise search, each failed search walking its whole
    component. Nothing has been searched yet, so every survivor is still
    voided, and the first sweep reports the newly peeled ones with no
    search. Each later loop sweeps rule 2 over all
    off-cycle hyperedges in ascending id order, and stops when no hyperedge
    is left. That adds nothing to removed, and kills no kept cycle, as none
    runs through them, so live and the voided hyperedges stay as they were.
    A vertex on no cycle lies only in off-cycle hyperedges and leaves
    degree with the last, so no vertex sweep is needed. Rule 4 or 5
    follows and only takes vertices; the other hyperedges its charge counts
    lie on no cycle after the takes, and the next sweep drops them. A count
    checks the floor(m/3) bound. The acyclicity of the result is checked
    once per caller: feedback_vertex_set runs one union-find pass over the
    hyperedges the removed vertices miss, and the fvs route's exact solve
    of those same hyperedges rejects a cycle.
    """
    state = _WorkingState(h)
    removed: set[int] = set()
    trace: list[TraceStep] = []
    for eid in sorted(state._peeled):
        trace.append(("drop_off_cycle_hyperedge", (eid,)))
        state.drop_edge(eid)

    # Rule 3, highest degree first. A heap entry's degree is never below its
    # vertex's current degree, as degrees only fall, so a popped entry that
    # is still current is the highest degree, least label on ties.
    degrees = state.degree
    heap = [(-d, v) for v, d in degrees.items() if d >= 3]
    heapify(heap)
    while heap:
        neg, high = heappop(heap)
        degree = degrees.get(high, 0)
        if degree != -neg:
            if degree >= 3:
                heappush(heap, (-degree, high))
            continue
        removed.add(high)
        trace.append(("take_high_degree_vertex", (high,)))
        state.drop_vertex(high)
    if removed:
        state.peel()

    while True:
        for eid in sorted(state.off_cycle()):
            trace.append(("drop_off_cycle_hyperedge", (eid,)))
            state.drop_edge(eid)
        if not state.edges:
            break

        pendant = min((v for v, d in degrees.items() if d == 1), default=None)
        if pendant is not None:
            # Rule 3 left every degree at most 2, and rule 2 left e1 on a
            # cycle, which enters and leaves e1 at its members a < b other
            # than the pendant. So b has degree 2 and one other hyperedge e2.
            # e2 lies on a cycle too, so besides b it has a member of degree
            # 2; v3 is the least, and e3 its other hyperedge. Taking v3 kills
            # e2 and e3 and leaves b of degree 1 like the pendant, so e1 lies
            # on no cycle and the next rule-2 sweep drops it: three
            # hyperedges go per taken vertex.
            (e1,) = state.alive(pendant)
            b = max(state.edges[e1] - {pendant})
            e2s = [f for f in state.alive(b) if f != e1]
            if len(e2s) != 1:
                raise InvariantError(f"vertex {b} of on-cycle hyperedge {e1} has no single other hyperedge")
            (e2,) = e2s
            v3 = min((v for v in state.edges[e2] if v != b and degrees[v] == 2), default=None)
            if v3 is None:
                raise InvariantError(f"hyperedge {e2} survived rule 2 but only {b} has degree 2")
            (e3,) = (f for f in state.alive(v3) if f != e2)
            removed.add(v3)
            trace.append(("take_vertex_past_pendant_edge", (pendant, e1, e2, e3, v3)))
            state.drop_vertex(v3)
            continue

        # 2-regular from here on: no isolated, degree-1, or degree>=3 vertices.
        # The working copy is a sub-hypergraph of the linear input, hence
        # linear itself.
        vs, es = map(list, _shortest_cycle(state.edges, {v: state.alive(v) for v in degrees}))
        k = len(es)

        def third(i: int) -> int:
            spine = {vs[i], vs[(i + 1) % k]}
            rest = state.edges[es[i]] - spine
            if len(rest) != 1:
                raise InvariantError(f"cycle hyperedge {es[i]} has no single third vertex")
            return next(iter(rest))

        us = [third(i) for i in range(k)]

        def other_edge(u: int, ei: int) -> int:
            rest = [f for f in state.alive(u) if f != ei]
            if len(rest) != 1 or rest[0] in es:
                raise InvariantError(f"vertex {u} of the 2-regular hypergraph has no single detour off the cycle")
            return rest[0]

        fs = [other_edge(us[i], es[i]) for i in range(k)]

        if k % 3 == 0:
            take = [vs[i - 1] for i in range(1, k + 1) if i % 3 == 0]
            trace.append(("break_cycle_len_0_mod_3", (k, *take)))
        elif k % 3 == 1:
            if fs[0] != fs[2] or fs[1] != fs[3]:
                if fs[0] == fs[2]:
                    # Rotating the labels by one turns (f2, f4) into the new
                    # (f1, f3), which differ here; only vs and us are read on.
                    vs = vs[1:] + vs[:1]
                    us = us[1:] + us[:1]
                take = [us[0], us[2]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 0]
                trace.append(("break_cycle_len_1_mod_3", (k, *take)))
            else:
                # f1 = f3 and f2 = f4 force a 4-cycle through u1, u3, so the
                # shortest cycle itself has length exactly 4.
                if k != 4:
                    raise InvariantError(f"paired detours on a shortest cycle of length {k}, not 4")
                take = [us[1], us[3]]
                trace.append(("break_cycle_len_4_paired_detours", (k, *take)))
        else:
            take = [us[0]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 1]
            trace.append(("break_cycle_len_2_mod_3", (k, *take)))
        removed.update(take)
        for v in take:
            state.drop_vertex(v)

    trace.append(("base", ()))
    if len(removed) > h.num_hyperedges // 3:
        raise InvariantError(f"{len(removed)} removed vertices exceed floor(m/3) = {h.num_hyperedges // 3}")
    return FvsResult(frozenset(removed), tuple(trace))


def minimal_fes(h: Hypergraph) -> FesResult:
    """Minimal feedback edge set, from the greedy scan in hyperedge id order.

    Starting from the trivial feedback edge set (all hyperedges), each
    hyperedge is dropped from it when the rest still meets every cycle,
    equivalently when re-adding the hyperedge to the kept acyclic part closes
    no cycle. An incremental union-find over the kept part implements that
    test. Each dropped hyperedge holds its least vertex, so any hyperedge
    those vertices miss is kept.
    """
    return FesResult(frozenset(_fes_hyperedges(h)))


def _fes_hyperedges(h: Hypergraph) -> dict[int, frozenset[int]]:
    """The hyperedges minimal_fes's one union-find scan drops, id -> members
    in id order."""
    forest = _Forest()
    return {eid: e for eid, e in h._edges.items() if not forest.link(e)}


def is_minimal_fes(h: Hypergraph, removed: Collection[int]) -> bool:
    """True when re-adding any single hyperedge of `removed` to the rest of h
    leaves a cycle.

    One union-find pass over the residual (h without `removed`). When the
    residual is acyclic, a hyperedge re-added to it closes a cycle exactly
    when link refuses it, joining nothing, so any() stops at the first that
    closes none; when the residual is itself cyclic, every re-addition leaves
    that cycle, so the answer is True.
    """
    forest = _Forest()
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        if eid not in removed and not forest.link(e):
            return True
    return not any(forest.link(h.hyperedge(f)) for f in removed)


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
