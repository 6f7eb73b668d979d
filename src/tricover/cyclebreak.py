"""Cycle destruction for linear 3-uniform hypergraphs.

Two engines:

* `feedback_vertex_set` removes at most floor(m/3) vertices from an m-edge
  linear 3-uniform hypergraph and leaves it acyclic; its docstring states
  the rules and their phases. The working copy the rules delete from,
  `_WorkingState`, and rule 5's search, `_shortest_cycle`, live here too:
  this module is their only caller.
* `minimal_fes` greedily shrinks the trivial all-hyperedges feedback edge set
  to a minimal one; for linear 3-uniform inputs its size is bounded by
  2m - |V'| + p, with V' the non-isolated vertices and p their component
  count. Its one union-find scan, `_fes_hyperedges`, returns the dropped
  hyperedges, and the fes route takes the least vertex of each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Collection, Mapping

from .errors import InvariantError, NotLinearError, NotThreeUniformError
from .hypergraph import Hypergraph, _Forest, are_acyclic, components, is_k_uniform, is_linear

TraceStep = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class FvsResult:
    """Feedback vertex set of size at most floor(m/3), plus the recursion trace.

    Each trace step is (rule name, involved ids). Deleting removed_vertices
    from the input hypergraph leaves it acyclic.
    """

    removed_vertices: frozenset[int]
    trace: tuple[TraceStep, ...]


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
    linear (triangle hypergraphs always are) and check the result
    themselves: feedback_vertex_set by one union-find pass over the
    hyperedges the removed vertices miss, the fvs route by its exact solve
    of those same hyperedges, which rejects a cycle. Only the floor(m/3)
    bound is checked here.

    Rule 3 pops a lazy max-heap of (-degree, vertex). Degrees only fall, so
    an entry's degree is never below its vertex's current one, and a popped
    entry that is still current is the highest degree, least label on
    ties; a stale entry is pushed again while its degree is at least 3.
    """
    state = _WorkingState(h)
    removed: set[int] = set()
    trace: list[TraceStep] = []
    for eid in sorted(state._peeled):
        trace.append(("drop_off_cycle_hyperedge", (eid,)))
        state.drop_edge(eid)

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


class _WorkingState:
    """The FVS working copy: a hypergraph deleted from in place, with the one
    cycle-membership search.

    edges maps each surviving hyperedge id to its members. incident is the
    input's own incidence map, never copied: each non-isolated vertex to
    the ascending ids of all its hyperedges, dropped ones included, so
    every reader skips ids not in edges. degree counts each vertex's
    surviving hyperedges, and a vertex leaves it with its last one:
    deleting it means no more. alive lists the surviving ids of a vertex.

    off_cycle reports the voided hyperedges the last peel took off with no
    search, and searches the rest, so a peel only spares searches that
    would fail. A cycle a search closes is kept whole, as its hyperedge
    ids: live counts, per hyperedge, the kept cycles through it that
    survive, so its keys are the hyperedges known to be on a cycle.
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
        its 2-core takes off now: a hyperedge with at most one member left
        in another unpeeled one is on no cycle. Deleting hyperedges creates
        no cycle, so off_cycle reports them with no search."""
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


def minimal_fes(h: Hypergraph) -> frozenset[int]:
    """Ids of a minimal feedback edge set, from the greedy scan in hyperedge
    id order: deleting them leaves h acyclic, and re-adding any one of them
    recreates a cycle.

    Starting from the trivial feedback edge set (all hyperedges), each
    hyperedge is dropped from it when the rest still meets every cycle,
    equivalently when re-adding the hyperedge to the kept acyclic part closes
    no cycle. An incremental union-find over the kept part implements that
    test. Each dropped hyperedge holds its least vertex, so any hyperedge
    those vertices miss is kept.
    """
    return frozenset(_fes_hyperedges(h))


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
