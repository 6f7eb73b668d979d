"""Reference implementations kept for differential tests.

`feedback_vertex_set` is the original engine: it rebuilds the hypergraph
after every deletion and recomputes cycle membership from scratch on every
step, with its own bridge computation (`_bridge_edges`, `on_cycle_elements`)
and the pairwise linearity scan (`is_linear_pairwise`). The package's
engine must return exactly the same removed set and trace.
"""

from __future__ import annotations

from typing import Mapping

from tricover.cyclebreak import FvsResult, TraceStep
from tricover.errors import NotLinearError, NotThreeUniformError
from tricover.hypergraph import (
    Cycle,
    Hypergraph,
    _cycle_through_edge,
    _enode,
    _incidence_adj,
    delete_hyperedges,
    delete_vertices,
    is_k_uniform,
    shortest_cycle,
)


def is_linear_pairwise(h: Hypergraph) -> bool:
    """True when every pair of distinct hyperedges shares at most one vertex."""
    edges = h.hyperedges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if len(edges[i] & edges[j]) > 1:
                return False
    return True


def _bridge_edges(adj: Mapping[int, tuple[int, ...]]) -> set[frozenset[int]]:
    """Bridges of a simple undirected graph, iterative lowpoint computation."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[frozenset[int]] = set()
    timer = 0
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int | None, int]] = [(root, None, 0)]
        while stack:
            node, par, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, par, idx + 1)
                nxt = adj[node][idx]
                if nxt == par:
                    continue
                if nxt in disc:
                    low[node] = min(low[node], disc[nxt])
                else:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, node, 0))
            else:
                stack.pop()
                if par is not None:
                    low[par] = min(low[par], low[node])
                    if low[node] > disc[par]:
                        bridges.add(frozenset((par, node)))
    return bridges


def on_cycle_elements(h: Hypergraph) -> tuple[frozenset[int], frozenset[int]]:
    """(vertices, hyperedge ids) lying on at least one cycle of h.

    A hyperedge lies on a cycle exactly when its incidence node has a
    non-bridge incidence edge; a vertex lies on a cycle exactly when one of
    its hyperedges does (cycles are sub-hypergraphs spanning all vertices of
    their hyperedges).
    """
    adj = _incidence_adj(h)
    bridges = _bridge_edges(adj)
    cyc_edges: set[int] = set()
    for eid in h.hyperedge_ids:
        en = _enode(eid)
        if any(frozenset((en, vn)) not in bridges for vn in adj[en]):
            cyc_edges.add(eid)
    cyc_verts = {v for e in cyc_edges for v in h.hyperedge(e)}
    return frozenset(cyc_verts), frozenset(cyc_edges)


def _rotate_edge_first(cycle: Cycle, eid: int) -> tuple[list[int], list[int]]:
    """Relabel the cycle so that hyperedge eid comes first.

    Both orientations are considered and the lexicographically smaller
    (vertices, hyperedges) labeling wins, so the outcome is deterministic.
    """
    vs, es = list(cycle.vertices), list(cycle.hyperedge_ids)
    rvs = [vs[0]] + vs[:0:-1]
    res = es[::-1]
    cands = []
    for seq_v, seq_e in ((vs, es), (rvs, res)):
        i = seq_e.index(eid)
        cands.append((tuple(seq_v[i:] + seq_v[:i]), tuple(seq_e[i:] + seq_e[:i])))
    best = min(cands)
    return list(best[0]), list(best[1])


def feedback_vertex_set(h: Hypergraph) -> FvsResult:
    """The original five-rule engine; the rules are documented on
    tricover.cyclebreak.feedback_vertex_set.
    """
    if not is_k_uniform(h, 3):
        raise NotThreeUniformError("feedback_vertex_set requires a 3-uniform hypergraph")
    if not is_linear_pairwise(h):
        raise NotLinearError("feedback_vertex_set requires a linear hypergraph")

    removed: set[int] = set()
    trace: list[TraceStep] = []
    cur = h
    while True:
        if cur.num_hyperedges <= 2:
            trace.append(("base", ()))
            break

        verts_on, edges_on = on_cycle_elements(cur)

        off_vertex = next((v for v in sorted(cur.non_isolated_vertices()) if v not in verts_on), None)
        if off_vertex is not None:
            trace.append(("drop_off_cycle_vertex", (off_vertex,)))
            cur = delete_vertices(cur, (off_vertex,))
            continue
        off_edge = next((e for e in cur.hyperedge_ids if e not in edges_on), None)
        if off_edge is not None:
            trace.append(("drop_off_cycle_hyperedge", (off_edge,)))
            cur = delete_hyperedges(cur, (off_edge,))
            continue

        high = next((v for v in sorted(cur.non_isolated_vertices()) if cur.degree(v) >= 3), None)
        if high is not None:
            removed.add(high)
            trace.append(("take_high_degree_vertex", (high,)))
            cur = delete_vertices(cur, (high,))
            continue

        pendant = next((v for v in sorted(cur.non_isolated_vertices()) if cur.degree(v) == 1), None)
        if pendant is not None:
            e1 = cur.incident(pendant)[0]
            cyc = _cycle_through_edge(cur, _incidence_adj(cur), e1)
            assert cyc is not None  # rule 2 left every hyperedge on a cycle
            vs, es = _rotate_edge_first(cyc, e1)
            v3 = vs[2]
            removed.add(v3)
            trace.append(("take_vertex_past_pendant_edge", (pendant, e1, es[1], es[2], v3)))
            cur = delete_hyperedges(cur, es[:3])
            continue

        # 2-regular from here on: no isolated, degree-1, or degree>=3 vertices.
        cyc = shortest_cycle(cur)
        assert cyc is not None
        vs, es = list(cyc.vertices), list(cyc.hyperedge_ids)
        k = len(es)

        def third(i: int) -> int:
            spine = {vs[i], vs[(i + 1) % k]}
            rest = cur.hyperedge(es[i]) - spine
            assert len(rest) == 1
            return next(iter(rest))

        us = [third(i) for i in range(k)]

        def other_edge(u: int, ei: int) -> int:
            rest = [f for f in cur.incident(u) if f != ei]
            assert len(rest) == 1 and rest[0] not in es
            return rest[0]

        fs = [other_edge(us[i], es[i]) for i in range(k)]

        if k % 3 == 0:
            take = [vs[i - 1] for i in range(1, k + 1) if i % 3 == 0]
            removed.update(take)
            trace.append(("break_cycle_len_0_mod_3", (k, *take)))
            cur = delete_hyperedges(cur, es)
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
                removed.update(take)
                trace.append(("break_cycle_len_1_mod_3", (k, *take)))
                cur = delete_hyperedges(cur, set(es) | {fs[0], fs[2]})
            else:
                # f1 = f3 and f2 = f4 force a 4-cycle through u1, u3, so the
                # shortest cycle itself has length exactly 4.
                assert k == 4
                take = [us[1], us[3]]
                removed.update(take)
                trace.append(("break_cycle_len_4_paired_detours", (k, *take)))
                cur = delete_hyperedges(cur, set(es) | {fs[0], fs[1]})
        else:
            take = [us[0]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 1]
            removed.update(take)
            trace.append(("break_cycle_len_2_mod_3", (k, *take)))
            cur = delete_hyperedges(cur, set(es) | {fs[0]})

    return FvsResult(frozenset(removed), tuple(trace))
