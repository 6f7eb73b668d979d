"""Reference implementations kept for differential tests.

`feedback_vertex_set` is the original engine: it rebuilds the hypergraph
after every deletion, with `delete_vertices` and `delete_hyperedges`, whose
results keep the surviving hyperedges' ids (`hypergraph_with_ids`). It peels the 2-core and takes the high-degree
vertices with degree counts of its own, then recomputes cycle membership
from scratch on every step, with its own bridge computation
(`_bridge_edges`, `on_cycle_elements`) and the pairwise linearity scan
(`is_linear_pairwise`). Rule 4 searches nothing: it reads degrees and
incidences off the rebuilt hypergraph. Rule 5's
`shortest_cycle`, with its `_girth` pre-pass and the canonical form
`_canonical`, runs BFS over an encoded incidence adjacency
(`_incidence_adj`). None of them call the package's search code, so the
package's engine and searches must return exactly the same results as an
independent implementation. A cycle here is a plain (spine, hyperedge ids)
pair of tuples, the form `tricover.hypergraph._shortest_cycle` returns, and
`validate_cycle` checks one against the cycle definition.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from tricover.cyclebreak import FvsResult, TraceStep
from tricover.errors import InvariantError, NotLinearError, NotThreeUniformError
from tricover.hypergraph import Hypergraph, is_k_uniform


def hypergraph_with_ids(vertices: frozenset[int], edges: Mapping[int, frozenset[int]]) -> Hypergraph:
    """A hypergraph whose hyperedges keep the given ids, which need not be
    0..m-1. The constructor numbers hyperedges in input order, so this fills
    Hypergraph's three slots directly: ascending ids, and each vertex's
    incident ids ascending."""
    h = Hypergraph.__new__(Hypergraph)
    h.vertices = vertices
    h._edges = dict(sorted(edges.items()))
    incident: dict[int, list[int]] = {}
    for eid, e in h._edges.items():
        for v in e:
            incident.setdefault(v, []).append(eid)
    h._incident = {v: tuple(eids) for v, eids in incident.items()}
    return h


def delete_vertices(h: Hypergraph, vertex_ids: Iterable[int]) -> Hypergraph:
    """Remove the vertices and every hyperedge touching one of them; the
    surviving hyperedges keep their ids."""
    drop = frozenset(vertex_ids)
    return hypergraph_with_ids(h.vertices - drop, {eid: e for eid, e in h._edges.items() if drop.isdisjoint(e)})


def delete_hyperedges(h: Hypergraph, edge_ids: Iterable[int]) -> Hypergraph:
    """Remove the hyperedges; every vertex stays, and the surviving
    hyperedges keep their ids."""
    drop = frozenset(edge_ids)
    return hypergraph_with_ids(h.vertices, {eid: e for eid, e in h._edges.items() if eid not in drop})


def is_linear_pairwise(h: Hypergraph) -> bool:
    """True when every pair of distinct hyperedges shares at most one vertex."""
    edges = h.hyperedges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if len(edges[i] & edges[j]) > 1:
                return False
    return True


# Incidence-graph node encoding: vertex v -> 2v, hyperedge e -> 2e+1.


def _vnode(v: int) -> int:
    return v << 1


def _enode(e: int) -> int:
    return (e << 1) | 1


def _incidence_adj(h: Hypergraph) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = {}
    for v in h.vertices:
        adj[_vnode(v)] = [_enode(e) for e in h.incident(v)]
    for eid, e in zip(h.hyperedge_ids, h.hyperedges):
        adj[_enode(eid)] = [_vnode(v) for v in sorted(e)]
    return {x: tuple(ns) for x, ns in adj.items()}


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


Cycle = tuple[tuple[int, ...], tuple[int, ...]]  # (spine v1 ... vk, hyperedge ids e1 ... ek)


def validate_cycle(h: Hypergraph, cycle: Cycle) -> None:
    """Raise ValueError unless cycle satisfies the cycle invariants in h."""
    vs, es = cycle
    if len(vs) != len(es) or len(vs) < 2:
        raise ValueError("cycle needs equally many vertices and hyperedges, at least 2 each")
    if len(set(vs)) != len(vs) or len(set(es)) != len(es):
        raise ValueError("cycle vertices and hyperedges must be distinct")
    k = len(vs)
    for i in range(k):
        if not {vs[i], vs[(i + 1) % k]} <= h.hyperedge(es[i]):
            raise ValueError(f"hyperedge {es[i]} does not contain consecutive vertices")


def _canonical(vertices: Iterable[int], hyperedge_ids: Iterable[int]) -> Cycle:
    """Among all rotations of both orientations, the lexicographically least
    (vertices, hyperedge_ids) pair."""
    vs = list(vertices)
    es = list(hyperedge_ids)
    if len(vs) != len(es) or len(vs) < 2:
        raise ValueError("cycle needs equally many vertices and hyperedges, at least 2 each")
    k = len(vs)
    # Reflected traversal: v1, vk, ..., v2 along ek, e(k-1), ..., e1.
    rvs = [vs[0]] + vs[:0:-1]
    res = es[::-1]
    best = None
    for seq_v, seq_e in ((vs, es), (rvs, res)):
        for r in range(k):
            cand = (tuple(seq_v[r:] + seq_v[:r]), tuple(seq_e[r:] + seq_e[:r]))
            if best is None or cand < best:
                best = cand
    return best


def _bfs_path(adj: Mapping[int, tuple[int, ...]], src: int, dst: int, banned: int) -> list[int] | None:
    """Shortest src -> dst node path avoiding `banned`, deterministic tie-break.

    Neighbors are explored in the (sorted) adjacency order, so the parent of
    every node is fixed and the returned path is reproducible.
    """
    if src == dst:
        return [src]
    prev: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y == banned or y in prev:
                continue
            prev[y] = x
            if y == dst:
                path = [y]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(y)
    return None


def _cycle_key(cycle: Cycle) -> tuple:
    vs, es = cycle
    return (len(es), tuple(sorted(es)), vs, es)


def _girth(h: Hypergraph, adj: Mapping[int, tuple[int, ...]]) -> int | None:
    best: int | None = None
    for eid in h.hyperedge_ids:
        members = sorted(h.hyperedge(eid))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                path = _bfs_path(adj, _vnode(members[i]), _vnode(members[j]), _enode(eid))
                if path is None:
                    continue
                length = 1 + len(path) // 2
                if best is None or length < best:
                    best = length
    return best


def shortest_cycle(h: Hypergraph) -> Cycle | None:
    """A minimum-length cycle of a linear hypergraph, or None when it is
    acyclic; among all minimum-length cycles, the least under `_cycle_key`.
    """
    if not is_linear_pairwise(h):
        raise NotLinearError("cycle search requires a linear hypergraph")
    adj = _incidence_adj(h)
    girth = _girth(h, adj)
    if girth is None:
        return None
    best_key: tuple | None = None
    best: Cycle | None = None
    incident = {v: h.incident(v) for v in h.non_isolated_vertices()}

    def report(verts: list[int], edges: list[int]) -> None:
        nonlocal best, best_key
        cyc = _canonical(verts, edges)
        key = _cycle_key(cyc)
        if best_key is None or key < best_key:
            best, best_key = cyc, key

    # Enumerate every cycle of length exactly `girth` whose least spine vertex
    # is the start; shorter closures cannot exist.
    for start in sorted(incident):
        spine = [start]
        used_edges: list[int] = []
        used_edge_set: set[int] = set()
        on_spine = {start}

        def extend(cur: int) -> None:
            depth = len(used_edges)
            for eid in incident[cur]:
                if eid in used_edge_set:
                    continue
                e = h.hyperedge(eid)
                if depth == girth - 1:
                    if start in e and cur != start:
                        report(spine.copy(), used_edges + [eid])
                    continue
                for w in sorted(e):
                    if w == cur or w in on_spine or w < start:
                        continue
                    spine.append(w)
                    used_edges.append(eid)
                    used_edge_set.add(eid)
                    on_spine.add(w)
                    extend(w)
                    on_spine.discard(w)
                    used_edge_set.discard(eid)
                    used_edges.pop()
                    spine.pop()

        extend(start)
    if best is None:
        raise InvariantError(f"no cycle of length {girth} found, though the girth search found one")
    return best


def feedback_vertex_set(h: Hypergraph) -> FvsResult:
    """The original five-rule engine, after the peel and the high-degree
    takes; the rules are documented on tricover.cyclebreak.feedback_vertex_set.
    Degrees only fall, so its rule 3 never fires after the takes: if it
    did, its least-label take would differ from the package's trace.
    """
    if not is_k_uniform(h, 3):
        raise NotThreeUniformError("feedback_vertex_set requires a 3-uniform hypergraph")
    if not is_linear_pairwise(h):
        raise NotLinearError("feedback_vertex_set requires a linear hypergraph")

    removed: set[int] = set()
    trace: list[TraceStep] = []
    cur = h
    # Rule 2 before any take: the 2-core peel. A hyperedge with fewer than
    # two members of degree >= 2 hangs off the rest and lies on no cycle.
    peeled: list[int] = []
    while shed := [eid for eid in cur.hyperedge_ids if sum(cur.degree(v) >= 2 for v in cur.hyperedge(eid)) < 2]:
        peeled += shed
        cur = delete_hyperedges(cur, shed)
    trace += [("drop_off_cycle_hyperedge", (eid,)) for eid in sorted(peeled)]

    # Rule 3 before any search: the highest degree, least label on ties.
    while cur.num_hyperedges:
        high = max(cur.non_isolated_vertices(), key=lambda v: (cur.degree(v), -v))
        if cur.degree(high) < 3:
            break
        removed.add(high)
        trace.append(("take_high_degree_vertex", (high,)))
        cur = delete_vertices(cur, (high,))

    while True:
        if not cur.num_hyperedges:
            trace.append(("base", ()))
            break

        _, edges_on = on_cycle_elements(cur)

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
            (e1,) = cur.incident(pendant)
            b = max(cur.hyperedge(e1) - {pendant})
            e2s = [f for f in cur.incident(b) if f != e1]
            if len(e2s) != 1:
                raise AssertionError(f"vertex {b} of hyperedge {e1} has {len(e2s)} other hyperedges")
            e2 = e2s[0]
            v3s = sorted(v for v in cur.hyperedge(e2) if v != b and cur.degree(v) == 2)
            if not v3s:
                raise AssertionError(f"hyperedge {e2} has no member of degree 2 besides {b}")
            v3 = v3s[0]
            e3 = next(f for f in cur.incident(v3) if f != e2)
            removed.add(v3)
            trace.append(("take_vertex_past_pendant_edge", (pendant, e1, e2, e3, v3)))
            cur = delete_vertices(cur, (v3,))
            continue

        # 2-regular from here on: no isolated, degree-1, or degree>=3 vertices.
        cyc = shortest_cycle(cur)
        if cyc is None:
            raise AssertionError("the 2-regular remainder has no cycle")
        vs, es = map(list, cyc)
        k = len(es)

        def third(i: int) -> int:
            spine = {vs[i], vs[(i + 1) % k]}
            rest = cur.hyperedge(es[i]) - spine
            if len(rest) != 1:
                raise AssertionError(f"hyperedge {es[i]} has {len(rest)} vertices off the cycle spine")
            return next(iter(rest))

        us = [third(i) for i in range(k)]

        def other_edge(u: int, ei: int) -> int:
            rest = [f for f in cur.incident(u) if f != ei]
            if not (len(rest) == 1 and rest[0] not in es):
                raise AssertionError(f"vertex {u} has no single hyperedge off the cycle besides {ei}")
            return rest[0]

        fs = [other_edge(us[i], es[i]) for i in range(k)]

        if k % 3 == 0:
            take = [vs[i - 1] for i in range(1, k + 1) if i % 3 == 0]
            removed.update(take)
            trace.append(("break_cycle_len_0_mod_3", (k, *take)))
            cur = delete_vertices(cur, take)
        elif k % 3 == 1:
            if fs[0] != fs[2] or fs[1] != fs[3]:
                if fs[0] == fs[2]:
                    # Rotating all labels by one turns (f2, f4) into the new
                    # (f1, f3), which differ here.
                    vs = vs[1:] + vs[:1]
                    us = us[1:] + us[:1]
                take = [us[0], us[2]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 0]
                removed.update(take)
                trace.append(("break_cycle_len_1_mod_3", (k, *take)))
                cur = delete_vertices(cur, take)
            else:
                # f1 = f3 and f2 = f4 force a 4-cycle through u1, u3, so the
                # shortest cycle itself has length exactly 4.
                if k != 4:
                    raise AssertionError(f"paired detours on a cycle of length {k}, not 4")
                take = [us[1], us[3]]
                removed.update(take)
                trace.append(("break_cycle_len_4_paired_detours", (k, *take)))
                cur = delete_vertices(cur, take)
        else:
            take = [us[0]] + [vs[i - 1] for i in range(4, k + 1) if i % 3 == 1]
            removed.update(take)
            trace.append(("break_cycle_len_2_mod_3", (k, *take)))
            cur = delete_vertices(cur, take)

    return FvsResult(frozenset(removed), tuple(trace))
