"""Instance generators shared by the unit and acceptance suites.

Everything is seeded; corpora are deterministic across runs.
"""

from __future__ import annotations

import random
from itertools import accumulate

from tricover import Graph, Hypergraph, complete_graph, random_gnp, triangle_hypergraph


def random_linear_3_uniform(rng: random.Random, num_vertices: int, num_edges: int) -> Hypergraph:
    """Rejection-sample a linear 3-uniform hypergraph.

    May come out with fewer hyperedges than requested when the vertex pool is
    too tight to stay linear.
    """
    edges: list[frozenset[int]] = []
    attempts = 0
    while len(edges) < num_edges and attempts < 300 * (num_edges + 1):
        attempts += 1
        trio = frozenset(rng.sample(range(num_vertices), 3))
        if all(len(trio & e) <= 1 for e in edges):
            edges.append(trio)
    return Hypergraph(range(num_vertices), edges)


def random_hypertree(rng: random.Random, num_edges: int) -> Hypergraph:
    """Connected acyclic linear 3-uniform hypergraph with num_edges hyperedges.

    Grown by pendant hyperedges: each new hyperedge shares exactly one vertex
    with what exists and brings two fresh vertices, so the vertex count is
    always 2 * num_edges + 1.
    """
    if num_edges == 0:
        return Hypergraph([0], [])
    edges = [frozenset((0, 1, 2))]
    next_vertex = 3
    for _ in range(num_edges - 1):
        attach = rng.randrange(next_vertex)
        edges.append(frozenset((attach, next_vertex, next_vertex + 1)))
        next_vertex += 2
    return Hypergraph(range(next_vertex), edges)


def random_acyclic_forest(rng: random.Random, num_edges: int, isolated: int = 0) -> Hypergraph:
    """Disjoint union of random hypertrees, plus optional isolated vertices."""
    parts: list[int] = []
    remaining = num_edges
    while remaining > 0:
        size = rng.randint(1, remaining)
        parts.append(size)
        remaining -= size
    edges: list[frozenset[int]] = []
    offset = 0
    for size in parts:
        tree = random_hypertree(rng, size)
        edges.extend(frozenset(v + offset for v in e) for e in tree.hyperedges)
        offset += len(tree.vertices)
    return Hypergraph(range(offset + isolated), edges)


def random_hyperforest(rng: random.Random) -> Hypergraph:
    """1 to 4 random hypertrees with hyperedges of 1 to 4 members, each
    hung from a vertex already in its tree, plus up to 3 isolated vertices;
    vertex ids are sparse and shuffled, and hyperedge ids shuffled too."""
    edges: list[list[int]] = []
    n = 0
    for _ in range(rng.randint(1, 4)):
        tree = [n]
        n += 1
        for _ in range(rng.randint(0, 8)):
            grown = list(range(n, n + rng.randint(0, 3)))
            edges.append([rng.choice(tree), *grown])
            tree += grown
            n += len(grown)
    n += rng.randint(0, 3)
    names = rng.sample(range(4 * n), n)
    rng.shuffle(edges)
    return Hypergraph(names, [[names[v] for v in e] for e in edges])


def hypergraph_from_cubic(n: int, cubic_edges: list[tuple[int, int]]) -> Hypergraph:
    """Dual hypergraph of a 3-regular simple graph.

    Hypergraph vertices are the graph's edges; hyperedge i collects the three
    edges at graph vertex i. The result is 3-uniform, linear, and 2-regular,
    and its cycles correspond to the graph's cycles, so girth carries over.
    """
    g = Graph(n, cubic_edges)
    if not all(g.degree(v) == 3 for v in range(n)):
        raise AssertionError("the graph is not 3-regular")
    return Hypergraph(range(g.num_edges), ([g.edge_id(v, w) for w in sorted(g.neighbors(v))] for v in range(n)))


def random_cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]] | None:
    """Edges of a random simple 3-regular graph on n vertices by the
    configuration model, or None when 100 pairings all failed."""
    for _ in range(100):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            return sorted(edges)
    return None


def random_cubic_duals(seed: int, count: int, sizes=(4, 6, 8, 10, 12, 14, 16, 18, 20)) -> list[Hypergraph]:
    """Duals of seeded random cubic graphs: 2-regular linear 3-uniform
    hypergraphs, whose cycle breaking runs mostly on the short-cycle rule."""
    rng = random.Random(seed)
    out: list[Hypergraph] = []
    while len(out) < count:
        edges = random_cubic_edges(rng, rng.choice(sizes))
        if edges is not None:
            out.append(hypergraph_from_cubic(len(edges) * 2 // 3, edges))
    return out


def petersen_edges() -> tuple[int, list[tuple[int, int]]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def k33_edges() -> tuple[int, list[tuple[int, int]]]:
    return 6, [(a, b) for a in range(3) for b in range(3, 6)]


def cube_edges() -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for v in range(8):
        for bit in range(3):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return 8, edges


def prism_edges() -> tuple[int, list[tuple[int, int]]]:
    return 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def crossed_k33_edges() -> tuple[int, list[tuple[int, int]]]:
    """Two copies of K33 minus an edge, cross-joined to stay cubic with girth 4.

    Contains 4-cycles whose opposite detour vertices coincide on exactly one
    of the two position pairs, unlike plain K33 where both pairs coincide.
    Vertex labels put one such mixed 4-cycle on the four smallest ids so the
    canonical shortest-cycle choice lands on it.
    """
    # Mixed 4-cycle on vertices 0, 1, 2, 3 = b1, a1, b2, a3: the detours from
    # b1 and b2 both reach a2, the detours from a1 and a3 reach b3 and the
    # other copy. The labels make it the canonical shortest cycle and place
    # the coincident detour pair on the odd cycle positions.
    a1, b1, a2, b2, a3, b3 = 1, 0, 10, 2, 3, 4
    a1p, b1p, a2p, b2p, a3p, b3p = 5, 6, 7, 8, 9, 11
    edges = []
    for a in (a1, a2, a3):
        for b in (b1, b2, b3):
            if (a, b) != (a3, b3):
                edges.append((a, b))
    for a in (a1p, a2p, a3p):
        for b in (b1p, b2p, b3p):
            if (a, b) != (a3p, b3p):
                edges.append((a, b))
    edges.append((a3, b3p))
    edges.append((a3p, b3))
    return 12, [(min(u, v), max(u, v)) for u, v in edges]


def mcgee_edges() -> tuple[int, list[tuple[int, int]]]:
    """The McGee graph, the smallest cubic graph of girth 7: a 24-cycle
    with chords by the LCF code [12, 7, -7]^8."""
    ring = {(i, (i + 1) % 24) for i in range(24)}
    chords = {(i, (i + (12, 7, -7)[i % 3]) % 24) for i in range(24)}
    return 24, sorted({(min(u, v), max(u, v)) for u, v in ring | chords})


def two_regular_fixtures() -> list[Hypergraph]:
    """2-regular linear 3-uniform instances hitting every short-cycle branch:
    girth 3 (prism), girth 4 with both detour pairings (K33, cube, crossed
    K33), girth 5 (Petersen)."""
    out = []
    for n, edges in (prism_edges(), k33_edges(), cube_edges(), crossed_k33_edges(), petersen_edges()):
        out.append(hypergraph_from_cubic(n, edges))
    return out


def bridged_blocks() -> Hypergraph:
    """Three 2-regular blocks joined by one connector hyperedge.

    The connector lies on no cycle (the blocks stay disjoint without it), yet
    each of its vertices does, so cycle-free cleanup must drop the hyperedge
    itself rather than any vertex.
    """
    blocks = []
    base = triangle_hypergraph(Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]))
    for off in (0, 6, 12):
        blocks.extend(frozenset(v + off for v in e) for e in base.hyperedges)
    blocks.append(frozenset((0, 6, 12)))
    return Hypergraph(range(18), blocks)


def random_bridged_blocks(rng: random.Random, num_blocks: int) -> Hypergraph:
    """Random linear blocks joined into a tree by connector hyperedges.

    Each connector takes one non-isolated vertex from each of three blocks,
    one already joined and two new, so connectors lie on no cycle while
    their vertices often do. Two connectors share at most one block, which
    keeps the result linear.
    """
    blocks: list[list[frozenset[int]]] = []
    offset = 0
    for _ in range(num_blocks):
        nv = rng.randint(7, 13)
        block = random_linear_3_uniform(rng, nv, rng.randint(2, nv - 2))
        blocks.append([frozenset(v + offset for v in e) for e in block.hyperedges])
        offset += nv
    edges = [e for block in blocks for e in block]
    order = [i for i in range(num_blocks) if blocks[i]]
    rng.shuffle(order)
    joined = order[:1]
    for i in range(1, len(order) - 1, 2):
        trio = (rng.choice(joined), order[i], order[i + 1])
        edges.append(frozenset(rng.choice(sorted(set().union(*blocks[b]))) for b in trio))
        joined += order[i : i + 2]
    return Hypergraph(range(offset), edges)


def random_graph_hypergraphs(seed: int, count: int, max_hyperedges: int = 40) -> list[Hypergraph]:
    """Triangle hypergraphs of random graphs, capped at max_hyperedges."""
    rng = random.Random(seed)
    out: list[Hypergraph] = []
    while len(out) < count:
        n = rng.randint(5, 13)
        p = rng.uniform(0.2, 0.75)
        g = random_gnp(n, p, rng.randrange(1 << 30))
        hg = triangle_hypergraph(g)
        if 0 < hg.num_hyperedges <= max_hyperedges:
            out.append(hg)
    return out


HUGE = 2**40
ODD_IDS = [-(2**50), -7, -1, 0, 3, 1000, HUGE, HUGE + 1, 2**63, 10**30]


def relabelled(h: Hypergraph, rng: random.Random) -> Hypergraph:
    """h with its vertices renamed to distinct negative, sparse or huge ids."""
    pool = ODD_IDS + rng.sample(range(-(10**6), 10**6), len(h.vertices))
    names = dict(zip(sorted(h.vertices), rng.sample(pool, len(h.vertices))))
    return Hypergraph(names.values(), [[names[v] for v in e] for e in h.hyperedges])


def mixed_linear_corpus(seed: int, count: int, max_hyperedges: int = 40) -> list[Hypergraph]:
    """Random linear 3-uniform hypergraphs of varied density and size."""
    rng = random.Random(seed)
    out: list[Hypergraph] = []
    while len(out) < count:
        m = rng.randint(1, max_hyperedges)
        nv = rng.randint(max(4, m + 2), 3 * m + 2)
        h = random_linear_3_uniform(rng, nv, m)
        if h.num_hyperedges > 0:
            out.append(h)
    return out


def route_corpora() -> dict[str, list[Hypergraph]]:
    """The cover routes' pinned corpora: random linear, cubic duals, triangle
    hypergraphs of G(n, p) and relabelled copies."""
    rng = random.Random(71)
    mixed = mixed_linear_corpus(seed=71, count=80)
    gnp = [random_gnp(n, p, seed) for n in (6, 9, 12, 15) for p in (0.4, 0.7, 0.95) for seed in range(3)]
    return {
        "mixed-linear": mixed,
        "cubic-duals": random_cubic_duals(seed=71, count=25),
        "gnp-triangles": [triangle_hypergraph(g) for g in gnp],
        "relabelled": [relabelled(h, rng) for h in mixed[:40]],
    }


def small_graph_corpus(seed: int, count: int, max_edges: int = 25) -> list[Graph]:
    """Seeded random graphs with at most max_edges edges."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = rng.randint(4, 9)
        p = rng.uniform(0.25, 0.85)
        g = random_gnp(n, p, rng.randrange(1 << 30))
        if g.num_edges <= max_edges:
            out.append(g)
    return out


def book_graph(pages: int) -> Graph:
    """pages triangles all sharing the edge (0, 1)."""
    edges = [(0, 1)]
    for i in range(pages):
        v = 2 + i
        edges.append((0, v))
        edges.append((1, v))
    return Graph(2 + pages, edges)


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


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each one's vertex ids shifted past those before it."""
    offsets = list(accumulate((g.n for g in graphs), initial=0))
    return Graph(offsets[-1], [(u + at, v + at) for g, at in zip(graphs, offsets) for u, v in g.edges])


def gadget_augment(g: Graph, k: int, gadget: str) -> Graph:
    """g plus k disjoint copies of the named complete-graph gadget, "K4" or "K5"."""
    return disjoint_union(g, *[complete_graph({"K4": 4, "K5": 5}[gadget])] * k)


def irreducible_subgraph(g: Graph) -> Graph:
    """g minus every edge lying in no triangle, i.e. whose ends share no neighbor.

    One pass suffices: removing an edge outside all triangles destroys no
    triangle, so the triangle set is preserved exactly.
    """
    return Graph(g.n, ((u, v) for u, v in g.edges if g.neighbors(u) & g.neighbors(v)))
