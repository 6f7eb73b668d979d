import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tricover import (
    Graph,
    Hypergraph,
    complete_graph,
    components,
    is_k_uniform,
    is_linear,
    random_gnp,
    triangle_hypergraph,
)
import tricover.oracles as oracles
from tricover.cyclebreak import minimal_fes
from tricover.hypergraph import _Forest, are_acyclic

import reference_fvs
import reference_oracles
from generators import (
    ODD_IDS,
    book_graph,
    disjoint_union,
    fano_plane,
    mixed_linear_corpus,
    random_linear_3_uniform,
    relabelled,
    small_graph_corpus,
)
from reference_fvs import delete_hyperedges, delete_vertices, is_linear_pairwise


class TestHypergraphBasics:
    def test_rejects_unknown_vertex_in_edge(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Hypergraph([0, 1], [(0, 1, 2)])

    def test_degree_and_incident(self):
        h = Hypergraph(range(5), [(0, 1, 2), (0, 3, 4)])
        assert h.degree(0) == 2
        assert h.degree(4) == 1
        assert h.incident(0) == (0, 1)

    def test_equality_compares_vertices_and_hyperedges(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        assert h == Hypergraph(range(5), [(2, 1, 0), (4, 3, 2)])
        assert hash(h) == hash(Hypergraph(range(5), [(2, 1, 0), (4, 3, 2)]))
        # Only the vertex set differs: 5 is isolated.
        assert h != Hypergraph(range(6), [(0, 1, 2), (2, 3, 4)])
        # Only the hyperedges differ, over the same vertices.
        assert h != Hypergraph(range(5), [(0, 1, 2), (1, 3, 4)])
        assert h != Hypergraph(range(5), [(2, 3, 4), (0, 1, 2)])

    def test_triangle_hypergraph_of_k4(self):
        h = triangle_hypergraph(complete_graph(4))
        assert len(h.vertices) == 6
        assert h.num_hyperedges == 4
        assert is_linear(h) and is_k_uniform(h, 3)

    def test_triangle_hypergraph_of_triangle_free(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = triangle_hypergraph(g)
        assert h.num_hyperedges == 0
        assert len(h.vertices) == 3

    def test_triangle_hypergraph_of_book(self):
        h = triangle_hypergraph(book_graph(3))
        assert len(h.vertices) == 7
        assert h.num_hyperedges == 3
        shared = [v for v in h.vertices if h.degree(v) == 3]
        assert len(shared) == 1

    def test_not_linear_on_duplicate_triples(self):
        h = Hypergraph(range(3), [(0, 1, 2), (0, 1, 2)])
        assert not is_linear(h)

    @settings(max_examples=60, derandomize=True)
    @given(n=st.integers(3, 14), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_triangle_hypergraph_is_linear_three_uniform(self, n, p, seed):
        h = triangle_hypergraph(random_gnp(n, p, seed))
        assert is_linear(h) and is_k_uniform(h, 3)
        assert is_linear_pairwise(h)

    @settings(max_examples=60, derandomize=True)
    @given(n=st.integers(3, 14), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_triangle_hypergraph_ids_follow_triangle_order(self, n, p, seed):
        # Hyperedge i is the i-th triangle, checked against a brute-force
        # triple scan rather than the shared edge scan.
        g = random_gnp(n, p, seed)
        h = triangle_hypergraph(g)
        triangles = [t for t in combinations(range(n), 3) if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
        assert h.hyperedge_ids == tuple(range(len(triangles)))
        assert h.vertices == frozenset(range(g.num_edges))
        for eid, t in enumerate(triangles):
            assert h.hyperedge(eid) == frozenset(g.edge_id(a, b) for a, b in combinations(t, 2))

    @settings(max_examples=200, derandomize=True)
    @given(edges=st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=8))
    def test_is_linear_matches_pairwise_scan(self, edges):
        h = Hypergraph(range(8), edges)
        assert is_linear(h) == is_linear_pairwise(h)

    def test_is_linear_matches_pairwise_scan_on_random_linear(self):
        rng = random.Random(19)
        for h in mixed_linear_corpus(seed=19, count=100):
            assert is_linear(h) and is_linear_pairwise(h)
            extra = Hypergraph(h.vertices, h.hyperedges + (frozenset(rng.sample(sorted(h.vertices), 3)),))
            assert is_linear(extra) == is_linear_pairwise(extra)

    def test_fano_is_linear_three_uniform(self):
        f = fano_plane()
        assert is_linear(f) and is_k_uniform(f, 3)
        assert len(f.vertices) == 7 and f.num_hyperedges == 7
        assert all(f.degree(v) == 3 for v in f.vertices)


class TestComponents:
    def test_two_disjoint_hyperedges(self):
        h = Hypergraph(range(6), [(0, 1, 2), (3, 4, 5)])
        assert len(components(h)) == 2

    def test_connected_single_component(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        assert len(components(h)) == 1

    def test_two_k4_blocks(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        h = triangle_hypergraph(g)
        comps = components(h)
        assert len(comps) == 2
        assert [len(c.hyperedge_ids) for c in comps] == [4, 4]

    def test_isolated_vertices_are_singletons(self):
        h = Hypergraph(range(4), [(0, 1, 2)])
        comps = components(h)
        assert len(comps) == 2
        assert comps[1].vertices == frozenset({3})
        assert comps[1].hyperedge_ids == ()

    def test_empty_hyperedges_and_isolated_vertices(self):
        h = Hypergraph(range(8), [(), (5, 1), (), (6, 2, 5), (3,), ()])
        comps = components(h)
        assert [(sorted(c.vertices), c.hyperedge_ids) for c in comps] == [
            ([0], ()),
            ([1, 2, 5, 6], (1, 3)),
            ([3], (4,)),
            ([4], ()),
            ([7], ()),
        ]

    def test_matches_pairwise_merge_on_random_hypergraphs(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = [rng.sample(range(n), min(n, rng.choice((0, 1, 2, 3, 3)))) for _ in range(rng.randint(0, 8))]
            h = Hypergraph(range(n), edges)
            # Reference: merge vertex classes until no hyperedge spans two.
            cls = {v: {v} for v in range(n)}
            for e in edges * len(edges):
                for v in e[1:]:
                    if cls[v] is not cls[e[0]]:
                        merged = cls[v] | cls[e[0]]
                        for w in merged:
                            cls[w] = merged
            expected = []
            for v in range(n):
                if min(cls[v]) == v:
                    eids = tuple(i for i, e in enumerate(edges) if e and e[0] in cls[v])
                    expected.append((frozenset(cls[v]), eids))
            assert [(c.vertices, c.hyperedge_ids) for c in components(h)] == expected

    def test_deleting_one_hyperedge_adds_at_most_two_components(self):
        rng = random.Random(31)
        for _ in range(40):
            h = random_linear_3_uniform(rng, rng.randint(6, 14), rng.randint(2, 10))
            if h.num_hyperedges == 0:
                continue
            p = len(components(h))
            eid = rng.choice(h.hyperedge_ids)
            assert len(components(delete_hyperedges(h, [eid]))) <= p + 2


def incidence_components(vertices, edges: dict) -> list[tuple[frozenset, tuple]]:
    """Reference components: a BFS over the incidence graph, whose nodes are
    the vertices and the hyperedge ids. Each component is (vertices, ascending
    hyperedge ids), listed by least vertex; an empty hyperedge is left out."""
    holders: dict = {v: [] for v in vertices}
    for eid, e in edges.items():
        for v in e:
            holders[v].append(eid)
    seen_v: set = set()
    out = []
    for root in sorted(vertices):
        if root in seen_v:
            continue
        seen_v.add(root)
        comp_v, comp_e, queue = {root}, set(), deque([root])
        while queue:
            for eid in holders[queue.popleft()]:
                if eid not in comp_e:
                    comp_e.add(eid)
                    fresh = edges[eid] - seen_v
                    seen_v |= fresh
                    comp_v |= fresh
                    queue.extend(fresh)
        out.append((frozenset(comp_v), tuple(sorted(comp_e))))
    return out


def incidence_is_forest(vertices, edges: dict) -> bool:
    """Reference acyclicity: the incidence graph is a forest exactly when it
    has as many edges (memberships) as nodes minus components. An empty
    hyperedge is a node of its own."""
    nodes = len(vertices) + len(edges)
    comps = len(incidence_components(vertices, edges)) + sum(1 for e in edges.values() if not e)
    return sum(map(len, edges.values())) == nodes - comps


def messy_hypergraph(rng: random.Random) -> Hypergraph:
    """A non-uniform hypergraph over negative, huge and small ids, with
    singleton hyperedges, repeated hyperedges and now and then an empty one."""
    names = rng.sample(ODD_IDS + list(range(-12, 12)), rng.randint(1, 14))
    edges: list = []
    for _ in range(rng.randint(0, 12)):
        if edges and rng.random() < 0.15:
            edges.append(rng.choice(edges))
        else:
            edges.append(rng.sample(names, min(len(names), rng.choice((0, 1, 1, 2, 2, 3, 3, 4)))))
    return Hypergraph(names, edges)


MESSY = [messy_hypergraph(random.Random(k)) for k in range(400)]


def forest_partition(forest: _Forest, vertices) -> frozenset:
    classes: dict = {}
    for v in vertices:
        classes.setdefault(forest.find(v), set()).add(v)
    return frozenset(map(frozenset, classes.values()))


class TestUnionFind:
    """_Forest and each of its users against BFS over the incidence graph."""

    def test_corpus_has_the_awkward_cases(self):
        hyperedges = [e for h in MESSY for e in h.hyperedges]
        assert sum(len(e) == 1 for e in hyperedges) >= 200
        assert sum(len(set(h.hyperedges)) < h.num_hyperedges for h in MESSY) >= 100
        assert sum(min(h.vertices) < 0 for h in MESSY) >= 200
        assert 50 <= sum(are_acyclic(h.hyperedges) for h in MESSY) <= 350

    def test_link_follows_the_reference_partition(self):
        refused = 0
        for h in MESSY:
            forest, linked = _Forest(), {}
            for eid, e in zip(h.hyperedge_ids, h.hyperedges):
                before = forest_partition(forest, h.vertices)
                ok = forest.link(e)
                assert ok == incidence_is_forest(h.vertices, {**linked, eid: e})
                if ok:
                    linked[eid] = e
                else:
                    refused += 1
                    assert forest_partition(forest, h.vertices) == before
                expected = frozenset(vs for vs, _ in incidence_components(h.vertices, linked))
                assert forest_partition(forest, h.vertices) == expected
        assert refused >= 300

    def test_long_chains_are_halved(self):
        # Each hyperedge's fresh vertex 8k iterates first, so link hangs the
        # old root under it and vertex 7's path grows by one per hyperedge;
        # halving keeps every walk short, and the partition stays right.
        forest = _Forest()
        for k in range(1, 3001):
            e = frozenset((7, 8 * k, 8 * k + 1))
            assert next(iter(e)) == 8 * k
            assert forest.link(e)
        path = [7]
        while path[-1] in forest._parent and len(path) < 10:
            path.append(forest._parent[path[-1]])
        assert len(path) <= 3
        assert len({forest.find(v) for k in range(1, 3001) for v in (7, 8 * k, 8 * k + 1)}) == 1

    def test_users_agree_with_the_reference(self):
        for h in MESSY:
            edges = dict(zip(h.hyperedge_ids, h.hyperedges))
            assert are_acyclic(h.hyperedges) == incidence_is_forest(h.vertices, edges)
            kept: dict = {}
            for eid, e in edges.items():
                if incidence_is_forest(h.vertices, {**kept, eid: e}):
                    kept[eid] = e
            greedy = frozenset(edges) - frozenset(kept)
            assert minimal_fes(h).keys() == greedy
            # So `tricover fes` may report "minimal": re-adding any dropped hyperedge closes a cycle.
            assert not any(incidence_is_forest(h.vertices, {**kept, f: edges[f]}) for f in greedy)
            assert [(c.vertices, c.hyperedge_ids) for c in components(h)] == incidence_components(
                h.vertices, {eid: e for eid, e in edges.items() if e}
            )

    @pytest.mark.parametrize("vertices", [True, False], ids=["vertex", "edge"])
    def test_feedback_set_oracles_search_the_same_nodes(self, monkeypatch, vertices):
        # The exact oracles test each subset, in order, with one union-find
        # pass. Replaying the same subsets with the reference check must
        # give the same answer after the same number of nodes.
        searches = []

        class Recorded(oracles._Search):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        monkeypatch.setattr(reference_oracles, "_Search", Recorded)
        rng = random.Random(9)
        corpus = mixed_linear_corpus(seed=9, count=40, max_hyperedges=12)
        corpus += [triangle_hypergraph(g) for g in small_graph_corpus(seed=9, count=30, max_edges=14)]
        corpus += [relabelled(h, rng) for h in corpus[:20]]
        oracle = reference_oracles.min_feedback_vertex_set if vertices else reference_oracles.min_feedback_edge_set
        total = 0
        for h in corpus:
            if h.num_hyperedges > oracles.HYPERGRAPH_BUDGET.max_edges:
                continue
            k, drop = oracle(h)
            edges = dict(zip(h.hyperedge_ids, h.hyperedges))
            verts_on, edges_on = reference_fvs.on_cycle_elements(h)
            nodes, found = 0, None
            for size in range(1, len(verts_on if vertices else edges_on) + 1):
                for combo in combinations(sorted(verts_on if vertices else edges_on), size):
                    nodes += 1
                    spared = {
                        eid: e for eid, e in edges.items() if (e.isdisjoint(combo) if vertices else eid not in combo)
                    }
                    if incidence_is_forest(h.vertices, spared):
                        found = (size, frozenset(combo))
                        break
                if found:
                    break
            assert (k, drop, searches[-1].nodes) == (*(found or (0, frozenset())), nodes)
            total += nodes
        assert total >= 200


class TestDeletions:
    def test_delete_vertices_removes_incident_edges(self):
        h = Hypergraph(range(6), [(0, 1, 2), (2, 3, 4), (3, 4, 5)])
        out = delete_vertices(h, [2])
        assert out.hyperedge_ids == (2,)
        assert 2 not in out.vertices

    def test_delete_all_vertices_of_edge(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        out = delete_vertices(h, [0, 1, 2])
        assert out.num_hyperedges == 0
        assert out.vertices == frozenset({3, 4})

    def test_delete_no_hyperedges_is_identity(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        assert delete_hyperedges(h, []) == h

    def test_delete_keeps_original_untouched(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        delete_vertices(h, [0])
        delete_hyperedges(h, [1])
        assert h.num_hyperedges == 2 and len(h.vertices) == 5

    def test_fano_minus_point_keeps_four_lines(self):
        out = delete_vertices(fano_plane(), [1])
        assert out.num_hyperedges == 4

    def test_hyperedge_ids_stable_under_deletion(self):
        h = Hypergraph(range(7), [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        out = delete_hyperedges(h, [0])
        assert out.hyperedge_ids == (1, 2)
        assert out.hyperedge(2) == frozenset({4, 5, 6})
