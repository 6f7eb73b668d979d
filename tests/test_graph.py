import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from tricover import (
    Graph,
    PackingWitness,
    Triangle,
    bipartite_cut_cover,
    complete_graph,
    disjoint_union,
    enumerate_triangles,
    extend_packing,
    gadget_augment,
    greedy_triangle_packing,
    irreducible_subgraph,
    random_gnp,
    steiner_triple_system,
)

from generators import book_graph
from reference_packing import reference_extend_packing, reference_triangle


def brute_triangles(g: Graph) -> set[tuple[int, int, int]]:
    """Independent cubic-time triple scan."""
    found = set()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            for c in range(b + 1, g.n):
                if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                    found.add((a, b, c))
    return found


def reference_bipartite_cut_cover(g: Graph) -> frozenset[int]:
    """The cut search before running side counts: every check recounts the
    vertex's neighbours on its own side."""
    side = [0] * g.n
    moved = True
    while moved:
        moved = False
        for v in range(g.n):
            same = sum(1 for w in g.neighbors(v) if side[w] == side[v])
            if 2 * same > g.degree(v):
                side[v] ^= 1
                moved = True
    return frozenset(i for i, (u, v) in enumerate(g.edges) if side[u] == side[v])


def random_disjoint_base(g: Graph, rng: random.Random, keep: float) -> list[Triangle]:
    """An edge-disjoint set of triangles of g, in random order."""
    tris = [reference_triangle(g, *abc) for abc in sorted(brute_triangles(g))]
    rng.shuffle(tris)
    base: list[Triangle] = []
    used: set[int] = set()
    for t in tris:
        if rng.random() < keep and used.isdisjoint(t.edge_ids):
            base.append(t)
            used.update(t.edge_ids)
    return base


def unsorted_triples(base: list[Triangle], rng: random.Random) -> list[Triangle]:
    """The same triangles, each vertex triple reversed or shuffled."""
    return [
        Triangle(t.vertices[::-1] if i % 2 == 0 else tuple(rng.sample(t.vertices, 3)), t.edge_ids)
        for i, t in enumerate(base)
    ]


def validate_message(g: Graph, base: list[Triangle]) -> str:
    with pytest.raises(ValueError) as info:
        PackingWitness(tuple(base)).validate(g)
    return str(info.value)


def is_bipartite(g: Graph, skip_edges: frozenset[int]) -> bool:
    """2-colorability of g minus the given edges, by BFS."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if i not in skip_edges:
            adj[u].add(v)
            adj[v].add(u)
    color: dict[int, int] = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(-1, 0)])

    def test_edge_ids_are_insertion_order_independent(self):
        a = Graph(4, [(0, 1), (2, 3), (1, 2)])
        b = Graph(4, [(1, 2), (0, 1), (3, 2)])
        assert a == b
        assert a.edges == b.edges
        assert all(a.edge_id(u, v) == b.edge_id(u, v) for u, v in a.edges)

    def test_edge_ids_follow_lexicographic_pair_order(self):
        g = complete_graph(4)
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert g.edge_id(3, 2) == 5


class TestTriangleEnumeration:
    def test_k4_has_four_triangles(self):
        assert len(enumerate_triangles(complete_graph(4))) == 4

    def test_k5_has_ten_triangles(self):
        assert len(enumerate_triangles(complete_graph(5))) == 10

    def test_bipartite_graph_has_none(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert enumerate_triangles(g) == ()

    def test_canonical_order_is_sorted_triples(self):
        tris = enumerate_triangles(complete_graph(5))
        triples = [t.vertices for t in tris]
        assert triples == sorted(triples)
        assert len(set(triples)) == len(triples)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(1201)
        for _ in range(60):
            g = random_gnp(rng.randint(3, 12), rng.uniform(0.1, 0.9), rng.randrange(1 << 30))
            got = {t.vertices for t in enumerate_triangles(g)}
            assert got == brute_triangles(g)

    @settings(max_examples=60, derandomize=True)
    @given(n=st.integers(3, 9), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_property_matches_brute_force(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert {t.vertices for t in enumerate_triangles(g)} == brute_triangles(g)

    def test_triangle_edge_ids_consistent(self):
        g = complete_graph(5)
        for t in enumerate_triangles(g):
            a, b, c = t.vertices
            assert t.edge_ids == tuple(sorted((g.edge_id(a, b), g.edge_id(b, c), g.edge_id(a, c))))

    @settings(max_examples=150, derandomize=True)
    @given(n=st.integers(0, 14), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_sort_free_triangles_are_canonical(self, n, p, seed):
        g = random_gnp(n, p, seed)
        tris = enumerate_triangles(g)
        for t in tris:
            a, b, c = t.vertices
            assert a < b < c
            assert t.edge_ids[0] < t.edge_ids[1] < t.edge_ids[2]
            assert t.edge_ids == tuple(sorted((g.edge_id(a, b), g.edge_id(b, c), g.edge_id(a, c))))
        assert [t.vertices for t in tris] == sorted(t.vertices for t in tris)


class TestIrreducibleSubgraph:
    def test_pendant_edge_dropped(self):
        g = gadget_augment(Graph(1, []), 1, "K4")  # one isolated vertex plus K4
        g = Graph(5, list(g.edges) + [(0, 1)])
        reduced = irreducible_subgraph(g)
        assert reduced.num_edges == 6
        assert not reduced.has_edge(0, 1)

    def test_triangle_free_becomes_edgeless(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert irreducible_subgraph(g).num_edges == 0

    def test_k4_is_fixed_point(self):
        g = complete_graph(4)
        assert irreducible_subgraph(g) == g

    @settings(max_examples=60, derandomize=True)
    @given(n=st.integers(0, 14), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_keeps_exactly_the_triangle_edges(self, n, p, seed):
        g = random_gnp(n, p, seed)
        kept = {pair for a, b, c in brute_triangles(g) for pair in ((a, b), (a, c), (b, c))}
        r = irreducible_subgraph(g)
        assert r.n == g.n and r.edges == tuple(sorted(kept))

    def test_idempotent_and_triangle_preserving(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_gnp(rng.randint(4, 10), rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
            r = irreducible_subgraph(g)
            assert irreducible_subgraph(r) == r
            assert {t.vertices for t in enumerate_triangles(r)} == {
                t.vertices for t in enumerate_triangles(g)
            }


class TestBipartiteCutCover:
    def test_k3_cover_size_one(self):
        cover = bipartite_cut_cover(complete_graph(3))
        assert len(cover) == 1

    def test_bipartite_graph_cover_empty(self):
        g = Graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])
        assert bipartite_cut_cover(g) == frozenset()

    def test_k4_cover_size_two_hits_all_triangles(self):
        g = complete_graph(4)
        cover = bipartite_cut_cover(g)
        assert len(cover) == 2
        for t in enumerate_triangles(g):
            assert set(t.edge_ids) & cover

    def test_cut_bound_and_bipartite_residual(self):
        rng = random.Random(99)
        for _ in range(50):
            g = random_gnp(rng.randint(2, 12), rng.uniform(0.1, 0.95), rng.randrange(1 << 30))
            cover = bipartite_cut_cover(g)
            assert len(cover) <= g.num_edges // 2
            assert is_bipartite(g, cover)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(n=st.integers(0, 70), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    def test_running_counts_match_full_recount(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert bipartite_cut_cover(g) == reference_bipartite_cut_cover(g)


class TestGreedyPacking:
    def test_triangle_free_empty(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert len(greedy_triangle_packing(g)) == 0

    def test_k4_single_triangle(self):
        assert len(greedy_triangle_packing(complete_graph(4))) == 1

    def test_k7_between_one_and_seven(self):
        size = len(greedy_triangle_packing(complete_graph(7)))
        assert 1 <= size <= 7

    def test_edge_disjoint_and_maximal(self):
        rng = random.Random(5150)
        for _ in range(40):
            g = random_gnp(rng.randint(4, 11), rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
            packing = greedy_triangle_packing(g)
            packing.validate(g)
            used = packing.edge_ids()
            for t in enumerate_triangles(g):
                assert not used.isdisjoint(t.edge_ids) or t in packing.triangles

    def test_extend_packing_rejects_overlap(self):
        g = complete_graph(4)
        t = enumerate_triangles(g)
        with pytest.raises(ValueError):
            extend_packing(g, (t[0], t[1]))


class TestEdgeDrivenPacking:
    """extend_packing scans edges and takes the first free triangle on each
    unused one; it must equal the one-triangle-at-a-time reference."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 14),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
        base_seed=st.integers(0, 10**6),
        keep=st.floats(0.0, 1.0),
    )
    def test_matches_reference(self, n, p, seed, base_seed, keep):
        g = random_gnp(n, p, seed)
        greedy = extend_packing(g, ())
        assert greedy == reference_extend_packing(g, ())
        assert greedy_triangle_packing(g) == greedy
        base = random_disjoint_base(g, random.Random(base_seed), keep)
        assert extend_packing(g, base) == reference_extend_packing(g, base)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @example(n=49, p=0.95, seed=1, base_seed=2, keep=0.5)
    @example(n=70, p=1.0, seed=1, base_seed=3, keep=0.3)
    @given(
        n=st.integers(15, 70),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
        base_seed=st.integers(0, 10**6),
        keep=st.floats(0.0, 1.0),
    )
    def test_matches_reference_past_one_word(self, n, p, seed, base_seed, keep):
        # Free-edge masks of up to 70 bits span more than one machine word.
        g = random_gnp(n, p, seed)
        assert extend_packing(g, ()) == reference_extend_packing(g, ())
        base = random_disjoint_base(g, random.Random(base_seed), keep)
        assert extend_packing(g, base) == reference_extend_packing(g, base)

    @settings(max_examples=90, derandomize=True, deadline=None)
    @given(n=st.sampled_from([7, 9, 13, 49]), p=st.floats(0.5, 1.0), seed=st.integers(0, 10**6))
    def test_steiner_survivors_base(self, n, p, seed):
        g = random_gnp(n, p, seed)
        alive = brute_triangles(g)
        base = [reference_triangle(g, *t.vertices) for t in steiner_triple_system(n).triangles if t.vertices in alive]
        assert extend_packing(g, base) == reference_extend_packing(g, base)


class TestBaseValidation:
    """extend_packing checks its base while clearing the base's edges and
    falls back to PackingWitness.validate only when that check fails, so a
    bad base raises exactly validate's message and an unsorted triple of a
    real triangle is still accepted."""

    def malformed(self, g: Graph, base: list[Triangle], rng: random.Random) -> dict[str, list[Triangle]]:
        tris = [reference_triangle(g, *abc) for abc in sorted(brute_triangles(g))]
        used = {e for t in base for e in t.edge_ids}
        a, b, c = rng.choice([abc for abc in combinations(range(g.n), 3) if abc not in brute_triangles(g)])
        t = rng.choice(tris)
        x, y, z = t.edge_ids
        sharing = [u for u in tris if not used.isdisjoint(u.edge_ids)]
        return {
            "non-triangle": [Triangle((a, b, c), (0, 1, 2)), Triangle((c, a, b), (0, 1, 2))],
            "out-of-range": [Triangle((0, 1, g.n), (0, 1, 2)), Triangle((-1, 0, 1), (0, 1, 2))],
            "wrong-ids": [Triangle(t.vertices, (z, y, x)), Triangle(t.vertices, (x, y, z + 1))],
            "shared-edge": [rng.choice(sharing), unsorted_triples([rng.choice(sharing)], rng)[0], base[0]],
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_malformed_base_raises_validate_message(self, seed):
        rng = random.Random(seed)
        g = random_gnp(12, 0.6, seed)
        base = random_disjoint_base(g, rng, 0.7)
        if seed % 2:
            base = unsorted_triples(base, rng)
        assert base
        expected = {
            "non-triangle": "not a triangle of the graph",
            "out-of-range": "not a triangle of the graph",
            "wrong-ids": "do not match vertices",
            "shared-edge": "used by two triangles",
        }
        for kind, bad in self.malformed(g, base, rng).items():
            for t in bad:
                for pos in (0, len(base) // 2, len(base)):
                    broken = base[:pos] + [t] + base[pos:]
                    message = validate_message(g, broken)
                    assert expected[kind] in message
                    with pytest.raises(ValueError) as info:
                        extend_packing(g, broken)
                    assert str(info.value) == message

    def test_validate_runs_only_on_a_bad_base(self, monkeypatch):
        calls = []
        validate = PackingWitness.validate
        monkeypatch.setattr(PackingWitness, "validate", lambda w, g: calls.append(len(w)) or validate(w, g))
        rng = random.Random(3)
        g = random_gnp(13, 0.8, 3)
        base = unsorted_triples(random_disjoint_base(g, rng, 0.8), rng)
        extend_packing(g, base)
        extend_packing(g, base[::-1])
        assert calls == []
        with pytest.raises(ValueError):
            extend_packing(g, base + base[:1])
        assert calls == [len(base) + 1]

    @pytest.mark.parametrize("seed", range(12))
    def test_unsorted_base_triples_match_reference(self, seed):
        rng = random.Random(seed)
        g = random_gnp(rng.randint(5, 20), rng.uniform(0.4, 1.0), seed)
        base = unsorted_triples(random_disjoint_base(g, rng, 0.6), rng)
        assert all(t.vertices != tuple(sorted(t.vertices)) for t in base[::2])
        assert extend_packing(g, base) == reference_extend_packing(g, base)


class TestGeneratorsAndGadgets:
    def test_complete_graph_counts(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_disjoint_union_shifts_ids(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert g.n == 6 and g.num_edges == 6
        assert enumerate_triangles(g)[1].vertices == (3, 4, 5)
        parts = (book_graph(2), complete_graph(1), complete_graph(4))
        assert disjoint_union(*parts) == disjoint_union(disjoint_union(*parts[:2]), parts[2])

    def test_gadget_augment_k4_counts(self):
        g = gadget_augment(complete_graph(3), 1, "K4")
        assert len(enumerate_triangles(g)) == 1 + 4
        assert g.num_edges == 3 + 6
        assert g == disjoint_union(complete_graph(3), complete_graph(4))

    def test_gadget_augment_zero_is_identity(self):
        g = complete_graph(3)
        assert gadget_augment(g, 0, "K4") == g

    def test_gadget_augment_k5_counts(self):
        g = gadget_augment(complete_graph(3), 2, "K5")
        assert g.num_edges == 3 + 20
        assert len(enumerate_triangles(g)) == 1 + 20
        assert g == disjoint_union(disjoint_union(complete_graph(3), complete_graph(5)), complete_graph(5))

    def test_gadget_augment_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown gadget"):
            gadget_augment(complete_graph(3), 1, "K6")

    def test_book_graph_shape(self):
        g = book_graph(3)
        assert g.num_edges == 7
        assert len(enumerate_triangles(g)) == 3


class TestRandomGnp:
    def test_p_zero_edgeless(self):
        assert random_gnp(20, 0.0, 1).num_edges == 0

    def test_p_one_complete(self):
        assert random_gnp(10, 1.0, 1) == complete_graph(10)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            random_gnp(5, 1.5, 1)

    def test_reproducible(self):
        assert random_gnp(30, 0.4, 77) == random_gnp(30, 0.4, 77)
        assert random_gnp(30, 0.4, 77) != random_gnp(30, 0.4, 78)

    def test_mean_edges_matches_binomial(self):
        # n=50, p=0.5: mean 612.5, sd of the 200-trial mean ~ 1.21.
        trials = 200
        total = sum(random_gnp(50, 0.5, 9000 + i).num_edges for i in range(trials))
        mean = total / trials
        assert abs(mean - 612.5) <= 3 * 1.214
