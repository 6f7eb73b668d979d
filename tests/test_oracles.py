import random
from itertools import combinations

import pytest

import tricover.oracles as oracles
from tricover import (
    BudgetExceededError,
    EmptyHyperedgeError,
    Hypergraph,
    InvariantError,
    OracleBudget,
    PackingWitness,
    Triangle,
    complete_graph,
    enumerate_triangles,
    max_matching,
    max_triangle_packing,
    min_transversal,
    min_triangle_cover,
    random_gnp,
    solve_acyclic,
    steiner_triple_system,
    triangle_hypergraph,
)
from tricover.hypergraph import are_acyclic

from generators import (
    HUGE,
    ODD_IDS,
    fano_plane,
    random_acyclic_forest,
    random_linear_3_uniform,
    relabelled,
    small_graph_corpus,
)
import reference_oracles
from reference_fvs import delete_hyperedges, delete_vertices
from reference_oracles import min_feedback_edge_set, min_feedback_vertex_set, subset_nu, subset_tau


class TestKnownValues:
    def test_k4(self):
        assert max_triangle_packing(complete_graph(4))[0] == 1
        assert min_triangle_cover(complete_graph(4))[0] == 2

    def test_k5(self):
        assert max_triangle_packing(complete_graph(5))[0] == 2
        assert min_triangle_cover(complete_graph(5))[0] == 4

    def test_k7_packing_is_seven(self):
        assert max_triangle_packing(complete_graph(7))[0] == 7

    def test_single_triangle_cover(self):
        assert min_triangle_cover(complete_graph(3))[0] == 1

    def test_fano(self):
        f = fano_plane()
        assert max_matching(f)[0] == 1
        assert min_transversal(f)[0] == 3

    def test_k4_hypergraph_min_fvs(self):
        h = triangle_hypergraph(complete_graph(4))
        assert min_feedback_vertex_set(h)[0] == 1

    def test_fano_min_fes(self):
        size, witness = min_feedback_edge_set(fano_plane())
        assert size >= 1
        assert are_acyclic(delete_hyperedges(fano_plane(), witness).hyperedges)


class TestWitnessesAndInvariants:
    def test_packing_witness_validates(self):
        g = complete_graph(6)
        size, witness = max_triangle_packing(g)
        witness.validate(g)
        assert len(witness) == size

    def test_cover_witness_hits_all_triangles(self):
        g = complete_graph(6)
        size, cover = min_triangle_cover(g)
        assert len(cover) == size
        for t in enumerate_triangles(g):
            assert set(t.edge_ids) & cover

    def test_graph_oracles_are_the_hypergraph_oracles_on_the_triangle_hypergraph(self):
        for g in small_graph_corpus(seed=21, count=40):
            h = triangle_hypergraph(g)
            uncapped = OracleBudget(max_edges=h.num_hyperedges)
            _, packing = max_triangle_packing(g)
            _, ids = max_matching(h, uncapped)
            assert [t.edge_ids for t in packing.triangles] == [tuple(sorted(h.hyperedge(i))) for i in sorted(ids)]
            # Hyperedge i is the i-th enumerated triangle, vertices included.
            assert list(packing.triangles) == [enumerate_triangles(g)[i] for i in sorted(ids)]
            assert min_triangle_cover(g) == min_transversal(h, uncapped)

    def test_duality_sandwich_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_gnp(rng.randint(4, 8), rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
            nu, _ = max_triangle_packing(g)
            tau, _ = min_triangle_cover(g)
            assert nu <= tau <= 3 * nu

    def test_hypergraph_oracles_match_subset_enumeration(self):
        rng = random.Random(18)
        for _ in range(25):
            h = random_linear_3_uniform(rng, rng.randint(5, 12), rng.randint(1, 8))
            assert max_matching(h)[0] == subset_nu(h)
            if all(h.hyperedges):
                assert min_transversal(h)[0] == subset_tau(h)

    def test_acyclic_instances_have_equal_tau_nu(self):
        rng = random.Random(19)
        for _ in range(25):
            h = random_acyclic_forest(rng, rng.randint(1, 9))
            nu, _ = max_matching(h)
            tau, _ = min_transversal(h)
            assert nu == tau == solve_acyclic(h).size

    def test_min_fvs_makes_acyclic_and_is_minimum(self):
        rng = random.Random(20)
        for _ in range(15):
            h = random_linear_3_uniform(rng, rng.randint(5, 10), rng.randint(2, 7))
            size, witness = min_feedback_vertex_set(h)
            assert are_acyclic(delete_vertices(h, witness).hyperedges)
            if size > 0:
                for combo in combinations(sorted(h.vertices), size - 1):
                    assert not are_acyclic(delete_vertices(h, combo).hyperedges)


class TestBudgets:
    def test_edge_cap(self):
        with pytest.raises(BudgetExceededError):
            max_triangle_packing(complete_graph(12))  # 66 edges > default 40

    def test_hypergraph_cap(self):
        h = triangle_hypergraph(complete_graph(7))  # 35 hyperedges > default 14
        with pytest.raises(BudgetExceededError):
            max_matching(h)

    def test_node_cap(self):
        budget = OracleBudget(max_edges=40, max_nodes=3)
        with pytest.raises(BudgetExceededError):
            max_triangle_packing(complete_graph(6), budget)

    # Explored node counts of the packing search, and the witnesses it
    # returns, for instances whose search shape is pinned: max_nodes = N
    # succeeds and N - 1 does not.
    SEARCH_SHAPES = [
        (lambda: complete_graph(7), 1,
         [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]),
        (lambda: complete_graph(9), 65,
         [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (1, 3, 5), (1, 4, 7),
          (1, 6, 8), (2, 3, 8), (2, 4, 6), (2, 5, 7), (3, 6, 7), (4, 5, 8)]),
        (lambda: random_gnp(12, 0.6, seed=2), 463,
         [(0, 3, 4), (0, 8, 11), (1, 2, 3), (1, 4, 9), (1, 8, 10),
          (2, 5, 9), (2, 6, 8), (2, 10, 11), (3, 5, 6), (7, 9, 10)]),
    ]

    @pytest.mark.parametrize("make, nodes, witness", SEARCH_SHAPES, ids=["K7", "K9", "G12"])
    def test_packing_search_shape_is_pinned(self, make, nodes, witness):
        g = make()
        nu, found = max_triangle_packing(g, OracleBudget(max_nodes=nodes))
        assert nu == len(witness)
        assert [t.vertices for t in found.triangles] == witness
        with pytest.raises(BudgetExceededError):
            max_triangle_packing(g, OracleBudget(max_nodes=nodes - 1))

    # The same pin for the cover search: node count and witness edge ids.
    COVER_SHAPES = [
        (lambda: complete_graph(7), 508, [0, 5, 10, 11, 12, 13, 15, 16, 18]),
        (lambda: random_gnp(12, 0.6, seed=2), 4285, [4, 13, 14, 19, 22, 23, 24, 32, 33, 34, 35]),
    ]

    @pytest.mark.parametrize("make, nodes, witness", COVER_SHAPES, ids=["K7", "G12"])
    def test_cover_search_shape_is_pinned(self, make, nodes, witness):
        g = make()
        tau, cover = min_triangle_cover(g, OracleBudget(max_nodes=nodes))
        assert (tau, sorted(cover)) == (len(witness), witness)
        with pytest.raises(BudgetExceededError):
            min_triangle_cover(g, OracleBudget(max_nodes=nodes - 1))

    def test_budget_override_allows_larger_instances(self):
        h = triangle_hypergraph(complete_graph(5))  # 10 edges, 10 hyperedges
        nu, _ = max_matching(h, OracleBudget(max_edges=20))
        assert nu == 2


def pairs_and_an_empty_item(rng: random.Random) -> Hypergraph:
    """3 to 12 items of 2 or 3 ids from ODD_IDS, plus one empty item."""
    items = [rng.sample(ODD_IDS, rng.choice((2, 2, 3))) for _ in range(rng.randint(3, 12))]
    items.insert(rng.randrange(len(items) + 1), [])
    return Hypergraph(ODD_IDS, items)


# Hand-made hypergraphs with negative, sparse and very large vertex ids, and,
# for the matching search only, 2-element items and one empty item.
HAND_MADE = [
    Hypergraph([-5, -1, 0, 7, HUGE, HUGE + 3, 2**63, -(2**45)],
               [(-5, -1, 0), (0, 7, HUGE), (HUGE, HUGE + 3, 2**63), (-(2**45), -5, 2**63), (-1, 7, HUGE + 3)]),
    Hypergraph([-(10**20), 10**20, -3, 3, 99], [(-(10**20), 10**20, -3), (3, 99, -3), (10**20, 3, 99)]),
]
WITH_PAIRS = [
    Hypergraph([-3, 5, 7, HUGE, 2 * HUGE], [(-3, HUGE), (), (HUGE, 5, -3), (5, 7), (7, 2 * HUGE), (-3, 7, 2 * HUGE)]),
    Hypergraph([-1, 0, 1, 2, HUGE], [(-1, 0), (1, 2), (0, 1), (2, HUGE), (-1, HUGE), (-1, 1, 2), ()]),
]


def generated_families() -> dict[str, list[Hypergraph]]:
    rng = random.Random(23)
    draws = [random_linear_3_uniform(rng, rng.randint(5, 15), rng.randint(1, 14)) for _ in range(60)]
    return {
        "triangle-hypergraphs": [triangle_hypergraph(g) for g in small_graph_corpus(seed=23, count=60)],
        "linear-3-uniform": draws,
        "relabelled": [relabelled(h, rng) for h in draws[:30]],
        "hand-made": HAND_MADE,
        "pairs-and-an-empty-item": WITH_PAIRS + [pairs_and_an_empty_item(rng) for _ in range(40)],
    }


FAMILIES = generated_families()
HITTABLE = [family for family in FAMILIES if family != "pairs-and-an-empty-item"]


class TestBitmaskKernels:
    """The bitmask searches against the set-based reference searches: the
    same ids and the same explored node count on every instance."""

    @staticmethod
    def agree(hs: list[Hypergraph], kernel, reference) -> None:
        for k, h in enumerate(hs):
            new, old = oracles._Search(h, oracles.GRAPH_BUDGET), oracles._Search(h, oracles.GRAPH_BUDGET)
            assert (k, kernel(new), new.nodes) == (k, reference(old), old.nodes)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matching_search_matches_reference(self, family):
        self.agree(FAMILIES[family], oracles._max_disjoint, reference_oracles._max_disjoint)

    @pytest.mark.parametrize("family", HITTABLE)
    def test_hitting_set_search_matches_reference(self, family):
        self.agree(FAMILIES[family], oracles._min_hitting_set, reference_oracles._min_hitting_set)

    def test_empty_item_has_no_hitting_set(self):
        for kernel in (oracles._min_hitting_set, reference_oracles._min_hitting_set):
            with pytest.raises(EmptyHyperedgeError, match="^hyperedge 1 is empty$"):
                kernel(oracles._Search(WITH_PAIRS[0], oracles.GRAPH_BUDGET))

    @pytest.mark.parametrize("h", HAND_MADE + WITH_PAIRS)
    def test_bit_positions_are_dense(self, h):
        search = oracles._Search(h, oracles.GRAPH_BUDGET)
        union = sorted(frozenset().union(*h.hyperedges))
        assert list(search.bit) == union
        assert list(search.bit.values()) == [1 << k for k in range(len(union))]
        assert search.masks == [sum(1 << union.index(v) for v in e) for e in h.hyperedges]


ADMISSIBLE = [n for n in range(3, 62) if n % 6 in (1, 3)]


def reference_steiner(n: int) -> PackingWitness:
    """The construction's triples with ids looked up in a built K_n, checked
    by PackingWitness.validate and by the triangle count."""
    kn = complete_graph(n)
    triples = oracles._bose_triples(n) if n % 6 == 3 else oracles._skolem_triples(n)
    tris = []
    for a, b, c in sorted(tuple(sorted(t)) for t in triples):
        tris.append(Triangle((a, b, c), (kn.edge_id(a, b), kn.edge_id(a, c), kn.edge_id(b, c))))
    witness = PackingWitness(tuple(tris))
    witness.validate(kn)
    assert 3 * len(witness) == kn.num_edges
    return witness


class TestSteinerTripleSystems:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda ts, n: ts + [ts[len(ts) // 2]], "covers an edge a second time"),
            (lambda ts, n: ts[:-1], "does not cover every edge exactly once"),
            (lambda ts, n: ts[:-1] + [(ts[-1][0], ts[-1][1], n)], "is not three distinct vertices"),
            (lambda ts, n: ts[:-1] + [(ts[-1][0], ts[-1][1], -1)], "is not three distinct vertices"),
            (lambda ts, n: ts[:-1] + [(ts[-1][0], ts[-1][0], ts[-1][1])], "is not three distinct vertices"),
            (lambda ts, n: ts[:-1] + [(min(ts[-1]), max(ts[-1]), max(ts[-1]))], "is not three distinct vertices"),
        ],
        ids=["duplicated", "dropped", "vertex-n", "vertex-negative", "repeated-vertex", "repeated-largest-vertex"],
    )
    @pytest.mark.parametrize("n, builder", [(49, "_skolem_triples"), (45, "_bose_triples")])
    def test_corrupt_construction_raises(self, monkeypatch, n, builder, corrupt, message):
        build = getattr(oracles, builder)
        monkeypatch.setattr(oracles, builder, lambda k: corrupt(build(k), k))
        with pytest.raises(InvariantError, match=message):
            steiner_triple_system(n)

    @pytest.mark.parametrize("n", ADMISSIBLE)
    def test_every_edge_covered_exactly_once(self, n):
        witness = steiner_triple_system(n)
        assert witness == reference_steiner(n)
        assert len(witness) == n * (n - 1) // 6
        kn = complete_graph(n)
        witness.validate(kn)
        assert witness.edge_ids() == frozenset(range(kn.num_edges))

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 11, 2, 0])
    def test_rejects_infeasible_orders(self, n):
        with pytest.raises(ValueError):
            steiner_triple_system(n)

    def test_n3_single_triangle(self):
        assert len(steiner_triple_system(3)) == 1

    def test_packing_number_of_kn_matches_decomposition(self):
        for n in (3, 7, 9):
            assert max_triangle_packing(complete_graph(n))[0] == n * (n - 1) // 6
