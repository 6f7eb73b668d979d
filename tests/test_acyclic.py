import random

import pytest
from hypothesis import given, settings, strategies as st

from tricover import (
    CyclicInputError,
    EmptyHyperedgeError,
    Hypergraph,
    complete_graph,
    components,
    solve_acyclic,
    triangle_hypergraph,
)
from tricover.hypergraph import are_acyclic

from generators import mixed_linear_corpus, random_acyclic_forest
from reference_fvs import delete_vertices
from reference_oracles import subset_nu, subset_tau


class TestSolveAcyclic:
    def test_no_hyperedges(self):
        pair = solve_acyclic(Hypergraph(range(3), []))
        assert pair.transversal == frozenset() and pair.matching == frozenset()

    def test_two_disjoint_hyperedges(self):
        pair = solve_acyclic(Hypergraph(range(6), [(0, 1, 2), (3, 4, 5)]))
        assert len(pair.transversal) == 2 and len(pair.matching) == 2

    def test_two_edge_path(self):
        # Hyperedges {a, b, c} and {c, d, f}: the shared vertex is forced.
        h = Hypergraph(range(6), [(0, 1, 2), (2, 3, 5)])
        pair = solve_acyclic(h)
        assert pair.transversal == frozenset({2})
        assert len(pair.matching) == 1
        assert pair.matching <= {0, 1}

    def test_rejects_cyclic_input(self):
        with pytest.raises(CyclicInputError):
            solve_acyclic(triangle_hypergraph(complete_graph(4)))

    def test_rejects_empty_hyperedge(self):
        with pytest.raises(EmptyHyperedgeError):
            solve_acyclic(Hypergraph(range(3), [()]))

    def test_transversal_hits_everything_matching_disjoint(self):
        rng = random.Random(55)
        for _ in range(60):
            h = random_acyclic_forest(rng, rng.randint(1, 14), isolated=rng.randint(0, 3))
            pair = solve_acyclic(h)
            assert all(pair.transversal & e for e in h.hyperedges)
            picked = [h.hyperedge(e) for e in sorted(pair.matching)]
            assert all(
                picked[i].isdisjoint(picked[j])
                for i in range(len(picked))
                for j in range(i + 1, len(picked))
            )
            assert len(pair.transversal) == len(pair.matching)

    def test_each_matched_edge_contains_one_transversal_vertex(self):
        rng = random.Random(56)
        for _ in range(40):
            h = random_acyclic_forest(rng, rng.randint(1, 12))
            pair = solve_acyclic(h)
            for eid in pair.matching:
                assert len(h.hyperedge(eid) & pair.transversal) == 1

    def test_matches_brute_force_on_small_instances(self):
        rng = random.Random(57)
        checked = 0
        while checked < 60:
            h = random_acyclic_forest(rng, rng.randint(1, 6))
            if h.num_hyperedges > 7:
                continue
            pair = solve_acyclic(h)
            tau = subset_tau(h)
            nu = subset_nu(h)
            assert tau == nu == len(pair.transversal) == len(pair.matching)
            checked += 1

    def test_mixed_arity_acyclic(self):
        # General acyclic hypergraphs, not only 3-uniform ones.
        h = Hypergraph(range(7), [(0, 1), (1, 2, 3, 4), (4, 5), (6, 0)])
        pair = solve_acyclic(h)
        assert len(pair.transversal) == len(pair.matching) == subset_tau(h)

    def test_deterministic(self):
        rng = random.Random(58)
        h = random_acyclic_forest(rng, 10)
        assert solve_acyclic(h) == solve_acyclic(h)

    def test_per_component_solves_merge_to_global_solve(self):
        rng = random.Random(59)
        for _ in range(25):
            h = random_acyclic_forest(rng, rng.randint(2, 12), isolated=rng.randint(0, 2))
            whole = solve_acyclic(h)
            transversal: set[int] = set()
            matching: set[int] = set()
            for comp in components(h):
                part = delete_vertices(h, h.vertices - comp.vertices)
                pair = solve_acyclic(part)
                transversal |= pair.transversal
                matching |= pair.matching
            assert transversal == set(whole.transversal)
            assert matching == set(whole.matching)

    def test_member_iteration_order_does_not_matter(self):
        # v -> 7v keeps the id order, but a small frozenset of multiples of 7
        # iterates by 7v mod its table size, mostly not in ascending order.
        # The BFS reads members in iteration order, so the answer must not
        # depend on it.
        rng = random.Random(60)
        unsorted = total = 0
        for _ in range(40):
            h = random_acyclic_forest(rng, rng.randint(2, 14), isolated=rng.randint(0, 2))
            moved = Hypergraph((7 * v for v in h.vertices), ([7 * v for v in e] for e in h.hyperedges))
            total += moved.num_hyperedges
            unsorted += sum(list(e) != sorted(e) for e in moved.hyperedges)
            pair, expected = solve_acyclic(moved), solve_acyclic(h)
            assert pair.transversal == {7 * v for v in expected.transversal}
            assert pair.matching == expected.matching
        assert unsorted >= 0.9 * total


@st.composite
def small_hypergraphs(draw) -> Hypergraph:
    """1-14 vertices, hyperedges of 0-4 members; not necessarily linear. An
    empty hyperedge is inserted in about one draw of five, so that the other
    branches stay common."""
    n = draw(st.integers(1, 14))
    edges = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)), max_size=10))
    if draw(st.integers(0, 4)) == 3:
        edges.insert(draw(st.integers(0, len(edges))), frozenset())
    return Hypergraph(range(n), edges)


class TestOnePassCycleCheck:
    @settings(max_examples=400, derandomize=True)
    @given(h=small_hypergraphs())
    def test_agrees_with_union_find(self, h):
        # solve_acyclic's BFS finds cycles itself; is_acyclic is the
        # independent union-find answer.
        if any(not e for e in h.hyperedges):
            with pytest.raises(EmptyHyperedgeError):
                solve_acyclic(h)
        elif not are_acyclic(h.hyperedges):
            with pytest.raises(CyclicInputError):
                solve_acyclic(h)
        else:
            pair = solve_acyclic(h)
            assert all(pair.transversal & e for e in h.hyperedges)
            picked = [h.hyperedge(e) for e in sorted(pair.matching)]
            assert all(a.isdisjoint(b) for i, a in enumerate(picked) for b in picked[i + 1 :])
            assert len(pair.transversal) == len(pair.matching)

    def test_linear_cycles_of_every_length(self):
        # Random cyclic hypergraphs are rarely linear, so linear ones, whose
        # cycles have length 3 or more, are checked here: random ones and
        # single k-cycles with one pendant vertex per hyperedge.
        corpus = mixed_linear_corpus(seed=60, count=120, max_hyperedges=12)
        corpus += [Hypergraph(range(2 * k), [(i, (i + 1) % k, k + i) for i in range(k)]) for k in range(3, 12)]
        cyclic = 0
        for h in corpus:
            if are_acyclic(h.hyperedges):
                assert len(solve_acyclic(h).matching) > 0
            else:
                cyclic += 1
                with pytest.raises(CyclicInputError):
                    solve_acyclic(h)
        assert 20 <= cyclic <= len(corpus) - 20
