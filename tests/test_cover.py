import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tricover.cover
from tricover import (
    Graph,
    Hypergraph,
    IsolatedVertexError,
    NotLinearError,
    NotThreeUniformError,
    best_cover,
    complete_graph,
    condition_report,
    cover_is_valid,
    cover_via_bipartite,
    cover_via_fes,
    cover_via_fvs,
    disjoint_union,
    enumerate_triangles,
    fano_plane,
    feedback_vertex_set,
    greedy_triangle_packing,
    hypergraph_cover,
    irreducible_subgraph,
    max_matching,
    max_triangle_packing,
    min_transversal,
    min_triangle_cover,
    random_gnp,
    triangle_hypergraph,
)
from tricover.graph import _first_fit
from tricover.graph import _triangle_scan
from tricover.oracles import HYPERGRAPH_BUDGET

from generators import book_graph, random_linear_3_uniform, small_graph_corpus, two_regular_fixtures


def assert_certificate_sound(g: Graph, cert) -> None:
    assert cover_is_valid(g, cert.cover)
    assert cert.size <= cert.claimed_bound
    for t in enumerate_triangles(g):
        assert set(t.edge_ids) & cert.cover


class TestCoverViaFvs:
    def test_k4_cover_size_two(self):
        g = complete_graph(4)
        cert = cover_via_fvs(g)
        assert_certificate_sound(g, cert)
        assert len(cert.breaker) <= 1
        assert cert.residual_pair is not None and len(cert.residual_pair.matching) == 1
        assert cert.size == 2 == 2 * max_triangle_packing(g)[0]
        assert cert.claimed_bound == Fraction(4, 3) + 1

    def test_triangle_free_empty_cover(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cert = cover_via_fvs(g)
        assert cert.cover == frozenset()
        assert cert.claimed_bound == 0

    def test_book_graph_cover(self):
        g = book_graph(3)
        cert = cover_via_fvs(g)
        assert_certificate_sound(g, cert)
        assert len(cert.breaker) <= 1
        assert cert.size <= 2
        assert min_triangle_cover(g)[0] == 1

    def test_bound_structure_on_random_graphs(self):
        rng = random.Random(70)
        for _ in range(25):
            g = random_gnp(rng.randint(4, 9), rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
            hg = triangle_hypergraph(g)
            cert = cover_via_fvs(g)
            assert_certificate_sound(g, cert)
            assert len(cert.breaker) <= hg.num_hyperedges // 3

    def test_residual_matching_is_a_packing_witness(self):
        # The matching's hyperedges are triangles of g, pairwise edge-disjoint,
        # so they lower-bound the packing number.
        from tricover import PackingWitness

        rng = random.Random(74)
        for _ in range(20):
            g = random_gnp(rng.randint(4, 9), rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
            tris = enumerate_triangles(g)
            for cert in (cover_via_fvs(g), cover_via_fes(g)):
                witness = PackingWitness(tuple(tris[i] for i in sorted(cert.residual_pair.matching)))
                witness.validate(g)
                assert len(witness) <= max_triangle_packing(g)[0]


class TestCoverViaFes:
    def test_book_graph_exact(self):
        g = book_graph(3)
        cert = cover_via_fes(g)
        assert_certificate_sound(g, cert)
        assert cert.fes_hyperedges == frozenset()
        assert cert.size == 1

    def test_k4_condition_fails_but_cover_valid(self):
        g = complete_graph(4)
        # |E| / triangles = 6/4 < 2, so no guarantee, but still a cover.
        cert = cover_via_fes(g)
        assert_certificate_sound(g, cert)

    def test_single_triangle_exact(self):
        g = complete_graph(3)
        cert = cover_via_fes(g)
        assert cert.size == 1
        assert cert.fes_hyperedges == frozenset()

    def test_dropped_count_below_components_on_sparse_irreducible(self):
        # Irreducible graphs with at least twice as many edges as triangles:
        # the dropped set stays within the hypergraph's component count, which
        # the matching number dominates, giving the factor-2 guarantee.
        from tricover import components, irreducible_subgraph

        candidates = [book_graph(k) for k in (1, 2, 3, 5)] + [
            disjoint_union(book_graph(2), complete_graph(3)),
            disjoint_union(complete_graph(3), complete_graph(3)),
        ]
        for g in candidates:
            assert irreducible_subgraph(g) == g
            hg = triangle_hypergraph(g)
            assert g.num_edges >= 2 * hg.num_hyperedges
            cert = cover_via_fes(g)
            p = sum(1 for c in components(hg) if c.hyperedge_ids)
            nu, _ = max_triangle_packing(g)
            assert len(cert.fes_hyperedges) <= p <= nu
            assert cert.size <= 2 * nu

    def test_pendant_edges_never_covered(self):
        # Triangle plus a path: path edges are isolated hypergraph vertices.
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        cert = cover_via_fes(g)
        assert_certificate_sound(g, cert)
        triangle_edges = {g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(0, 2)}
        assert cert.cover <= triangle_edges


class TestCoverViaBipartite:
    def test_k5_cover_at_most_five(self):
        g = complete_graph(5)
        cert = cover_via_bipartite(g)
        assert_certificate_sound(g, cert)
        assert cert.size <= 5
        assert min_triangle_cover(g)[0] == 4

    def test_bipartite_graph_empty(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert cover_via_bipartite(g).cover == frozenset()

    def test_k4_cover_equals_optimum(self):
        g = complete_graph(4)
        cert = cover_via_bipartite(g)
        assert cert.size == 2 == min_triangle_cover(g)[0]

    def test_bound_half_edges(self):
        rng = random.Random(71)
        for _ in range(25):
            g = random_gnp(rng.randint(3, 10), rng.uniform(0.2, 0.95), rng.randrange(1 << 30))
            cert = cover_via_bipartite(g)
            assert_certificate_sound(g, cert)
            assert cert.size <= g.num_edges // 2


class TestBestCover:
    def test_k4_best_is_two(self):
        cert = best_cover(complete_graph(4))
        assert cert.size == 2
        assert set(cert.strategy_sizes) == {"fvs", "fes", "bipartite"}

    def test_book_graph_best_at_most_two(self):
        assert best_cover(book_graph(3)).size <= 2

    def test_k7_best_at_most_ten(self):
        cert = best_cover(complete_graph(7))
        assert cert.size <= 10
        assert cert.size >= min_triangle_cover(complete_graph(7))[0]

    def test_tie_prefers_fvs_then_fes(self):
        cert = best_cover(complete_graph(4))
        sizes = cert.strategy_sizes
        winners = [s for s in ("fvs", "fes", "bipartite") if sizes[s] == cert.size]
        assert cert.strategy == winners[0]

    def test_relaxation_sandwich_on_corpus(self):
        for g in small_graph_corpus(seed=72, count=25):
            cert = best_cover(g)
            assert_certificate_sound(g, cert)
            nu, _ = max_triangle_packing(g)
            tau, _ = min_triangle_cover(g)
            assert cert.size >= tau
            assert cert.size <= 3 * nu


class TestHypergraphCover:
    def test_fano_transversal_of_three(self):
        cert = hypergraph_cover(fano_plane())
        assert cert.size == 3 == min_transversal(fano_plane())[0]
        assert cert.conditions == {"i": "false", "ii": "false"}
        assert all(cert.cover & e for e in fano_plane().hyperedges)

    def test_single_hyperedge(self):
        h = Hypergraph(range(3), [(0, 1, 2)])
        cert = hypergraph_cover(h)
        assert cert.size == 1

    def test_book_hypergraph_condition_ii(self):
        h = triangle_hypergraph(book_graph(3))
        cert = hypergraph_cover(h)
        assert cert.conditions["ii"] == "true"
        assert cert.size <= 2 * max_matching(h)[0]

    def test_rejects_isolated_vertices(self):
        h = Hypergraph(range(4), [(0, 1, 2)])
        with pytest.raises(IsolatedVertexError):
            hypergraph_cover(h)

    def test_rejects_non_linear_and_non_uniform(self):
        # One gate: the same exception type and message as feedback_vertex_set.
        for h in (Hypergraph(range(4), [(0, 1, 2, 3)]), Hypergraph(range(4), [(0, 1, 2), (0, 1, 3)])):
            with pytest.raises((NotThreeUniformError, NotLinearError)) as fvs_error:
                feedback_vertex_set(h)
            with pytest.raises(type(fvs_error.value)) as cover_error:
                hypergraph_cover(h)
            assert str(cover_error.value) == str(fvs_error.value)

    def test_two_regular_fixtures_are_transversals(self):
        for h in two_regular_fixtures():
            cert = hypergraph_cover(h)
            assert all(cert.cover & e for e in h.hyperedges)
            nu, _ = max_matching(h)
            if "true" in (cert.conditions["i"], cert.conditions["ii"]):
                assert cert.size <= 2 * nu

    def test_oracle_runs_only_below_the_budget_when_greedy_falls_short(self, monkeypatch):
        def oracle(h, *args):
            raise AssertionError(f"max_matching called on {h.num_hyperedges} hyperedges")

        monkeypatch.setattr(tricover.cover, "max_matching", oracle)
        for seed, num_vertices, m, status in [(0, 16, 20, "unknown"), (5, 25, 18, "true")]:
            h = random_linear_3_uniform(random.Random(seed), num_vertices, m)
            assert h.num_hyperedges == m > HYPERGRAPH_BUDGET.max_edges
            assert not h.vertices - h.non_isolated_vertices()
            # Greedy falls short of m/3 exactly when the status is not "true".
            assert (3 * len(_first_fit(h.hyperedges)) >= m) == (status == "true")
            assert hypergraph_cover(h).conditions["i"] == status
        # Within the budget a greedy matching that proves it still skips the
        # oracle, and a short one sends Fano to it.
        assert hypergraph_cover(Hypergraph(range(3), [(0, 1, 2)])).conditions["i"] == "true"
        with pytest.raises(AssertionError, match="on 7 hyperedges"):
            hypergraph_cover(fano_plane())


class TestConditionReport:
    def test_k4_with_oracle(self):
        r = condition_report(complete_graph(4), use_oracle=True)
        assert r.nu_exact == 1
        assert r.ratios["nu_over_triangles"] == Fraction(1, 4)
        assert r.ratios["nu_over_edges"] == Fraction(1, 6)
        assert r.ratios["edges_over_triangles"] == Fraction(3, 2)
        assert (r.cond_i, r.cond_ii, r.cond_iii) == ("false", "false", "false")

    def test_k5_with_oracle(self):
        r = condition_report(complete_graph(5), use_oracle=True)
        assert r.nu_exact == 2
        assert r.ratios["nu_over_edges"] == Fraction(1, 5)

    def test_book_condition_iii_true(self):
        r = condition_report(book_graph(3))
        assert r.ratios["edges_over_triangles"] == Fraction(7, 3)
        assert r.cond_iii == "true"

    def test_triangle_free_not_applicable(self):
        r = condition_report(Graph(4, [(0, 1), (1, 2)]))
        assert (r.cond_i, r.cond_iii) == ("not-applicable", "not-applicable")
        assert r.ratios["nu_over_triangles"] is None

    def test_lower_bound_proves_condition_i(self):
        # Single triangle: greedy packing of 1 proves 3 * nu >= 1 triangle.
        r = condition_report(complete_graph(3))
        assert r.nu_exact is None
        assert r.cond_i == "true"
        assert r.cond_ii == "true"

    def test_unknown_without_oracle(self):
        r = condition_report(complete_graph(5))
        assert r.cond_i == "unknown"

    def test_nu_upper_dominates_nu(self):
        for g in small_graph_corpus(seed=73, count=15):
            r = condition_report(g, use_oracle=True)
            assert r.nu_lower <= r.nu_exact <= r.nu_upper

    def test_graph_conditions_are_the_triangle_hypergraph_conditions(self):
        # The paper's reduction: on an irreducible graph, condition i is the
        # triangle hypergraph's nu >= m/3 and condition iii its |V'| >= 2m.
        seen = set()
        graphs = [irreducible_subgraph(g) for g in small_graph_corpus(seed=17, count=250)]
        graphs = [g for g in graphs if 1 <= len(enumerate_triangles(g)) <= HYPERGRAPH_BUDGET.max_edges]
        assert len(graphs) >= 150
        for g in graphs:
            r = condition_report(g, use_oracle=True)
            conditions = hypergraph_cover(triangle_hypergraph(g)).conditions
            assert (r.cond_i, r.cond_iii) == (conditions["i"], conditions["ii"])
            seen.add((r.cond_i, r.cond_iii))
        assert seen == {("true", "true"), ("true", "false"), ("false", "false")}

    def test_raw_and_irreducible_ratios_differ_on_pendants(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        r = condition_report(g)
        assert r.ratios["edges_over_triangles"] == Fraction(5, 1)
        assert r.ratios["irreducible_edges_over_triangles"] == Fraction(3, 1)
        assert r.cond_iii == "true"


def count_calls(monkeypatch, fn) -> list:
    """Record each call of fn made through any tricover module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "tricover" or name.startswith("tricover."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


gnp_params = dict(n=st.integers(0, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))


class TestOnePipeline:
    """The graph entry points build the triangle hypergraph once and share
    the fvs and fes routes with the per-strategy functions."""

    @pytest.mark.parametrize("entry", [best_cover, condition_report])
    def test_builds_the_instance_once(self, monkeypatch, entry):
        # enumerate_triangles and triangle_hypergraph both scan through
        # _triangle_scan, so this counts every triangle scan.
        triangles = count_calls(monkeypatch, _triangle_scan)
        builds = count_calls(monkeypatch, triangle_hypergraph)
        entry(random_gnp(12, 0.6, 3))
        assert (len(triangles), len(builds)) == (1, 1)

    @settings(max_examples=80, derandomize=True)
    @given(**gnp_params)
    def test_hypergraph_counts_equal_graph_counts(self, n, p, seed):
        # condition_report reads both graph counts off the triangle hypergraph.
        g = random_gnp(n, p, seed)
        h = triangle_hypergraph(g)
        assert len(_first_fit(h.hyperedges)) == len(greedy_triangle_packing(g))
        assert len(h.non_isolated_vertices()) == irreducible_subgraph(g).num_edges

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(**gnp_params)
    def test_entry_points_agree_with_the_strategies(self, n, p, seed):
        g = random_gnp(n, p, seed)
        certs = {"fvs": cover_via_fvs(g), "fes": cover_via_fes(g), "bipartite": cover_via_bipartite(g)}
        sizes = {name: cert.size for name, cert in certs.items()}
        best = best_cover(g)
        assert best.strategy_sizes == sizes
        assert dataclasses.replace(best, strategy_sizes=None) == certs[best.strategy]
        reduced = irreducible_subgraph(g)
        report = condition_report(g)
        assert report.cover_sizes == sizes
        assert report.nu_lower == len(greedy_triangle_packing(g))
        assert report.num_irreducible_edges == reduced.num_edges
        if reduced.num_edges:
            # No isolated vertices: hypergraph_cover runs the graph routes'
            # pipeline and keeps the smaller cover, fvs on ties.
            fvs, fes = cover_via_fvs(reduced), cover_via_fes(reduced)
            cert = hypergraph_cover(triangle_hypergraph(reduced))
            assert dataclasses.replace(cert, conditions=None) == (fes if fes.size < fvs.size else fvs)


class TestTwoApproximationUnderConditions:
    def test_condition_i_instances(self):
        # Disjoint triangles: nu = triangles, condition i holds with room.
        g = disjoint_union(complete_graph(3), disjoint_union(complete_graph(3), complete_graph(3)))
        nu, _ = max_triangle_packing(g)
        assert best_cover(g).size <= 2 * nu

    def test_condition_ii_instance(self):
        g = complete_graph(7)
        nu, _ = max_triangle_packing(g)
        assert 4 * nu >= g.num_edges
        assert best_cover(g).size <= 2 * nu

    def test_condition_iii_instance(self):
        g = book_graph(4)
        nu, _ = max_triangle_packing(g)
        assert best_cover(g).size <= 2 * nu
