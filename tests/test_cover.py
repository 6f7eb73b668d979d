import dataclasses
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tricover.cli
import tricover.cover
from tricover import (
    BudgetExceededError,
    CoverCertificate,
    Graph,
    Hypergraph,
    InvariantError,
    IsolatedVertexError,
    NotLinearError,
    NotThreeUniformError,
    best_cover,
    complete_graph,
    components,
    condition_report,
    cover_is_valid,
    cover_via_bipartite,
    cover_via_fes,
    cover_via_fvs,
    enumerate_triangles,
    extend_packing,
    feedback_vertex_set,
    hypergraph_cover,
    max_matching,
    max_triangle_packing,
    min_transversal,
    min_triangle_cover,
    random_gnp,
    solve_acyclic,
    triangle_hypergraph,
)
from tricover.cyclebreak import FvsResult, _feedback_vertex_set, minimal_fes
from tricover.graph import _first_fit
from tricover.graph import _triangle_scan
from tricover.oracles import HYPERGRAPH_BUDGET

from generators import (
    book_graph,
    disjoint_union,
    fano_plane,
    irreducible_subgraph,
    random_linear_3_uniform,
    route_corpora,
    small_graph_corpus,
    two_regular_fixtures,
)
from reference_fvs import delete_hyperedges, delete_vertices


def assert_certificate_sound(g: Graph, cert) -> None:
    assert cover_is_valid(g, cert.cover)
    assert cert.size <= cert.claimed_bound
    for t in enumerate_triangles(g):
        assert set(t.edge_ids) & cert.cover


def brute_triangle_edges(g: Graph) -> list[frozenset[int]]:
    """The edge ids of every triangle, from a plain triple scan over
    has_edge, independent of cover_is_valid and of the triangle enumerator."""
    return [
        frozenset((g.edge_id(a, b), g.edge_id(b, c), g.edge_id(a, c)))
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    ]


class TestCoverIsValid:
    """The checker behind every certificate and the CLI's "valid" field must
    refuse a set that misses a triangle, not only accept covers."""

    @pytest.mark.parametrize("g", [complete_graph(3), complete_graph(4), book_graph(3)], ids=["k3", "k4", "book3"])
    def test_empty_cover_of_a_graph_with_triangles_is_invalid(self, g):
        assert brute_triangle_edges(g)
        assert not cover_is_valid(g, frozenset())

    def test_triangle_free_graph_needs_no_cover(self):
        assert cover_is_valid(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), frozenset())

    def test_agrees_with_a_triple_scan_on_best_covers_minus_one_edge(self):
        # Dropping a cover edge that alone covers some triangle must make
        # the cover invalid; dropping any other edge, which the best cover
        # rarely holds, leaves it valid.
        graphs = small_graph_corpus(seed=43, count=60) + [
            random_gnp(n, p, seed) for n in (6, 9, 12) for p in (0.5, 0.8) for seed in range(3)
        ]
        verdicts = Counter()
        for g in graphs:
            triangles = brute_triangle_edges(g)
            cover = best_cover(g).cover
            assert cover_is_valid(g, cover) and all(t & cover for t in triangles)
            for e in cover:
                sole = any(t & cover == {e} for t in triangles)
                assert cover_is_valid(g, cover - {e}) is not sole
                verdicts[sole] += 1
        assert verdicts[True] >= 100 and verdicts[False]


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
        assert cert.fes_hyperedges == {}
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
        assert cert.fes_hyperedges == {}

    def test_dropped_count_below_components_on_sparse_irreducible(self):
        # Irreducible graphs with at least twice as many edges as triangles:
        # the dropped set stays within the hypergraph's component count, which
        # the matching number dominates, giving the factor-2 guarantee.
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

    def test_fes_route_wins(self):
        # Few random linear draws make fes strictly smaller than fvs, so one
        # such case is pinned: fvs needs 3 vertices, fes drops hyperedge 3.
        h = Hypergraph(range(8), [(0, 1, 7), (1, 3, 5), (2, 4, 6), (2, 5, 7)])
        assert tricover.cover._via_fvs(h).size == 3
        cert = hypergraph_cover(h)
        assert (cert.strategy, cert.size) == ("fes", 2)
        assert cert.conditions == {"i": "true", "ii": "true"}
        assert cert == dataclasses.replace(tricover.cover._via_fes(h), conditions=cert.conditions)
        assert cert.fes_hyperedges == {3: frozenset({2, 5, 7})}
        assert all(cert.cover & e for e in h.hyperedges)

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
        # The linear 3-cycle: greedy matches exactly m/3, which proves it.
        assert hypergraph_cover(Hypergraph(range(6), [(0, 1, 2), (2, 3, 4), (4, 5, 0)])).conditions["i"] == "true"
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

    def test_oracle_does_not_trust_the_route_race(self, monkeypatch, tmp_path, capsys):
        # nu_exact must come from the oracle alone, so that it checks the
        # routes' cover sizes. A broken fvs route returns a non-cover as
        # large as the greedy packing but smaller than the packing number.
        # That must show as nu_exact > nu_upper, in the report and in
        # `analyze --oracle`; a search stopped at the race's size would
        # read nu_exact == nu_upper and hide it.
        def too_small(h):
            cover = frozenset(range(len(_first_fit(h.hyperedges))))
            return CoverCertificate("fvs", cover, Fraction(0), cover, None)

        graphs = [g for g in small_graph_corpus(seed=73, count=60) if len(_first_fit(triangle_hypergraph(g).hyperedges)) < max_triangle_packing(g)[0]]
        assert len(graphs) >= 3
        monkeypatch.setattr(tricover.cover, "_via_fvs", too_small)
        for g in graphs:
            r = condition_report(g, use_oracle=True)
            assert r.nu_lower == r.nu_upper < r.nu_exact == max_triangle_packing(g)[0]
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in graphs[0].edges))
        assert tricover.cli.main(["analyze", str(path), "--oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nu_upper"] < out["nu_exact"]

    def test_graph_conditions_are_the_triangle_hypergraph_conditions(self):
        # The paper's reduction: on an irreducible graph, condition i is the
        # triangle hypergraph's nu >= m/3 and condition iii its |V'| >= 2m.
        # A triangle-free graph gives the empty hypergraph, where both entry
        # points read "not-applicable".
        seen = set()
        graphs = [irreducible_subgraph(g) for g in small_graph_corpus(seed=17, count=250)]
        graphs = [g for g in graphs if len(enumerate_triangles(g)) <= HYPERGRAPH_BUDGET.max_edges]
        assert len(graphs) >= 200
        for g in graphs:
            r = condition_report(g, use_oracle=True)
            conditions = hypergraph_cover(triangle_hypergraph(g)).conditions
            assert (r.cond_i, r.cond_iii) == (conditions["i"], conditions["ii"])
            seen.add((r.cond_i, r.cond_iii))
        na = "not-applicable"
        assert seen == {("true", "true"), ("true", "false"), ("false", "false"), (na, na)}

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


def assert_dropped_are_the_instances(h, cert) -> None:
    """An fes certificate lists its dropped hyperedges in ascending id order,
    each with its members in h."""
    dropped = cert.fes_hyperedges
    assert list(dropped) == sorted(dropped)
    assert all(members == h.hyperedge(f) for f, members in dropped.items())


gnp_params = dict(n=st.integers(0, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))


class TestOnePipeline:
    """The graph entry points build the triangle hypergraph once and share
    the fvs and fes routes with the per-strategy functions."""

    ORACLE_REPORT = functools.partial(condition_report, use_oracle=True)
    GRAPH_ENTRIES = [best_cover, condition_report, ORACLE_REPORT, max_triangle_packing, min_triangle_cover]

    @pytest.mark.parametrize(
        "entry, scans",
        [(entry, 1) for entry in GRAPH_ENTRIES] + [(cover_via_fvs, 1), (cover_via_fes, 1), (cover_via_bipartite, 0)],
        ids=["best", "report", "oracle-report", "packing", "cover", "fvs", "fes", "bipartite"],
    )
    def test_builds_the_instance_once(self, monkeypatch, entry, scans):
        # enumerate_triangles and triangle_hypergraph both scan through
        # _triangle_scan, so this counts every triangle scan.
        triangles = count_calls(monkeypatch, _triangle_scan)
        builds = count_calls(monkeypatch, triangle_hypergraph)
        entry(random_gnp(12, 0.6, 3))
        assert (len(triangles), len(builds)) == (scans, scans)

    @pytest.mark.parametrize(
        "argv, scans",
        [
            (["cover", "--strategy", strategy, *explain], int(strategy != "bipartite"))
            for strategy in ("fvs", "fes", "best", "bipartite")
            for explain in ([], ["--explain"])
        ]
        + [(["analyze", *oracle], 1) for oracle in ([], ["--oracle"])],
        ids=lambda arg: "-".join(arg).replace("--", "") if isinstance(arg, list) else None,
    )
    def test_each_cli_command_scans_at_most_once(self, monkeypatch, argv, scans):
        # The fes route's certificate carries its dropped triangles, so
        # --explain prints them without a second build.
        triangles = count_calls(monkeypatch, _triangle_scan)
        gnp12 = Path(__file__).parent / "golden" / "inputs" / "gnp12.txt"
        assert tricover.cli.main([argv[0], str(gnp12), *argv[1:]]) == 0
        assert len(triangles) == scans

    @pytest.mark.parametrize("entry", GRAPH_ENTRIES[2:], ids=["oracle-report", "packing", "cover"])
    def test_exact_entries_refuse_before_scanning(self, monkeypatch, entry):
        triangles = count_calls(monkeypatch, _triangle_scan)
        with pytest.raises(BudgetExceededError) as raised:
            entry(complete_graph(12))
        assert str(raised.value) == "graph edge set has 66 items, budget allows 40"
        assert triangles == []

    @settings(max_examples=80, derandomize=True)
    @given(**gnp_params)
    def test_hypergraph_counts_equal_graph_counts(self, n, p, seed):
        # condition_report reads both graph counts off the triangle hypergraph.
        g = random_gnp(n, p, seed)
        h = triangle_hypergraph(g)
        assert len(_first_fit(h.hyperedges)) == len(extend_packing(g, ()))
        assert len(h.non_isolated_vertices()) == irreducible_subgraph(g).num_edges

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(**gnp_params)
    def test_entry_points_agree_with_the_strategies(self, n, p, seed):
        g = random_gnp(n, p, seed)
        certs = {"fvs": cover_via_fvs(g), "fes": cover_via_fes(g), "bipartite": cover_via_bipartite(g)}
        assert_dropped_are_the_instances(triangle_hypergraph(g), certs["fes"])
        sizes = {name: cert.size for name, cert in certs.items()}
        best = best_cover(g)
        assert best.strategy_sizes == sizes
        assert dataclasses.replace(best, strategy_sizes=None) == certs[best.strategy]
        reduced = irreducible_subgraph(g)
        report = condition_report(g)
        assert report.cover_sizes == sizes
        assert report.nu_lower == len(extend_packing(g, ()))
        assert report.num_irreducible_edges == reduced.num_edges
        if reduced.num_edges:
            # No isolated vertices: hypergraph_cover runs the graph routes'
            # pipeline and keeps the smaller cover, fvs on ties.
            fvs, fes = cover_via_fvs(reduced), cover_via_fes(reduced)
            h = triangle_hypergraph(reduced)
            cert = hypergraph_cover(h)
            assert dataclasses.replace(cert, conditions=None) == (fes if fes.size < fvs.size else fvs)
            # hypergraph_cover returns this fes certificate when fes wins,
            # which is rare here, so it is checked on every draw.
            assert_dropped_are_the_instances(h, fes)


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


def composed_via_fvs(h: Hypergraph) -> CoverCertificate:
    """The fvs route as it was composed before it solved in place: the
    remainder is rebuilt as a hypergraph and solved by solve_acyclic."""
    res = _feedback_vertex_set(h)
    breaker = res.removed_vertices
    pair = solve_acyclic(delete_vertices(h, breaker))
    claimed = Fraction(h.num_hyperedges, 3) + len(pair.matching)
    return CoverCertificate("fvs", breaker | pair.transversal, claimed, breaker, pair, trace=res.trace)


def composed_via_fes(h: Hypergraph) -> CoverCertificate:
    """The fes route composed the same way: the picks are the breaker, and
    the hyperedges they miss are rebuilt as a hypergraph and solved."""
    dropped = {f: h.hyperedge(f) for f in sorted(minimal_fes(h))}
    picks = frozenset(min(e) for e in dropped.values())
    pair = solve_acyclic(delete_vertices(h, picks))
    claimed = Fraction(len(pair.matching) + len(dropped))
    return CoverCertificate("fes", picks | pair.transversal, claimed, picks, pair, fes_hyperedges=dropped)


def kept_rule_via_fes(h: Hypergraph) -> tuple[frozenset[int], Fraction]:
    """(cover, claimed bound) of the fes route's earlier remainder rule, which
    solved every hyperedge the feedback edge set kept, hit by a pick or not."""
    removed = minimal_fes(h)
    pair = solve_acyclic(delete_hyperedges(h, removed))
    picks = frozenset(min(h.hyperedge(f)) for f in removed)
    return picks | pair.transversal, Fraction(len(removed) + len(pair.matching))


ROUTE_CORPORA = route_corpora()


class TestRemainderSolvedInPlace:
    """Each route solves its acyclic remainder on the instance's own
    mappings; its certificate must equal the one from a rebuilt remainder."""

    @pytest.mark.parametrize("family", ROUTE_CORPORA)
    def test_routes_equal_the_composed_reference(self, family):
        for k, h in enumerate(ROUTE_CORPORA[family]):
            assert (k, tricover.cover._via_fvs(h)) == (k, composed_via_fvs(h))
            assert (k, tricover.cover._via_fes(h)) == (k, composed_via_fes(h))

    def test_corpora_reach_both_kinds_of_remainder(self):
        # Some remainders keep several components and matched hyperedges,
        # and some routes drop every hyperedge, so both BFS ends are run.
        certs = [route(h) for hs in ROUTE_CORPORA.values() for h in hs for route in (composed_via_fvs, composed_via_fes)]
        assert any(len(cert.residual_pair.matching) >= 3 for cert in certs)
        assert any(not cert.residual_pair.matching for cert in certs)

    STUBS = {
        "fvs": ("_feedback_vertex_set", lambda h: FvsResult(frozenset(), ())),
        "fes": ("minimal_fes", lambda h: {}),
    }

    @pytest.mark.parametrize("route", STUBS)
    def test_cyclic_remainder_is_an_internal_error(self, monkeypatch, route):
        # A breaker that breaks nothing leaves K_4's four triangles, a
        # cycle. That is a bug in the route, not bad input: InvariantError,
        # never the CyclicInputError that the CLI reports with exit code 3.
        monkeypatch.setattr(tricover.cover, *self.STUBS[route])
        entry = cover_via_fvs if route == "fvs" else cover_via_fes
        message = f"the {route} route's remainder has a cycle"
        with pytest.raises(InvariantError, match=message):
            entry(complete_graph(4))
        k4 = Path(__file__).parent / "golden" / "inputs" / "k4.txt"
        for strategy in (route, "best"):
            with pytest.raises(InvariantError, match=message):
                tricover.cli.main(["cover", str(k4), "--strategy", strategy])

    @pytest.mark.parametrize("route", STUBS)
    def test_cli_exit_code_is_not_bad_input(self, route):
        # The same stub in a child process: the CLI exits through the
        # uncaught InvariantError (status 1), not with status 3.
        name = self.STUBS[route][0]
        stub = "cb.FvsResult(frozenset(), ())" if route == "fvs" else "{}"
        k4 = Path(__file__).parent / "golden" / "inputs" / "k4.txt"
        code = (
            "import sys\n"
            "import tricover.cli, tricover.cover, tricover.cyclebreak as cb\n"
            f"tricover.cover.{name} = lambda h: {stub}\n"
            f"sys.exit(tricover.cli.main(['cover', {str(k4)!r}, '--strategy', {route!r}]))\n"
        )
        src = Path(tricover.cover.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert f"InvariantError: the {route} route's remainder has a cycle" in out.stderr
        assert "error: hypergraph has a cycle" not in out.stderr


class TestFesRemainderRule:
    """The fes route solves only the hyperedges its picks miss. Every dropped
    hyperedge holds its pick, so these are kept hyperedges, and neither the
    cover nor the claimed bound can exceed the earlier rule's, which solved
    every kept hyperedge."""

    GRAPHS = [random_gnp(n, p, seed) for n in (7, 10, 13, 16) for p in (0.3, 0.6, 0.9) for seed in range(4)]

    def test_never_larger_than_the_kept_rule(self):
        instances = [h for hs in ROUTE_CORPORA.values() for h in hs] + [triangle_hypergraph(g) for g in self.GRAPHS]
        smaller = 0
        for k, h in enumerate(instances):
            cert = tricover.cover._via_fes(h)
            old_cover, old_claimed = kept_rule_via_fes(h)
            assert cert.size <= len(old_cover) and cert.size <= cert.claimed_bound <= old_claimed, k
            smaller += cert.size < len(old_cover)
        assert smaller >= 50

    def test_graph_covers_stay_sound(self):
        for g in self.GRAPHS:
            cert = cover_via_fes(g)
            assert_certificate_sound(g, cert)
            assert all(t & cert.cover for t in brute_triangle_edges(g))


class TestPinnedAnswers:
    """Every route's answers on fixed corpora, pinned by one digest: a change
    that keeps every answer keeps it, and one that changes an answer must
    regenerate it and say so. Print the current value with
    PYTHONPATH=src python tests/test_cover.py."""

    # sha256 over repr((strategy, sorted cover, claimed_bound, sorted
    # breaker)) of every certificate.
    ROUTE_DIGEST = "82ad5256589233c6bfb32f70e27ee2283e2a196b8de86b6c67283db889bed261"

    @staticmethod
    def certificates():
        for hs in ROUTE_CORPORA.values():
            for h in hs:
                yield tricover.cover._via_fvs(h)
                yield tricover.cover._via_fes(h)
        for g in (random_gnp(n, p, seed) for n in (8, 12, 16, 20) for p in (0.3, 0.6, 0.95) for seed in range(3)):
            yield from (cover_via_fvs(g), cover_via_fes(g), cover_via_bipartite(g))

    @classmethod
    def digest(cls) -> str:
        digest = hashlib.sha256()
        for cert in cls.certificates():
            digest.update(repr((cert.strategy, sorted(cert.cover), cert.claimed_bound, sorted(cert.breaker))).encode())
        return digest.hexdigest()

    def test_route_answers_match_the_pinned_digest(self):
        assert self.digest() == self.ROUTE_DIGEST


if __name__ == "__main__":
    print(TestPinnedAnswers.digest())
