"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Thresholds and instance caps are pinned here; the random-experiment
percentages are empirical targets recorded in the test, not guaranteed
constants.
"""

import json
import random
import time

import pytest

from tricover import (
    GRAPH_BUDGET,
    Graph,
    Hypergraph,
    OracleBudget,
    best_cover,
    complete_graph,
    components,
    condition_report,
    cover_is_valid,
    cover_via_bipartite,
    enumerate_triangles,
    feedback_vertex_set,
    fes_size_bound,
    hypergraph_cover,
    max_matching,
    max_triangle_packing,
    min_transversal,
    min_triangle_cover,
    minimal_fes,
    random_gnp,
    solve_acyclic,
    steiner_triple_system,
    triangle_hypergraph,
)
from tricover.cli import main
from tricover.experiment import ExperimentSpec, run_experiment
from tricover.hypergraph import are_acyclic

from generators import (
    book_graph,
    bridged_blocks,
    disjoint_union,
    fano_plane,
    gadget_augment,
    random_acyclic_forest,
    random_graph_hypergraphs,
    random_linear_3_uniform,
    two_regular_fixtures,
)
from reference_fvs import delete_hyperedges, delete_vertices


def announce(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def linear_corpus():
    """At least 1000 linear 3-uniform hypergraphs with at most 40 hyperedges."""
    rng = random.Random(4200)
    corpus = list(two_regular_fixtures())
    corpus.append(bridged_blocks())
    while len(corpus) < 640:
        m = rng.randint(1, 40)
        nv = rng.randint(max(4, m + 2), 3 * m + 2)
        h = random_linear_3_uniform(rng, nv, m)
        if h.num_hyperedges:
            corpus.append(h)
    corpus += random_graph_hypergraphs(seed=4300, count=360)
    return corpus


@pytest.fixture(scope="module")
def acyclic_corpus():
    """At least 500 acyclic linear 3-uniform hypergraphs with at most 12 hyperedges."""
    rng = random.Random(4400)
    return [random_acyclic_forest(rng, rng.randint(1, 12)) for _ in range(500)]


@pytest.fixture(scope="module")
def small_graph_suite():
    """Graphs with at most 25 edges, mixing named families and random draws."""
    graphs = [
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        complete_graph(6),
        complete_graph(7),
        book_graph(1),
        book_graph(2),
        book_graph(3),
        book_graph(5),
        book_graph(8),
        disjoint_union(complete_graph(3), complete_graph(3)),
        disjoint_union(complete_graph(4), complete_graph(4)),
        gadget_augment(complete_graph(3), 1, "K4"),
        gadget_augment(complete_graph(3), 2, "K4"),
        gadget_augment(book_graph(2), 1, "K4"),
        gadget_augment(complete_graph(3), 1, "K5"),
        Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]),  # triangle + tail
        Graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]),  # triangle-free
    ]
    rng = random.Random(4500)
    while len(graphs) < 60:
        g = random_gnp(rng.randint(4, 9), rng.uniform(0.25, 0.85), rng.randrange(1 << 30))
        if g.num_edges <= 25:
            graphs.append(g)
    assert all(g.num_edges <= 25 for g in graphs)
    return graphs


def test_criterion_1_fvs_bound(linear_corpus):
    start = time.monotonic()
    assert len(linear_corpus) >= 1000
    assert all(h.num_hyperedges <= 40 for h in linear_corpus)
    for h in linear_corpus:
        res = feedback_vertex_set(h)
        assert len(res.removed_vertices) <= h.num_hyperedges // 3
        assert are_acyclic(delete_vertices(h, res.removed_vertices).hyperedges)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(1, "fvs-bound", f"{len(linear_corpus)} hypergraphs, {elapsed:.1f}s")


def test_criterion_2_acyclic_duality(acyclic_corpus):
    assert len(acyclic_corpus) >= 500
    assert all(h.num_hyperedges <= 12 for h in acyclic_corpus)
    for h in acyclic_corpus:
        pair = solve_acyclic(h)
        nu, _ = max_matching(h)
        tau, _ = min_transversal(h)
        assert len(pair.transversal) == tau
        assert len(pair.matching) == nu
        assert tau == nu
    announce(2, "acyclic-duality", f"{len(acyclic_corpus)} instances, exact equality")


def test_criterion_3_connected_acyclic_vertex_count(acyclic_corpus):
    checked = 0
    for h in acyclic_corpus:
        for comp in components(h):
            if comp.hyperedge_ids:
                assert len(comp.vertices) == 2 * len(comp.hyperedge_ids) + 1
                checked += 1
    assert checked >= 500
    announce(3, "tree-vertex-count", f"{checked} connected components, |V| = 2|E|+1 exact")


def test_criterion_4_minimal_fes_bound(acyclic_corpus, linear_corpus):
    checked = 0
    for h in acyclic_corpus + linear_corpus:
        fes = minimal_fes(h).keys()
        kept = delete_hyperedges(h, fes)
        assert are_acyclic(kept.hyperedges)
        assert len(fes) <= fes_size_bound(h)
        for eid in fes:
            assert not are_acyclic(delete_hyperedges(h, fes - {eid}).hyperedges)
        checked += 1
    announce(4, "minimal-fes-bound", f"{checked} instances, bound and minimality exact")


def test_criterion_5_known_exact_values():
    start = time.monotonic()
    assert max_triangle_packing(complete_graph(4))[0] == 1
    assert min_triangle_cover(complete_graph(4))[0] == 2
    assert max_triangle_packing(complete_graph(5))[0] == 2
    assert min_triangle_cover(complete_graph(5))[0] == 4
    assert max_triangle_packing(complete_graph(7))[0] == 7
    assert max_matching(fano_plane())[0] == 1
    assert min_transversal(fano_plane())[0] == 3
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(5, "known-exact-values", f"six oracle values reproduced in {elapsed:.2f}s")


def test_criterion_6_conditional_two_approximation(small_graph_suite):
    condition_hits = 0
    for g in small_graph_suite:
        nu, _ = max_triangle_packing(g)
        tau, _ = min_triangle_cover(g)
        cert = best_cover(g)
        assert cert.size >= tau
        assert cover_is_valid(g, cert.cover)
        num_t = len(enumerate_triangles(g))
        report = condition_report(g)
        cond_i = 3 * nu >= num_t and num_t > 0
        cond_ii = 4 * nu >= g.num_edges and g.num_edges > 0
        cond_iii = report.cond_iii == "true"
        if cond_i or cond_ii or cond_iii:
            condition_hits += 1
            assert cert.size <= 2 * nu
    assert condition_hits >= 20
    announce(6, "conditional-2-approx", f"{len(small_graph_suite)} graphs, {condition_hits} with a certified condition")


def test_criterion_7_bipartite_cover(small_graph_suite):
    def residual_is_bipartite(g: Graph, cover) -> bool:
        adj = [set() for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            if i not in cover:
                adj[u].add(v)
                adj[v].add(u)
        color = {}
        for s in range(g.n):
            if s in color:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = color[x] ^ 1
                        stack.append(y)
                    elif color[y] == color[x]:
                        return False
        return True

    rng = random.Random(4600)
    extra = [random_gnp(rng.randint(3, 20), rng.uniform(0.1, 0.95), rng.randrange(1 << 30)) for _ in range(60)]
    for g in list(small_graph_suite) + extra:
        cert = cover_via_bipartite(g)
        assert cert.size <= g.num_edges // 2
        assert residual_is_bipartite(g, cert.cover)
        assert cover_is_valid(g, cert.cover)
    announce(7, "bipartite-cover", f"{len(small_graph_suite) + len(extra)} graphs, bound and bipartite residual hold")


def test_criterion_8_hypergraph_two_approximation():
    rng = random.Random(4700)
    condition_ii_hits = 0
    condition_i_hits = 0
    checked = 0
    while condition_ii_hits < 60 or condition_i_hits < 60:
        m = rng.randint(1, 14)
        nv = rng.randint(max(4, m + 2), 3 * m + 1)
        h = random_linear_3_uniform(rng, nv, m)
        if h.num_hyperedges == 0:
            continue
        h = Hypergraph(h.non_isolated_vertices(), h.hyperedges)
        cert = hypergraph_cover(h)
        nu, _ = max_matching(h)
        assert all(cert.cover & e for e in h.hyperedges)
        checked += 1
        cond_ii = len(h.vertices) >= 2 * h.num_hyperedges
        cond_i = 3 * nu >= h.num_hyperedges
        if cond_ii:
            condition_ii_hits += 1
        if cond_i:
            condition_i_hits += 1
        if cond_i or cond_ii:
            assert cert.size <= 2 * nu
    announce(
        8,
        "hypergraph-2-approx",
        f"{checked} instances, condition i x{condition_i_hits}, condition ii x{condition_ii_hits}",
    )


def test_criterion_9_gadget_arithmetic():
    bases = [
        complete_graph(3),
        book_graph(2),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),  # triangle-free path
    ]
    budget = OracleBudget(max_edges=40, max_nodes=GRAPH_BUDGET.max_nodes)
    deltas = {"K4": (4, 6, 1, 2), "K5": (10, 10, 2, 4)}
    checked = 0
    for g in bases:
        t0 = len(enumerate_triangles(g))
        e0 = g.num_edges
        nu0, _ = max_triangle_packing(g, budget)
        tau0, _ = min_triangle_cover(g, budget)
        for gadget, (dt, de, dnu, dtau) in deltas.items():
            for k in (1, 2):
                aug = gadget_augment(g, k, gadget)
                assert len(enumerate_triangles(aug)) == t0 + dt * k
                assert aug.num_edges == e0 + de * k
                assert max_triangle_packing(aug, budget)[0] == nu0 + dnu * k
                assert min_triangle_cover(aug, budget)[0] == tau0 + dtau * k
                checked += 1
    announce(9, "gadget-arithmetic", f"{checked} augmented instances, all four deltas exact")


def test_criterion_10_random_experiment():
    start = time.monotonic()
    spec = ExperimentSpec(n=49, p=0.95, trials=100, seed=20260809, estimator="steiner-seeded")
    result = run_experiment(spec)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert result.applicable_trials == 100
    # Empirical targets recorded for this seed, not guaranteed constants.
    assert result.fraction_packing_ge_quarter >= 0.90
    assert result.fraction_cover_le_twice >= 0.90
    announce(
        10,
        "random-experiment",
        f"packing>=|E|/4 in {result.packing_ok_count}/100, cover<=2*packing in "
        f"{result.cover_ok_count}/100, {elapsed:.1f}s",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    k4 = tmp_path / "k4.txt"
    k4.write_text("1 2\n2 3\n1 3\n1 4\n2 4\n3 4\n")
    fano = tmp_path / "fano.txt"
    fano.write_text("1 2 3\n1 4 5\n1 6 7\n2 4 6\n2 5 7\n3 4 7\n3 5 6\n")
    acyc = tmp_path / "acyclic.txt"
    acyc.write_text("a b c\nc d e\n")
    commands = [
        ["cover", str(k4), "--strategy", "best"],
        ["cover", str(k4), "--strategy", "fvs", "--explain"],
        ["cover", str(k4), "--strategy", "fes", "--explain"],
        ["cover", str(k4), "--strategy", "bipartite"],
        ["analyze", str(k4), "--oracle"],
        ["fvs", str(fano)],
        ["fes", str(fano)],
        ["solve-acyclic", str(acyc)],
        ["random-experiment", "--n", "13", "--p", "0.7", "--trials", "5", "--seed", "99",
         "--estimator", "steiner-seeded"],
        ["random-experiment", "--n", "10", "--p", "0.5", "--trials", "5", "--seed", "1"],
    ]
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # well-formed JSON
    announce(11, "determinism", f"{len(commands)} commands byte-identical on rerun")
