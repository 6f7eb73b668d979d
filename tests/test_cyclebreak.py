import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

from tricover import (
    Hypergraph,
    NotLinearError,
    NotThreeUniformError,
    complete_graph,
    components,
    delete_hyperedges,
    delete_vertices,
    fano_plane,
    feedback_vertex_set,
    fes_size_bound,
    is_acyclic,
    minimal_fes,
    on_cycle_elements,
    random_gnp,
    triangle_hypergraph,
)
import tricover.cyclebreak
from tricover.cyclebreak import _WorkingState, _feedback_vertex_set, is_minimal_fes

import reference_fvs
from generators import (
    bridged_blocks,
    mixed_linear_corpus,
    random_acyclic_forest,
    random_bridged_blocks,
    random_cubic_duals,
    random_graph_hypergraphs,
    random_hypertree,
    random_linear_3_uniform,
    two_regular_fixtures,
)


def brute_min_fvs_size(h: Hypergraph) -> int:
    for k in range(len(h.vertices) + 1):
        for combo in combinations(sorted(h.vertices), k):
            if is_acyclic(delete_vertices(h, combo)):
                return k
    raise AssertionError


def fvs_suite() -> list[Hypergraph]:
    rng = random.Random(900)
    suite = list(two_regular_fixtures())
    suite.append(bridged_blocks())
    suite += [random_linear_3_uniform(rng, rng.randint(6, 30), rng.randint(1, 25)) for _ in range(60)]
    suite += random_graph_hypergraphs(seed=901, count=30)
    suite += [triangle_hypergraph(complete_graph(n)) for n in (4, 5, 6)]
    return suite


class TestFeedbackVertexSet:
    def test_at_most_two_hyperedges_gives_empty(self):
        h = Hypergraph(range(5), [(0, 1, 2), (2, 3, 4)])
        assert feedback_vertex_set(h).removed_vertices == frozenset()

    def test_k4_hypergraph_size_one(self):
        h = triangle_hypergraph(complete_graph(4))
        res = feedback_vertex_set(h)
        assert len(res.removed_vertices) == 1
        residual = delete_vertices(h, res.removed_vertices)
        assert residual.num_hyperedges == 2
        shared = set.intersection(*(set(e) for e in residual.hyperedges))
        assert len(shared) == 1
        assert is_acyclic(residual)

    def test_fano_size_at_most_two_and_brute_force_agrees(self):
        f = fano_plane()
        res = feedback_vertex_set(f)
        assert len(res.removed_vertices) <= 2
        assert is_acyclic(delete_vertices(f, res.removed_vertices))
        assert brute_min_fvs_size(f) == 2

    def test_rejects_non_three_uniform(self):
        h = Hypergraph(range(4), [(0, 1, 2, 3)])
        with pytest.raises(NotThreeUniformError, match="^not 3-uniform$"):
            feedback_vertex_set(h)

    def test_rejects_non_linear(self):
        h = Hypergraph(range(4), [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(NotLinearError, match="^not linear$"):
            feedback_vertex_set(h)

    def test_uniformity_is_checked_before_linearity(self):
        h = Hypergraph(range(5), [(0, 1, 2), (0, 1, 3, 4)])
        with pytest.raises(NotThreeUniformError, match="^not 3-uniform$"):
            feedback_vertex_set(h)

    def test_suite_bound_and_acyclic_residual(self):
        for h in fvs_suite():
            res = feedback_vertex_set(h)
            assert len(res.removed_vertices) <= h.num_hyperedges // 3
            assert is_acyclic(delete_vertices(h, res.removed_vertices))

    def test_never_below_brute_force_minimum(self):
        rng = random.Random(321)
        checked = 0
        for _ in range(40):
            h = random_linear_3_uniform(rng, rng.randint(5, 12), rng.randint(2, 9))
            if h.num_hyperedges > 10:
                continue
            res = feedback_vertex_set(h)
            assert len(res.removed_vertices) >= brute_min_fvs_size(h)
            checked += 1
        assert checked >= 20

    def test_trace_covers_every_rule(self):
        rules = set()
        for h in fvs_suite():
            rules.update(step[0] for step in feedback_vertex_set(h).trace)
        assert {
            "base",
            "drop_off_cycle_vertex",
            "drop_off_cycle_hyperedge",
            "take_high_degree_vertex",
            "take_vertex_past_pendant_edge",
            "break_cycle_len_0_mod_3",
            "break_cycle_len_1_mod_3",
            "break_cycle_len_4_paired_detours",
            "break_cycle_len_2_mod_3",
        } <= rules

    def test_trace_step_count_bounded_by_hyperedges(self):
        for h in fvs_suite():
            res = feedback_vertex_set(h)
            assert len(res.trace) <= h.num_hyperedges + 1

    def test_deterministic(self):
        for h in fvs_suite()[:10]:
            assert feedback_vertex_set(h) == feedback_vertex_set(h)

    def test_ignores_isolated_vertices(self):
        h = triangle_hypergraph(complete_graph(4))
        padded = Hypergraph(list(h.vertices) + [100, 101], h.hyperedges)
        res = feedback_vertex_set(padded)
        assert res.removed_vertices & {100, 101} == frozenset()
        assert len(res.removed_vertices) == 1

    def test_random_cubic_duals(self):
        # Duals of random 3-regular graphs are 2-regular, so the short-cycle
        # rule carries most of the work.
        for h in random_cubic_duals(seed=2718, count=120):
            res = feedback_vertex_set(h)
            assert len(res.removed_vertices) <= h.num_hyperedges // 3
            assert is_acyclic(delete_vertices(h, res.removed_vertices))


class TestAgainstReference:
    """The in-place engine must reproduce the original rebuild-every-step
    engine exactly: the removed set and every trace step."""

    @staticmethod
    def assert_same(hypergraphs):
        for h in hypergraphs:
            assert feedback_vertex_set(h) == reference_fvs.feedback_vertex_set(h)

    def test_fvs_suite(self):
        self.assert_same(fvs_suite())

    def test_random_linear(self):
        self.assert_same(mixed_linear_corpus(seed=77, count=150, max_hyperedges=60))

    def test_bridged_blocks(self):
        rng = random.Random(82)
        self.assert_same(random_bridged_blocks(rng, rng.randint(3, 9)) for _ in range(60))

    def test_triangle_hypergraphs_of_gnp(self):
        rng = random.Random(78)
        self.assert_same(
            triangle_hypergraph(random_gnp(rng.randint(6, 14), rng.uniform(0.3, 0.95), rng.randrange(1 << 30)))
            for _ in range(40)
        )

    def test_cubic_duals(self):
        self.assert_same(random_cubic_duals(seed=79, count=60, sizes=(4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 30)))

    def test_on_cycle_elements(self):
        rng = random.Random(80)
        suite = fvs_suite() + [random_linear_3_uniform(rng, rng.randint(4, 40), rng.randint(0, 30)) for _ in range(60)]
        suite += [random_acyclic_forest(rng, rng.randint(1, 10), isolated=2) for _ in range(10)]
        # Non-uniform and non-linear: hyperedges of 0 to 4 members, repeats allowed.
        for n in (rng.randint(1, 10) for _ in range(300)):
            edges = [rng.sample(range(n), rng.randint(0, min(4, n))) for _ in range(rng.randint(0, 14))]
            suite.append(Hypergraph(range(n), edges))
        for h in suite:
            reference = reference_fvs.on_cycle_elements(h)
            assert on_cycle_elements(h) == reference
            assert is_acyclic(h) == (not reference[1])

    def test_on_cycle_elements_non_uniform(self):
        # Pendant pairs and singletons hang off a cycle of mixed arity.
        h = Hypergraph(range(8), [(0, 1), (1, 2, 3), (0, 3), (3, 4), (5,), (6, 7, 0), ()])
        assert on_cycle_elements(h) == reference_fvs.on_cycle_elements(h)
        assert on_cycle_elements(h) == (frozenset({0, 1, 2, 3}), frozenset({0, 1, 2}))


def pendant_cycles() -> list[Hypergraph]:
    """Hyperedge k-cycles with one degree-1 vertex per hyperedge, alone and
    in pairs joined by a connector through two of those vertices: rule 4
    inputs."""
    out = []
    for k in range(3, 12):
        cycle = [(i, (i + 1) % k, k + i) for i in range(k)]
        out.append(Hypergraph(range(2 * k), cycle))
        twin = [tuple(v + 2 * k for v in e) for e in cycle]
        out.append(Hypergraph(range(4 * k + 1), cycle + twin + [(k, 3 * k, 4 * k)]))
    return out


class TestPendantRule:
    """Rule 4 reads its hyperedges off the degrees, with no search; each
    step must charge three distinct hyperedges to a vertex whose removal
    leaves the pendant hyperedge on no cycle."""

    @pytest.mark.parametrize("corpus", ["fvs_suite", "pendant_cycles", "random_linear", "bridged_blocks"])
    def test_every_step_takes_a_vertex_that_strands_the_pendant_hyperedge(self, monkeypatch, corpus):
        dropped: list[int] = []

        class Recording(_WorkingState):
            __slots__ = ()

            def drop_edge(self, eid: int) -> None:
                dropped.append(eid)
                super().drop_edge(eid)

        monkeypatch.setattr(tricover.cyclebreak, "_WorkingState", Recording)
        rng = random.Random(f"pendant/{corpus}")
        suites = {
            "fvs_suite": fvs_suite,
            "pendant_cycles": pendant_cycles,
            "random_linear": lambda: mixed_linear_corpus(seed=94, count=120, max_hyperedges=60),
            "bridged_blocks": lambda: [random_bridged_blocks(rng, rng.randint(3, 9)) for _ in range(60)],
        }
        steps = 0
        for h in suites[corpus]():
            dropped.clear()
            res = feedback_vertex_set(h)
            for _, (p, e1, e2, e3, v3) in (s for s in res.trace if s[0] == "take_vertex_past_pendant_edge"):
                # The step drops e1, e2, e3 in a row; each hyperedge is dropped once.
                i = dropped.index(e1)
                assert dropped[i : i + 3] == [e1, e2, e3]
                before = delete_hyperedges(h, dropped[:i])
                assert max(map(before.degree, before.non_isolated_vertices())) <= 2
                assert before.incident(p) == (e1,) and v3 in res.removed_vertices
                assert len({e1, e2, e3}) == 3
                (b,) = before.hyperedge(e1) & before.hyperedge(e2)
                assert v3 in before.hyperedge(e2) & before.hyperedge(e3)
                assert e1 in reference_fvs.on_cycle_elements(before)[1]
                # Taking v3 kills e2 and e3, and with them every cycle through e1.
                assert e1 not in reference_fvs.on_cycle_elements(delete_hyperedges(before, (e2, e3)))[1]
                steps += 1
        assert steps >= {"fvs_suite": 30, "pendant_cycles": 20, "random_linear": 60, "bridged_blocks": 100}[corpus]

    def test_off_cycle_pendant_hyperedge_raises_under_optimize(self):
        # With rule 2 stubbed out, rule 4 meets a pendant hyperedge on no
        # cycle: b has no other hyperedge, or e2 has no second member of
        # degree 2. -O strips asserts, so both checks must raise explicitly.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from tricover import Hypergraph, InvariantError\n"
            "cb._WorkingState.off_cycle = lambda state: []\n"
            "for edges in ([(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(0, 1, 2), (2, 3, 4), (5, 6, 7)]):\n"
            "    try:\n"
            "        cb.feedback_vertex_set(Hypergraph(range(9), edges))\n"
            "    except InvariantError as ex:\n"
            "        print(sys.flags.optimize, ex)\n"
        )
        src = os.path.dirname(os.path.dirname(tricover.cyclebreak.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        ).stdout
        assert out.splitlines() == [
            "1 vertex 2 of on-cycle hyperedge 0 has no single other hyperedge",
            "1 hyperedge 1 survived rule 2 but only 2 has degree 2",
        ]


class TestCycleCertificates:
    """The certificates must report exactly the bridge search's membership
    after any sequence of deletions, and FVS must check its own output."""

    @staticmethod
    def live_cycles(state: _WorkingState) -> list[list[int]]:
        """The kept cycles that no drop has killed, each once."""
        return list({id(c): c for cycles in state._through.values() for c in cycles if c}.values())

    @classmethod
    def check_cycles(cls, state: _WorkingState, valid: set[tuple[int, ...]]) -> None:
        cycles = cls.live_cycles(state)
        # Each count is the number of live kept cycles through its hyperedge.
        assert state.live == Counter(g for c in cycles for g in c)
        for c in cycles:
            assert state.edges.keys() >= set(c)
            if tuple(c) not in valid:
                # On the sub-hypergraph of its hyperedges alone, the reference
                # bridge search must put every one of them on a cycle.
                sub = Hypergraph(set().union(*(state.edges[g] for g in c)), [state.edges[g] for g in c])
                assert len(set(c)) == len(c) == len(reference_fvs.on_cycle_elements(sub)[1])
                valid.add(tuple(c))

    @classmethod
    def drive(cls, h: Hypergraph, rng: random.Random) -> int:
        state = _WorkingState(h)
        reported: set[int] = set()
        valid: set[tuple[int, ...]] = set()
        steps = 0
        while state.edges:
            reported.update(state.off_cycle())
            current = Hypergraph._from_parts(frozenset(state.incident), state.edges)
            verts_on, edges_on = reference_fvs.on_cycle_elements(current)
            assert state.certified == edges_on
            # The 2-core peel takes off only hyperedges on no cycle.
            assert state._peeled.isdisjoint(edges_on)
            assert {v for e in state.certified for v in state.edges[e]} == verts_on
            # Every off-cycle hyperedge left was reported off once, and no
            # reported one came back on a cycle.
            assert reported & state.edges.keys() == state.edges.keys() - edges_on
            cls.check_cycles(state, valid)
            for _ in range(rng.randint(1, 3)):
                if not state.edges:
                    break
                if rng.random() < 0.4:
                    state.drop_vertex(rng.choice(sorted(state.incident)))
                else:
                    state.drop_edge(rng.choice(sorted(state.edges)))
            cls.check_cycles(state, valid)
            steps += 1
        return steps

    @pytest.mark.parametrize(
        "corpus",
        ["mixed_linear", "bridged_blocks", "cubic_duals", "pendant_cycles", "gnp"],
    )
    def test_membership_matches_bridge_search_after_every_step(self, corpus):
        rng = random.Random(f"certificates/{corpus}")
        suites = {
            "mixed_linear": lambda: mixed_linear_corpus(seed=91, count=120, max_hyperedges=60),
            "bridged_blocks": lambda: [random_bridged_blocks(rng, rng.randint(3, 9)) for _ in range(40)]
            + [bridged_blocks()],
            "cubic_duals": lambda: random_cubic_duals(seed=92, count=40) + two_regular_fixtures(),
            "pendant_cycles": pendant_cycles,
            "gnp": lambda: [
                triangle_hypergraph(random_gnp(rng.randint(6, 14), rng.uniform(0.3, 0.95), rng.randrange(1 << 30)))
                for _ in range(40)
            ],
        }
        steps = sum(self.drive(h, rng) for h in suites[corpus]())
        assert steps >= 80

    def test_search_again_only_where_the_last_live_cycle_died(self, monkeypatch):
        searched: list[int] = []
        certify = _WorkingState._certify
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: searched.append(eid) or certify(state, eid))
        rng = random.Random("certificates/respared")
        spared = 0
        for h in mixed_linear_corpus(seed=93, count=60, max_hyperedges=60) + [
            triangle_hypergraph(random_gnp(rng.randint(8, 14), rng.uniform(0.5, 0.95), rng.randrange(1 << 30)))
            for _ in range(20)
        ]:
            state = _WorkingState(h)
            state.off_cycle()
            while state.edges:
                f = rng.choice(sorted(state.edges))
                cycles = self.live_cycles(state)
                hit = {g for c in cycles if f in c for g in c} - {f}
                # Left with no live cycle: every live cycle through g runs through f.
                orphaned = {g for g in hit if all(f in c for c in cycles if g in c)}
                spared += len(hit - orphaned)
                state.drop_edge(f)
                searched.clear()
                state.off_cycle()
                assert len(set(searched)) == len(searched) and orphaned >= set(searched)
                # One not searched was certified again by a cycle another search closed.
                assert state.live.keys() >= orphaned - set(searched)
        # Hyperedges on a killed cycle that another live cycle kept certified.
        assert spared >= 1000

    def test_first_call_searches_each_uncertified_hyperedge_once(self, monkeypatch):
        searched: list[tuple[int, bool]] = []
        certify = _WorkingState._certify
        monkeypatch.setattr(
            _WorkingState,
            "_certify",
            lambda state, eid: searched.append((eid, eid in state.live)) or certify(state, eid),
        )
        unsearched = 0
        for h in fvs_suite() + pendant_cycles():
            searched.clear()
            state = _WorkingState(h)
            state.off_cycle()
            ids = [eid for eid, _ in searched]
            assert len(set(ids)) == len(ids)
            # No search starts for a hyperedge an earlier search certified.
            assert not any(was_certified for _, was_certified in searched)
            # The 2-core peel's hyperedges are neither searched nor certified.
            assert state._peeled.isdisjoint(ids) and state._peeled.isdisjoint(state.live)
            skipped = state.edges.keys() - set(ids) - state._peeled
            assert state.live.keys() >= skipped
            unsearched += len(skipped)
        # Hyperedges certified by a cycle another search closed.
        assert unsearched >= 500

    def test_acyclic_input_is_peeled_without_a_search(self, monkeypatch):
        searched: list[int] = []
        certify = _WorkingState._certify
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: searched.append(eid) or certify(state, eid))
        rng = random.Random("certificates/peel")
        for m in (1, 2, 3, 10, 100, 500, 2000):
            for h in (random_hypertree(rng, m), random_acyclic_forest(rng, m, isolated=3)):
                assert not _feedback_vertex_set(h).removed_vertices
                assert searched == []

    def test_output_check_raises_under_optimize(self):
        # With every search failing, rule 2 strips hyperedges that lie on a
        # cycle and FVS takes nothing, so only the output check stops the
        # cyclic residual. -O strips asserts, so this shows the check does
        # not rest on one; the fvs route must fail there too, before
        # solve_acyclic reports the residual as bad input.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from tricover import InvariantError, complete_graph, cover_via_fvs, fano_plane\n"
            "cb._WorkingState._certify = lambda state, eid: False\n"
            "for run in (lambda: cb.feedback_vertex_set(fano_plane()), lambda: cover_via_fvs(complete_graph(6))):\n"
            "    try:\n"
            "        run()\n"
            "    except InvariantError as ex:\n"
            "        print(sys.flags.optimize, ex)\n"
        )
        src = os.path.dirname(os.path.dirname(tricover.cyclebreak.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        ).stdout
        assert out.splitlines() == ["1 the removed vertices leave a cycle"] * 2


class TestMinimalFes:
    def test_acyclic_gives_empty(self):
        rng = random.Random(6)
        for _ in range(10):
            h = random_acyclic_forest(rng, rng.randint(1, 10))
            assert minimal_fes(h).removed_hyperedges == frozenset()

    def test_k4_hypergraph_bound(self):
        h = triangle_hypergraph(complete_graph(4))
        res = minimal_fes(h)
        assert len(res.removed_hyperedges) <= 2 * 4 - 6 + 1
        assert is_acyclic(delete_hyperedges(h, res.removed_hyperedges))

    def test_fano_minimality(self):
        f = fano_plane()
        res = minimal_fes(f)
        assert len(res.removed_hyperedges) <= fes_size_bound(f)
        assert is_acyclic(delete_hyperedges(f, res.removed_hyperedges))
        for eid in res.removed_hyperedges:
            assert not is_acyclic(delete_hyperedges(f, res.removed_hyperedges - {eid}))

    def test_suite_acyclic_minimal_and_bounded(self):
        for h in fvs_suite():
            res = minimal_fes(h)
            kept = delete_hyperedges(h, res.removed_hyperedges)
            assert is_acyclic(kept)
            for eid in res.removed_hyperedges:
                assert not is_acyclic(delete_hyperedges(h, res.removed_hyperedges - {eid}))
            assert len(res.removed_hyperedges) <= fes_size_bound(h)

    def test_is_minimal_fes_matches_reinsertion(self):
        def by_reinsertion(h, removed):
            # Acyclicity through the reference bridge search, not the union-find under test.
            return all(
                reference_fvs.on_cycle_elements(delete_hyperedges(h, frozenset(removed) - {f}))[1] for f in removed
            )

        rng = random.Random(81)
        checked = 0
        for h in fvs_suite()[:60]:
            ids = h.hyperedge_ids
            fes = minimal_fes(h).removed_hyperedges
            candidates = [fes, frozenset(), frozenset(ids), frozenset(rng.sample(ids, len(ids) // 2))]
            if len(fes) > 1:
                candidates.append(fes - {min(fes)})
            for removed in candidates:
                assert is_minimal_fes(h, removed) == by_reinsertion(h, removed)
                checked += 1
        assert checked >= 240

    def test_works_on_non_uniform_input(self):
        h = Hypergraph(range(5), [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)])
        res = minimal_fes(h)
        assert is_acyclic(delete_hyperedges(h, res.removed_hyperedges))


class TestStructuralCounts:
    def test_connected_acyclic_vertex_count(self):
        rng = random.Random(88)
        for _ in range(40):
            h = random_acyclic_forest(rng, rng.randint(1, 12))
            for comp in components(h):
                if comp.hyperedge_ids:
                    assert len(comp.vertices) == 2 * len(comp.hyperedge_ids) + 1

    def test_fes_bound_formula_on_fano(self):
        assert fes_size_bound(fano_plane()) == 2 * 7 - 7 + 1

    @pytest.mark.parametrize(
        "h", [Hypergraph(range(4), [(0, 1, 2, 3)]), Hypergraph(range(4), [(0, 1, 2), (0, 1, 3)])], ids=["non-uniform", "non-linear"]
    )
    def test_fes_bound_is_none_off_its_domain(self, h):
        assert fes_size_bound(h) is None
