import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

from tricover import (
    Hypergraph,
    InvariantError,
    NotLinearError,
    NotThreeUniformError,
    complete_graph,
    components,
    feedback_vertex_set,
    fes_size_bound,
    minimal_fes,
    random_gnp,
    triangle_hypergraph,
)
import tricover.cyclebreak
from tricover.cyclebreak import _WorkingState, _feedback_vertex_set, _fes_hyperedges, _shortest_cycle, is_minimal_fes
from tricover.hypergraph import are_acyclic

import reference_fvs
from generators import (
    bridged_blocks,
    fano_plane,
    hypergraph_from_cubic,
    mixed_linear_corpus,
    random_acyclic_forest,
    random_bridged_blocks,
    random_cubic_duals,
    random_cubic_edges,
    random_graph_hypergraphs,
    random_hypertree,
    random_linear_3_uniform,
    two_regular_fixtures,
)
from reference_fvs import delete_hyperedges, delete_vertices, hypergraph_with_ids, validate_cycle


def brute_min_fvs_size(h: Hypergraph) -> int:
    for k in range(len(h.vertices) + 1):
        for combo in combinations(sorted(h.vertices), k):
            if are_acyclic(delete_vertices(h, combo).hyperedges):
                return k
    raise AssertionError


def run_optimized(code: str) -> list[str]:
    """The stdout lines of code run under python -O, with the package and
    the tests' generators importable."""
    src = os.path.dirname(os.path.dirname(tricover.cyclebreak.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return out.splitlines()


def two_core(h: Hypergraph) -> frozenset[int]:
    """Reference peel: the hyperedge ids left once every hyperedge with
    fewer than two members of degree >= 2 is deleted, repeatedly."""
    while shed := [eid for eid in h.hyperedge_ids if sum(h.degree(v) >= 2 for v in h.hyperedge(eid)) < 2]:
        h = delete_hyperedges(h, shed)
    return frozenset(h.hyperedge_ids)


def fvs_suite() -> list[Hypergraph]:
    rng = random.Random(900)
    suite = list(two_regular_fixtures())
    suite.append(bridged_blocks())
    suite += [random_linear_3_uniform(rng, rng.randint(6, 30), rng.randint(1, 25)) for _ in range(80)]
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
        assert are_acyclic(residual.hyperedges)

    def test_fano_size_at_most_two_and_brute_force_agrees(self):
        f = fano_plane()
        res = feedback_vertex_set(f)
        assert len(res.removed_vertices) <= 2
        assert are_acyclic(delete_vertices(f, res.removed_vertices).hyperedges)
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
            assert are_acyclic(delete_vertices(h, res.removed_vertices).hyperedges)

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
            assert are_acyclic(delete_vertices(h, res.removed_vertices).hyperedges)


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
            _, edges_on = reference_fvs.on_cycle_elements(h)
            assert on_cycle(h)[1] == edges_on
            assert are_acyclic(h.hyperedges) == (not edges_on)

    def test_on_cycle_elements_non_uniform(self):
        # Pendant pairs and singletons hang off a cycle of mixed arity.
        h = Hypergraph(range(8), [(0, 1), (1, 2, 3), (0, 3), (3, 4), (5,), (6, 7, 0), ()])
        assert reference_fvs.on_cycle_elements(h) == (frozenset({0, 1, 2, 3}), frozenset({0, 1, 2}))
        assert on_cycle(h)[1] == {0, 1, 2}


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
            "random_linear": lambda: mixed_linear_corpus(seed=94, count=180, max_hyperedges=60),
            "bridged_blocks": lambda: [random_bridged_blocks(rng, rng.randint(3, 9)) for _ in range(60)],
        }
        steps = 0
        for h in suites[corpus]():
            dropped.clear()
            res = feedback_vertex_set(h)
            for _, (p, e1, e2, e3, v3) in (s for s in res.trace if s[0] == "take_vertex_past_pendant_edge"):
                # Taking v3 drops e2 and e3 together, and a later rule-2 step
                # drops e1; each hyperedge is dropped once.
                i = min(dropped.index(e2), dropped.index(e3))
                assert set(dropped[i : i + 2]) == {e2, e3}
                assert dropped.index(e1) > i + 1 and ("drop_off_cycle_hyperedge", (e1,)) in res.trace
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
        # With rule 2 stubbed out, the peel and the sweeps alike, rule 4
        # meets a pendant hyperedge on no cycle: b has no other hyperedge,
        # or e2 has no second member of degree 2. -O strips asserts, so both
        # checks must raise explicitly.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from tricover import Hypergraph, InvariantError\n"
            "init = cb._WorkingState.__init__\n"
            "def unpeeled(state, h):\n"
            "    init(state, h)\n"
            "    state._peeled = set()\n"
            "cb._WorkingState.__init__ = unpeeled\n"
            "cb._WorkingState.off_cycle = lambda state: []\n"
            "for edges in ([(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(0, 1, 2), (2, 3, 4), (5, 6, 7)]):\n"
            "    try:\n"
            "        cb.feedback_vertex_set(Hypergraph(range(9), edges))\n"
            "    except InvariantError as ex:\n"
            "        print(sys.flags.optimize, ex)\n"
        )
        assert run_optimized(code) == [
            "1 vertex 2 of on-cycle hyperedge 0 has no single other hyperedge",
            "1 hyperedge 1 survived rule 2 but only 2 has degree 2",
        ]


class TestTraceReplay:
    """Every hyperedge leaves with a taken vertex or in one
    drop_off_cycle_hyperedge step, so the trace replays on the input alone."""

    # Where each take step lists its taken vertices.
    TAKEN = {
        "take_high_degree_vertex": slice(0, None),
        "take_vertex_past_pendant_edge": slice(4, None),
        "break_cycle_len_0_mod_3": slice(1, None),
        "break_cycle_len_1_mod_3": slice(1, None),
        "break_cycle_len_4_paired_detours": slice(1, None),
        "break_cycle_len_2_mod_3": slice(1, None),
    }

    def test_replay_takes_the_removed_vertices_and_ends_empty(self):
        # fvs_suite starts with the 2-regular fixtures.
        corpus = fvs_suite() + pendant_cycles() + mixed_linear_corpus(seed=94, count=120, max_hyperedges=60)
        drops = 0
        for h in corpus:
            res = feedback_vertex_set(h)
            assert res.trace[-1] == ("base", ())
            cur, taken = h, []
            for rule, ids in res.trace[:-1]:
                if rule == "drop_off_cycle_hyperedge":
                    (eid,) = ids
                    assert eid in cur.hyperedge_ids
                    assert eid not in reference_fvs.on_cycle_elements(cur)[1]
                    cur = delete_hyperedges(cur, ids)
                    drops += 1
                else:
                    take = ids[self.TAKEN[rule]]
                    assert take and set(take) <= cur.non_isolated_vertices()
                    taken += take
                    cur = delete_vertices(cur, take)
            assert len(taken) == len(set(taken)) and set(taken) == res.removed_vertices
            assert cur.num_hyperedges == 0
        assert drops >= 1000


def on_cycle(h: Hypergraph) -> tuple[frozenset[int], frozenset[int]]:
    """(vertices, hyperedge ids) on a cycle of h, by the package's one
    cycle-membership search: the live keys of a fresh _WorkingState after
    one off_cycle, and the members of those hyperedges."""
    state = _WorkingState(h)
    state.off_cycle()
    return frozenset(v for e in state.live for v in h.hyperedge(e)), frozenset(state.live)


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

    @staticmethod
    def check_counts(state: _WorkingState) -> None:
        """degree counts each vertex's surviving hyperedges, and alive lists
        their ids, ascending, read off the input's own incidence map."""
        assert state.degree == Counter(v for e in state.edges.values() for v in e)
        for v in state.degree:
            assert state.alive(v) == sorted(eid for eid, e in state.edges.items() if v in e)

    @classmethod
    def drive(cls, h: Hypergraph, rng: random.Random) -> int:
        state = _WorkingState(h)
        assert state.incident is h._incident
        reported: set[int] = set()
        valid: set[tuple[int, ...]] = set()
        steps = 0
        while state.edges:
            reported.update(state.off_cycle())
            cls.check_counts(state)
            current = hypergraph_with_ids(frozenset(state.degree), state.edges)
            verts_on, edges_on = reference_fvs.on_cycle_elements(current)
            assert state.live.keys() == edges_on
            # The 2-core peel takes off only hyperedges on no cycle.
            assert state._peeled.isdisjoint(edges_on)
            assert {v for e in state.live.keys() for v in state.edges[e]} == verts_on
            # Every off-cycle hyperedge left was reported off once, and no
            # reported one came back on a cycle.
            assert reported & state.edges.keys() == state.edges.keys() - edges_on
            cls.check_cycles(state, valid)
            for _ in range(rng.randint(1, 3)):
                if not state.edges:
                    break
                if rng.random() < 0.4:
                    state.drop_vertex(rng.choice(sorted(state.degree)))
                else:
                    state.drop_edge(rng.choice(sorted(state.edges)))
                cls.check_counts(state)
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

    def test_no_search_while_rule_3_applies(self, monkeypatch):
        # Rule 3 reads no cycle, so FVS takes every vertex of degree >= 3
        # before its first search.
        calls: list[int] = []
        certify = _WorkingState._certify

        def spy(state: _WorkingState, eid: int) -> bool:
            assert max(state.degree.values()) <= 2
            calls.append(eid)
            return certify(state, eid)

        monkeypatch.setattr(_WorkingState, "_certify", spy)
        rng = random.Random("certificates/degree")
        suite = mixed_linear_corpus(seed=97, count=440, max_hyperedges=60) + [
            triangle_hypergraph(random_gnp(rng.randint(8, 20), 0.95, rng.randrange(1 << 30))) for _ in range(10)
        ]
        for h in suite:
            _feedback_vertex_set(h)
        assert len(calls) >= 500

    def test_first_sweep_after_rule_3_searches_only_the_2_core(self, monkeypatch):
        # Once rule 3 has taken a vertex, FVS peels again, so its first
        # sweep searches no hyperedge outside the 2-core that rule 3 left.
        sweeps: list[tuple[frozenset[int], list[int]]] = []  # per off_cycle: (2-core then, searched)
        certify, off_cycle = _WorkingState._certify, _WorkingState.off_cycle

        def recording_off_cycle(state: _WorkingState) -> list[int]:
            core = two_core(hypergraph_with_ids(frozenset(state.degree), state.edges)) if not sweeps else None
            sweeps.append((core, []))
            return off_cycle(state)

        monkeypatch.setattr(_WorkingState, "off_cycle", recording_off_cycle)
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: sweeps[-1][1].append(eid) or certify(state, eid))
        rng = random.Random("certificates/second-peel")
        suite = (
            mixed_linear_corpus(seed=98, count=160, max_hyperedges=60)
            + fvs_suite()
            + random_cubic_duals(seed=98, count=20)
            + [
                triangle_hypergraph(random_gnp(rng.randint(6, 14), rng.uniform(0.3, 0.8), rng.randrange(1 << 30)))
                for _ in range(40)
            ]
        )
        checked = 0
        for h in suite:
            sweeps.clear()
            res = _feedback_vertex_set(h)
            if sweeps and any(name == "take_high_degree_vertex" for name, _ in res.trace):
                core, searched = sweeps[0]
                assert core.issuperset(searched)
                checked += len(searched)
        assert checked >= 100

    def test_search_count_is_pinned(self, monkeypatch):
        # The count is host-independent, like the oracle's node counts. It
        # is 1,153 when FVS does not peel again after rule 3.
        calls: list[int] = []
        certify = _WorkingState._certify
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: calls.append(eid) or certify(state, eid))
        for h in mixed_linear_corpus(seed=97, count=120, max_hyperedges=60):
            _feedback_vertex_set(h)
        assert len(calls) == 182

    def test_cubic_dual_search_counts_are_pinned(self, monkeypatch):
        # A large 2-regular input, where rule 4 fires once per three
        # hyperedges and FVS time grows fastest with m: the counts of
        # cycle-membership searches and shortest-cycle searches, so that
        # work saved there shows up as a count, whatever the host.
        certified: list[int] = []
        shortest: list[int] = []
        certify, shortest_cycle = _WorkingState._certify, tricover.cyclebreak._shortest_cycle
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: certified.append(eid) or certify(state, eid))
        monkeypatch.setattr(
            tricover.cyclebreak,
            "_shortest_cycle",
            lambda edges, incident: shortest.append(len(edges)) or shortest_cycle(edges, incident),
        )
        _feedback_vertex_set(hypergraph_from_cubic(1000, random_cubic_edges(random.Random(1), 1000)))
        assert (len(certified), len(shortest)) == (1163, 1)

    @pytest.mark.parametrize("n", [16, 20])
    def test_dense_fvs_makes_no_search(self, monkeypatch, n):
        # The high-degree takes leave nothing of G(n, 0.95)'s triangle
        # hypergraph on a cycle.
        calls: list[int] = []
        certify = _WorkingState._certify
        monkeypatch.setattr(_WorkingState, "_certify", lambda state, eid: calls.append(eid) or certify(state, eid))
        for seed in range(5):
            _feedback_vertex_set(triangle_hypergraph(random_gnp(n, 0.95, seed)))
        assert calls == []

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
        # cycle and FVS takes nothing, so only an output check stops the
        # cyclic residual. -O strips asserts, so this shows neither check
        # rests on one. feedback_vertex_set checks its own result; the fvs
        # route leaves that to its exact solve of the remainder, and must
        # raise InvariantError there, not report the cycle as bad input.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from generators import fano_plane\n"
            "from tricover import InvariantError, complete_graph, cover_via_fvs\n"
            "cb._WorkingState._certify = lambda state, eid: False\n"
            "for run in (lambda: cb.feedback_vertex_set(fano_plane()), lambda: cover_via_fvs(complete_graph(6))):\n"
            "    try:\n"
            "        run()\n"
            "    except InvariantError as ex:\n"
            "        print(sys.flags.optimize, ex)\n"
        )
        assert run_optimized(code) == ["1 the removed vertices leave a cycle", "1 the fvs route's remainder has a cycle"]

    def test_size_check_raises_under_optimize(self):
        # When a take drops only the least hyperedge of its vertex, a take
        # kills one hyperedge, not three, and FVS takes more than floor(m/3)
        # vertices. Deleting them from the input leaves it acyclic, so only
        # the size check stops the result, explicitly, as -O strips asserts;
        # the fvs route must fail there too.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from generators import fano_plane\n"
            "from tricover import InvariantError, complete_graph, cover_via_fvs\n"
            "cb._WorkingState.drop_vertex = lambda state, v: state.drop_edge(min(state.alive(v)))\n"
            "for run in (lambda: cb.feedback_vertex_set(fano_plane()), lambda: cover_via_fvs(complete_graph(5))):\n"
            "    try:\n"
            "        run()\n"
            "    except InvariantError as ex:\n"
            "        print(sys.flags.optimize, ex)\n"
        )
        assert run_optimized(code) == [
            "1 5 removed vertices exceed floor(m/3) = 2",
            "1 7 removed vertices exceed floor(m/3) = 3",
        ]

    def test_detour_on_the_cycle_raises_under_optimize(self):
        # K4's triangle hypergraph is 2-regular. With _shortest_cycle stubbed
        # to return its 4-cycle through triangles 0, 1, 3, 2, which is not
        # shortest, the first third vertex, edge 3, has its detour on the
        # cycle: edge 3 lies in triangles 0 and 3. -O strips asserts, so the
        # check must raise explicitly.
        code = (
            "import sys\n"
            "import tricover.cyclebreak as cb\n"
            "from tricover import InvariantError, complete_graph, triangle_hypergraph\n"
            "cb._shortest_cycle = lambda edges, incident: ((1, 0, 4, 5), (0, 1, 3, 2))\n"
            "try:\n"
            "    cb.feedback_vertex_set(triangle_hypergraph(complete_graph(4)))\n"
            "except InvariantError as ex:\n"
            "    print(sys.flags.optimize, ex)\n"
        )
        assert run_optimized(code) == ["1 vertex 3 of the 2-regular hypergraph has no single detour off the cycle"]


def brute_min_cycle_length(h: Hypergraph) -> int | None:
    """Exhaustive DFS over alternating vertex/hyperedge sequences (k >= 2).

    Independent of the incidence-graph machinery under test.
    """
    best: int | None = None
    edge_map = dict(zip(h.hyperedge_ids, h.hyperedges))

    def dfs(start: int, cur: int, used_edges: list[int], spine: list[int]) -> None:
        nonlocal best
        if best is not None and len(used_edges) >= best:
            return
        for eid, e in edge_map.items():
            if eid in used_edges or cur not in e:
                continue
            if start in e and len(spine) >= 2:
                length = len(used_edges) + 1
                if best is None or length < best:
                    best = length
            for w in e:
                if w != cur and w not in spine:
                    spine.append(w)
                    used_edges.append(eid)
                    dfs(start, w, used_edges, spine)
                    used_edges.pop()
                    spine.pop()

    for v in sorted(h.non_isolated_vertices()):
        dfs(v, v, [], [v])
    return best


def core_cycle(h: Hypergraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The package's cycle search, run on h's own mappings."""
    return _shortest_cycle(h._edges, h._incident)


def assert_no_cycle(h: Hypergraph) -> None:
    """The reference finds no cycle, and the core, which assumes one,
    reports its absence as a bug."""
    assert reference_fvs.shortest_cycle(h) is None
    with pytest.raises(InvariantError):
        core_cycle(h)


class TestCycleSearch:
    def test_acyclic_has_no_cycles_anywhere(self):
        rng = random.Random(4)
        for _ in range(20):
            h = random_acyclic_forest(rng, rng.randint(1, 8))
            assert are_acyclic(h.hyperedges)
            assert_no_cycle(h)
            assert on_cycle(h) == (frozenset(), frozenset())

    def test_fano_cycles_have_length_three(self):
        f = fano_plane()
        c = core_cycle(f)
        assert len(c[1]) == 3
        validate_cycle(f, c)
        assert on_cycle(f) == (f.vertices, frozenset(f.hyperedge_ids))

    def test_k4_hypergraph_every_vertex_on_short_cycle(self):
        h = triangle_hypergraph(complete_graph(4))
        assert on_cycle(h)[0] == h.vertices
        for v in sorted(h.vertices):
            # Any three of K4's four triangles form a 3-cycle; drop one
            # that misses v.
            away = next(e for e in h.hyperedge_ids if v not in h.hyperedge(e))
            sub = delete_hyperedges(h, [away])
            cyc = core_cycle(sub)
            assert len(cyc[1]) == 3
            validate_cycle(sub, cyc)
            covered = set().union(*(h.hyperedge(e) for e in cyc[1]))
            assert v in covered

    def test_vertex_containment_is_subhypergraph_membership(self):
        # 0-1-2 spine cycle; 6, 7, 8 are detour vertices on no spine but
        # inside cycle hyperedges; 3, 4, 5 hang off on a pendant hyperedge.
        h = Hypergraph(range(9), [(0, 1, 6), (1, 2, 7), (0, 2, 8), (2, 3, 4)])
        verts_on, edges_on = on_cycle(h)
        assert edges_on == frozenset({0, 1, 2})
        assert verts_on == frozenset({0, 1, 2, 6, 7, 8})
        _, es = core_cycle(h)
        covered = set().union(*(h.hyperedge(e) for e in es))
        assert 6 in covered and 3 not in covered

    def test_non_linear_two_cycles_still_detected_by_are_acyclic(self):
        h = Hypergraph(range(4), [(0, 1, 2), (0, 1, 3)])
        assert not are_acyclic(h.hyperedges)

    def test_shortest_cycle_matches_brute_force(self):
        rng = random.Random(2024)
        checked_cyclic = 0
        for _ in range(80):
            h = random_linear_3_uniform(rng, rng.randint(5, 12), rng.randint(2, 12))
            if h.num_hyperedges > 12:
                continue
            brute = brute_min_cycle_length(h)
            assert are_acyclic(h.hyperedges) == (brute is None)
            if brute is None:
                assert_no_cycle(h)
            else:
                checked_cyclic += 1
                cyc = core_cycle(h)
                assert len(cyc[1]) == brute
                assert len(cyc[1]) >= 3
                validate_cycle(h, cyc)
        assert checked_cyclic >= 10

    def test_two_regular_fixtures_girths(self):
        girths = [len(core_cycle(h)[1]) for h in two_regular_fixtures()]
        assert girths == [3, 4, 4, 4, 5]

    def test_shortest_cycle_deterministic_tie_break(self):
        h = triangle_hypergraph(complete_graph(5))
        c1 = core_cycle(h)
        c2 = core_cycle(h)
        assert c1 == c2
        # Least sorted hyperedge-id set comes first, spine starts at its
        # least vertex.
        assert c1[0][0] == min(c1[0])

    def test_shortest_cycle_is_exact_minimum_under_key(self):
        def all_cycles(h):
            out = set()
            edge_map = dict(zip(h.hyperedge_ids, h.hyperedges))

            def dfs(start, cur, used, spine):
                for eid, e in edge_map.items():
                    if eid in used or cur not in e:
                        continue
                    if start in e and len(spine) >= 2:
                        out.add(reference_fvs._canonical(spine, used + [eid]))
                    for w in e:
                        if w != cur and w not in spine:
                            dfs(start, w, used + [eid], spine + [w])

            for v in sorted(h.non_isolated_vertices()):
                dfs(v, v, [], [v])
            return out

        rng = random.Random(777)
        checked = 0
        for _ in range(60):
            h = random_linear_3_uniform(rng, rng.randint(5, 11), rng.randint(2, 7))
            if h.num_hyperedges > 7:
                continue
            cycles = all_cycles(h)
            if not cycles:
                assert_no_cycle(h)
                continue
            assert core_cycle(h) == min(cycles, key=reference_fvs._cycle_key)
            checked += 1
        assert checked >= 15


class TestCycleSearchAgainstReference:
    """The cycle search must return exactly the cycle of the reference's
    BFS-over-encoded-adjacency search."""

    @staticmethod
    def assert_same(hypergraphs):
        searched = 0
        for h in hypergraphs:
            # The cores get every key and value in descending id order, so
            # their answers must not depend on the order of the mappings.
            edges = {e: sorted(h.hyperedge(e), reverse=True) for e in reversed(h.hyperedge_ids)}
            incident = {v: h.incident(v)[::-1] for v in sorted(h.non_isolated_vertices(), reverse=True)}
            expected = reference_fvs.shortest_cycle(h)
            if expected is None:
                # The core assumes a cycle and reports its absence as a bug.
                with pytest.raises(InvariantError):
                    _shortest_cycle(edges, incident)
            else:
                assert _shortest_cycle(edges, incident) == expected
            searched += h.num_hyperedges
        assert searched > 0

    def test_cubic_duals(self):
        self.assert_same(
            two_regular_fixtures() + random_cubic_duals(seed=91, count=80, sizes=(4, 8, 12, 16, 20, 24, 30))
        )

    def test_mixed_linear(self):
        self.assert_same(mixed_linear_corpus(seed=92, count=150, max_hyperedges=40))

    def test_triangle_hypergraphs_of_gnp(self):
        self.assert_same(random_graph_hypergraphs(seed=93, count=60))

    def test_random_linear_20_to_60_vertices(self):
        rng = random.Random(94)
        sizes = [rng.randint(20, 60) for _ in range(100)]
        self.assert_same(random_linear_3_uniform(rng, nv, rng.randint(nv // 3, nv)) for nv in sizes)

    def test_long_girth(self):
        # One hyperedge cycle of length k with a pendant third vertex per
        # hyperedge, spine labels shuffled: the girth is k.
        rng = random.Random(95)
        necklaces = []
        for k in range(3, 16):
            vs = rng.sample(range(k), k)
            necklaces.append(Hypergraph(range(2 * k), [(vs[i], vs[(i + 1) % k], k + i) for i in range(k)]))
        self.assert_same(necklaces)
        assert [len(core_cycle(h)[1]) for h in necklaces] == list(range(3, 16))


class TestCycleCanonicalForm:
    @staticmethod
    def shuffled_necklace(rng: random.Random, k: int) -> Hypergraph:
        """One hyperedge cycle of length k, a pendant vertex per hyperedge,
        with vertex labels and hyperedge ids both shuffled."""
        label = rng.sample(range(2 * k), 2 * k)
        hyperedges = [(label[i], label[(i + 1) % k], label[k + i]) for i in range(k)]
        rng.shuffle(hyperedges)
        return Hypergraph(range(2 * k), hyperedges)

    def test_search_answers_are_canonical(self):
        # The search keeps the least orientation it finds and runs no
        # canonicalisation pass; the reference's own canonical form of each
        # answer must be the answer itself.
        rng = random.Random(96)
        corpus = [
            *two_regular_fixtures(),
            *random_cubic_duals(seed=97, count=40, sizes=(4, 8, 12, 16, 20)),
            *(random_linear_3_uniform(rng, nv, rng.randint(nv // 3, nv)) for nv in range(8, 48)),
            *(self.shuffled_necklace(rng, k) for k in range(3, 25)),
        ]
        checked = 0
        for h in corpus:
            if are_acyclic(h.hyperedges):
                continue
            # Descending mappings: the answer must not depend on their order.
            edges = {e: sorted(h.hyperedge(e), reverse=True) for e in reversed(h.hyperedge_ids)}
            incident = {v: h.incident(v)[::-1] for v in sorted(h.non_isolated_vertices(), reverse=True)}
            for c in (core_cycle(h), _shortest_cycle(edges, incident)):
                assert reference_fvs._canonical(*c) == c
                validate_cycle(h, c)
                checked += 1
        assert checked >= 2 * 100

    def test_validate_cycle_rejects_bad_incidence(self):
        h = Hypergraph(range(4), [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(ValueError):
            validate_cycle(h, ((0, 3), (0, 1)))


class TestPinnedAnswers:
    """FVS answers on fixed generated corpora, pinned by one digest: a change
    that keeps every answer keeps it, and one that changes an answer must
    regenerate it and say so. Print the current value with
    PYTHONPATH=src python tests/test_cyclebreak.py."""

    # sha256 over repr((sorted removed vertices, trace)) of every instance.
    FVS_DIGEST = "0c8aa55f7be5ad47322b4e3120c226d45986ea93660e2291c5576966925cdc77"

    @staticmethod
    def corpus() -> list[Hypergraph]:
        return (
            fvs_suite()
            + two_regular_fixtures()
            + random_cubic_duals(seed=95, count=40)
            + mixed_linear_corpus(seed=96, count=200, max_hyperedges=80)
            + [
                triangle_hypergraph(random_gnp(n, p, seed))
                for n in (8, 12, 16, 20)
                for p in (0.3, 0.6, 0.95)
                for seed in range(3)
            ]
        )

    @classmethod
    def digest(cls) -> str:
        digest = hashlib.sha256()
        for h in cls.corpus():
            res = _feedback_vertex_set(h)
            digest.update(repr((sorted(res.removed_vertices), res.trace)).encode())
        return digest.hexdigest()

    def test_fvs_answers_match_the_pinned_digest(self):
        assert self.digest() == self.FVS_DIGEST


class TestArbitraryIds:
    """The cycle search marks vertices and hyperedges by id, whatever the
    ids are. Relabelled input must give the answers of its ascending
    renumbering to 0..n-1, relabelled."""

    # Each relabelling is increasing, so every order FVS reads is kept; each
    # puts one kind of id outside 0..n-1.
    RELABEL = {
        "negative_vertices": (lambda v, n: v - n, lambda e, m: e),
        "sparse_vertices": (lambda v, n: 5 * v + 4, lambda e, m: e),
        # Marks sized by the largest id would need 2**40 slots.
        "huge_vertex": (lambda v, n: v if v < n - 1 else 2**40, lambda e, m: e),
        "sparse_hyperedges": (lambda v, n: v, lambda e, m: 5 * e + 4),
    }

    @staticmethod
    def map_trace(trace, vmap, emap):
        """The trace with its vertex and hyperedge ids relabelled; a
        break_cycle step starts with the cycle length."""
        maps = {"v": vmap.__getitem__, "e": emap.__getitem__, "k": int}
        out = []
        for name, ids in trace:
            if name == "drop_off_cycle_hyperedge":
                kinds = "e"
            elif name == "take_vertex_past_pendant_edge":
                kinds = "veeev"
            elif name.startswith("break_cycle"):
                kinds = "k" + "v" * (len(ids) - 1)
            else:
                kinds = "v" * len(ids)
            out.append((name, tuple(maps[k](x) for k, x in zip(kinds, ids))))
        return tuple(out)

    @pytest.mark.parametrize("relabel", sorted(RELABEL))
    def test_relabelled_input_gives_the_answers_of_the_renumbering(self, relabel):
        rng = random.Random(f"marks/{relabel}")
        suite = [fano_plane(), *random_cubic_duals(seed=95, count=20), *mixed_linear_corpus(seed=96, count=40)]
        # Bridged blocks have off-cycle hyperedges whose members all lie on cycles.
        suite += [bridged_blocks(), *(random_bridged_blocks(rng, rng.randint(3, 9)) for _ in range(10))]
        suite += [
            triangle_hypergraph(random_gnp(rng.randint(6, 13), rng.uniform(0.3, 0.95), rng.randrange(1 << 30)))
            for _ in range(20)
        ]
        vrel, erel = self.RELABEL[relabel]
        rules: set[str] = set()
        for h in suite:
            # The ascending renumbering, with hyperedge ids 0..m-1.
            rank = {v: i for i, v in enumerate(sorted(h.vertices))}
            plain = Hypergraph(range(len(rank)), [[rank[v] for v in e] for e in h.hyperedges])
            n, m = len(rank), plain.num_hyperedges
            vmap = {v: vrel(v, n) for v in plain.vertices}
            emap = {e: erel(e, m) for e in plain.hyperedge_ids}
            moved = hypergraph_with_ids(
                frozenset(vmap.values()),
                {emap[eid]: frozenset(vmap[v] for v in e) for eid, e in zip(plain.hyperedge_ids, plain.hyperedges)},
            )
            res, expected = feedback_vertex_set(moved), feedback_vertex_set(plain)
            assert res.removed_vertices == {vmap[v] for v in expected.removed_vertices}
            assert res.trace == self.map_trace(expected.trace, vmap, emap)
            assert on_cycle(moved)[1] == {emap[e] for e in on_cycle(plain)[1]}
            rules.update(name for name, _ in res.trace)
        # Rules 2 to 5 all ran on the relabelled input.
        assert rules >= {
            "drop_off_cycle_hyperedge",
            "take_high_degree_vertex",
            "take_vertex_past_pendant_edge",
        } and any(name.startswith("break_cycle") for name in rules)


class TestMinimalFes:
    def test_acyclic_gives_empty(self):
        rng = random.Random(6)
        for _ in range(10):
            h = random_acyclic_forest(rng, rng.randint(1, 10))
            assert minimal_fes(h) == frozenset()

    def test_k4_hypergraph_bound(self):
        h = triangle_hypergraph(complete_graph(4))
        fes = minimal_fes(h)
        assert len(fes) <= 2 * 4 - 6 + 1
        assert are_acyclic(delete_hyperedges(h, fes).hyperedges)

    def test_fano_minimality(self):
        f = fano_plane()
        fes = minimal_fes(f)
        assert len(fes) <= fes_size_bound(f)
        assert are_acyclic(delete_hyperedges(f, fes).hyperedges)
        for eid in fes:
            assert not are_acyclic(delete_hyperedges(f, fes - {eid}).hyperedges)

    def test_suite_acyclic_minimal_and_bounded(self):
        for h in fvs_suite():
            fes = minimal_fes(h)
            kept = delete_hyperedges(h, fes)
            assert are_acyclic(kept.hyperedges)
            for eid in fes:
                assert not are_acyclic(delete_hyperedges(h, fes - {eid}).hyperedges)
            assert len(fes) <= fes_size_bound(h)

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
            fes = minimal_fes(h)
            candidates = [fes, frozenset(), frozenset(ids), frozenset(rng.sample(ids, len(ids) // 2))]
            if len(fes) > 1:
                candidates.append(fes - {min(fes)})
            for removed in candidates:
                assert is_minimal_fes(h, removed) == by_reinsertion(h, removed)
                checked += 1
        assert checked >= 240

    def test_works_on_non_uniform_input(self):
        h = Hypergraph(range(5), [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)])
        fes = minimal_fes(h)
        assert are_acyclic(delete_hyperedges(h, fes).hyperedges)

    @staticmethod
    def mixed_arity_corpus() -> list[Hypergraph]:
        """200 random hypergraphs of arity 1 to 4, most neither linear nor uniform."""
        rng = random.Random("fes/mixed-arity")
        corpus = []
        for _ in range(200):
            n = rng.randint(1, 12)
            hyperedges = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, 15))]
            corpus.append(Hypergraph(range(n), hyperedges))
        return corpus

    def test_kept_hyperedges_lie_on_no_cycle_by_the_reference(self):
        # _Forest.link both builds the residual and decides are_acyclic, so
        # the reference bridge search checks the residual independently.
        checked = 0
        for h in fvs_suite() + self.mixed_arity_corpus():
            fes = minimal_fes(h)
            assert not reference_fvs.on_cycle_elements(delete_hyperedges(h, fes))[1]
            checked += bool(fes)
        assert checked >= 100

    def test_split_matches_minimal_fes_on_mixed_arity_input(self):
        # CLI fes accepts any arity, so the scan that the fes route uses
        # must give minimal_fes's answer there too.
        drops = 0
        for h in self.mixed_arity_corpus():
            dropped = _fes_hyperedges(h)
            removed = minimal_fes(h)
            assert removed == frozenset(dropped)
            assert list(dropped) == sorted(dropped)
            assert all(h._edges[eid] == e for eid, e in dropped.items())
            assert are_acyclic(e for eid, e in h._edges.items() if eid not in dropped)
            assert is_minimal_fes(h, removed)
            drops += len(dropped)
        assert drops >= 300


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


if __name__ == "__main__":
    print(TestPinnedAnswers.digest())
