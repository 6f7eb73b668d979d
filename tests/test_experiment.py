import csv

import pytest

from tricover import (
    ExperimentSpec,
    TrialRecord,
    cover_via_bipartite,
    random_gnp,
    run_experiment,
    steiner_triple_system,
    write_csv,
)

from reference_packing import reference_extend_packing, reference_triangle


def reference_steiner_trial(n: int, p: float, index: int, seed: int) -> TrialRecord:
    """One steiner-seeded trial from has_edge survivors and the triple-scan
    greedy extension."""
    g = random_gnp(n, p, seed)
    alive = [
        reference_triangle(g, a, b, c)
        for a, b, c in (t.vertices for t in steiner_triple_system(n).triangles)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    ]
    packing = reference_extend_packing(g, alive)
    cover = cover_via_bipartite(g).cover
    m, k, c = g.num_edges, len(packing), len(cover)
    return TrialRecord(
        index=index,
        seed=seed,
        num_edges=m,
        steiner_survivors=len(alive),
        packing_lower=k,
        cover_size=c,
        packing_over_edges=k / m if m else None,
        cover_over_packing=c / k if k else None,
        packing_ge_quarter_edges=4 * k >= m if m else None,
        cover_le_twice_packing=c <= 2 * k if m else None,
    )


class TestSpecValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=9, p=1.5, trials=1, seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=9, p=0.5, trials=0, seed=0)

    def test_steiner_needs_compatible_n(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=8, p=0.5, trials=1, seed=0, estimator="steiner-seeded")
        ExperimentSpec(n=9, p=0.5, trials=1, seed=0, estimator="steiner-seeded")

    def test_accepts_and_runs_zero_vertices(self):
        records = run_experiment(ExperimentSpec(n=0, p=0.5, trials=2, seed=0)).records
        assert [(r.num_edges, r.packing_lower, r.cover_size) for r in records] == [(0, 0, 0)] * 2
        assert all(r.packing_over_edges is None and r.cover_le_twice_packing is None for r in records)

    def test_steiner_accepts_and_runs_three_vertices(self):
        spec = ExperimentSpec(n=3, p=1.0, trials=1, seed=0, estimator="steiner-seeded")
        (rec,) = run_experiment(spec).records
        assert (rec.num_edges, rec.steiner_survivors, rec.packing_lower) == (3, 1, 1)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=9, p=0.5, trials=1, seed=0, estimator="exact")


class TestTrials:
    def test_trial_seeds_are_base_plus_index(self):
        spec = ExperimentSpec(n=10, p=0.5, trials=4, seed=123)
        result = run_experiment(spec)
        assert [r.seed for r in result.records] == [123, 124, 125, 126]
        for r in result.records:
            assert r.num_edges == random_gnp(10, 0.5, r.seed).num_edges

    def test_steiner_survivors_lower_bound_packing(self):
        spec = ExperimentSpec(n=13, p=0.7, trials=6, seed=5, estimator="steiner-seeded")
        for r in run_experiment(spec).records:
            assert r.steiner_survivors is not None
            assert r.steiner_survivors <= r.packing_lower

    @pytest.mark.parametrize("n", [7, 9, 13, 49])
    @pytest.mark.parametrize("p, seed", [(0.3, 11), (0.7, 500), (0.95, 3)])
    def test_steiner_trials_match_reference(self, n, p, seed):
        spec = ExperimentSpec(n=n, p=p, trials=3, seed=seed, estimator="steiner-seeded")
        expected = tuple(reference_steiner_trial(n, p, i, seed + i) for i in range(3))
        assert run_experiment(spec).records == expected

    def test_greedy_records_have_no_survivor_field(self):
        spec = ExperimentSpec(n=10, p=0.6, trials=3, seed=5)
        assert all(r.steiner_survivors is None for r in run_experiment(spec).records)

    def test_full_density_survival(self):
        spec = ExperimentSpec(n=7, p=1.0, trials=1, seed=0, estimator="steiner-seeded")
        rec = run_experiment(spec).records[0]
        assert rec.num_edges == 21
        assert rec.steiner_survivors == 7 == rec.packing_lower

    def test_aggregates_recomputable_from_records(self):
        spec = ExperimentSpec(n=12, p=0.4, trials=20, seed=9)
        result = run_experiment(spec)
        applicable = [r for r in result.records if r.num_edges > 0]
        packing_ok = sum(1 for r in applicable if 4 * r.packing_lower >= r.num_edges)
        cover_ok = sum(1 for r in applicable if r.cover_size <= 2 * r.packing_lower)
        assert result.applicable_trials == len(applicable)
        assert result.packing_ok_count == packing_ok
        assert result.cover_ok_count == cover_ok
        if applicable:
            assert result.fraction_packing_ge_quarter == packing_ok / len(applicable)
            assert result.fraction_cover_le_twice == cover_ok / len(applicable)

    def test_reproducible(self):
        spec = ExperimentSpec(n=11, p=0.5, trials=5, seed=77)
        assert run_experiment(spec) == run_experiment(spec)


class TestCsv:
    def test_rows_match_records(self, tmp_path):
        spec = ExperimentSpec(n=9, p=0.6, trials=4, seed=2, estimator="steiner-seeded")
        result = run_experiment(spec)
        path = tmp_path / "records.csv"
        write_csv(result, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row, rec in zip(rows, result.records):
            assert int(row["trial"]) == rec.index
            assert int(row["edges"]) == rec.num_edges
            assert int(row["packing_lower"]) == rec.packing_lower

    def test_blank_cells_for_not_applicable(self, tmp_path):
        spec = ExperimentSpec(n=9, p=0.0, trials=2, seed=2)
        result = run_experiment(spec)
        path = tmp_path / "records.csv"
        write_csv(result, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert result.records[0].num_edges == 0
        assert rows[0]["packing_ge_quarter_edges"] == ""
        assert rows[0]["cover_le_twice_packing"] == "" and result.records[0].cover_le_twice_packing is None
        assert rows[0]["steiner_survivors"] == ""
