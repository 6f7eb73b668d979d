import json

import pytest

import tricover.cli
from tricover import (
    GraphFormatError,
    InvariantError,
    NotLinearError,
    NotThreeUniformError,
    TricoverError,
    feedback_vertex_set,
    parse_graph,
    parse_hypergraph,
)
from tricover.cli import main

K4_TEXT = "1 2\n2 3\n1 3\n1 4\n2 4\n3 4\n"
FANO_TEXT = "1 2 3\n1 4 5\n1 6 7\n2 4 6\n2 5 7\n3 4 7\n3 5 6\n"
BOOK_TEXT = "a b\na c\nb c\na d\nb d\na e\nb e\n"


class TestGraphParsing:
    def test_parse_k3(self):
        g, labels = parse_graph("1 2\n2 3\n1 3\n")
        assert g.n == 3 and g.num_edges == 3
        assert labels == ["1", "2", "3"]

    def test_comments_and_blank_lines(self):
        g, labels = parse_graph("# comment\n\n1 2\n")
        assert g.num_edges == 1
        assert labels == ["1", "2"]

    def test_trailing_comment(self):
        g, _ = parse_graph("1 2  # pendant\n")
        assert g.num_edges == 1

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
            parse_graph("1 1\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_graph("1 2\n2 3\n2 1\n")

    def test_wrong_arity_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*expected 2 labels"):
            parse_graph("1 2\na b c d\n")

    def test_labels_in_first_occurrence_order(self):
        g, labels = parse_graph("x y\nz x\n")
        assert labels == ["x", "y", "z"]
        assert g.has_edge(0, 2)

    def test_parsed_k4_structure(self):
        g, labels = parse_graph(K4_TEXT)
        assert labels == ["1", "2", "3", "4"]
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestHypergraphParsing:
    def test_parse_fano(self):
        h, labels = parse_hypergraph(FANO_TEXT)
        assert len(h.vertices) == 7 and h.num_hyperedges == 7
        assert labels[0] == "1"

    def test_mixed_arity_allowed(self):
        h, _ = parse_hypergraph("a b\nb c d e\n")
        assert h.num_hyperedges == 2

    def test_single_label_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1.*at least 2"):
            parse_hypergraph("a\n")

    def test_repeated_label_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*repeated"):
            parse_hypergraph("a b c\na a b\n")

    def test_parsed_fano_structure(self):
        h, labels = parse_hypergraph(FANO_TEXT)
        assert labels == ["1", "2", "3", "4", "5", "6", "7"]
        # Label k is id k - 1, and hyperedge i is line i + 1.
        assert h.hyperedges == tuple(
            frozenset(int(t) - 1 for t in line.split()) for line in FANO_TEXT.splitlines()
        )


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.txt"
    path.write_text(FANO_TEXT)
    return str(path)


class TestCoverCommand:
    def test_k4_best(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "cover", k4_file, "--strategy", "best")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["cover_size"] == 2
        assert payload["valid"] is True
        assert payload["bound_holds"] is True
        assert payload["strategy_sizes"]["bipartite"] == 2

    def test_cover_labels_are_original(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("x y\ny z\nx z\n")
        code, out, _ = run_cli(capsys, "cover", str(path))
        payload = json.loads(out)
        assert code == 0
        flat = {lab for pair in payload["cover"] for lab in pair}
        assert flat <= {"x", "y", "z"}

    def test_triangle_free_empty_cover(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "cover", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["cover"] == [] and payload["valid"] is True

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b c d\n")
        code, _, err = run_cli(capsys, "cover", str(path))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cover", "/nonexistent/g.txt")
        assert code == 2

    @pytest.mark.parametrize("command", ["cover", "analyze", "fvs", "solve-acyclic"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00a b\n")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")

    def test_byte_order_mark_is_not_part_of_a_label(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xef\xbb\xbfa b\nb c\na c\n")
        code, out, _ = run_cli(capsys, "cover", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["num_vertices"] == 3 and payload["cover_size"] == 1
        assert {lab for pair in payload["cover"] for lab in pair} <= {"a", "b", "c"}

    def test_explain_includes_trace(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "cover", k4_file, "--strategy", "fvs", "--explain")
        payload = json.loads(out)
        assert code == 0
        assert "trace" in payload["explain"]
        assert payload["explain"]["breaker_edges"]

    def test_explain_fes_lists_dropped_triangles(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "cover", k4_file, "--strategy", "fes", "--explain")
        payload = json.loads(out)
        assert code == 0
        assert "dropped_triangles" in payload["explain"]


class TestAnalyzeCommand:
    def test_k4_conditions(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "analyze", k4_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["num_triangles"] == 4
        assert payload["ratios"]["edges_over_triangles"] == "3/2"
        assert payload["conditions"]["iii"] == "false"

    def test_k4_oracle(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "analyze", k4_file, "--oracle")
        payload = json.loads(out)
        assert payload["nu_exact"] == 1
        assert payload["ratios"]["nu_over_edges"] == "1/6"

    def test_book_condition_iii(self, capsys, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text(BOOK_TEXT)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        payload = json.loads(out)
        assert payload["ratios"]["edges_over_triangles"] == "7/3"
        assert payload["conditions"]["iii"] == "true"

    def test_oracle_over_budget_exits_4(self, capsys, tmp_path):
        path = tmp_path / "k12.txt"
        lines = [f"{u} {v}\n" for u in range(12) for v in range(u + 1, 12)]
        path.write_text("".join(lines))
        code, _, err = run_cli(capsys, "analyze", str(path), "--oracle")
        assert code == 4


class TestHypergraphCommands:
    def test_fvs_on_fano(self, capsys, fano_file):
        code, out, _ = run_cli(capsys, "fvs", fano_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["fvs_size"] <= 2
        assert payload["bound_holds"] is True
        assert payload["residual_acyclic"] is True

    def test_byte_order_mark_is_not_part_of_a_label(self, capsys, tmp_path):
        # The 3-cycle a..c..e..a: read with the mark, the first "a" would be
        # another vertex and the cycle would be gone.
        path = tmp_path / "h.txt"
        path.write_bytes(b"\xef\xbb\xbfa b c\nc d e\ne f a\n")
        code, out, _ = run_cli(capsys, "fvs", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["num_vertices"] == 6 and payload["fvs_size"] == 1

    def test_fvs_rejects_non_uniform(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a b\nb c d\n")
        code, _, err = run_cli(capsys, "fvs", str(path))
        assert code == 3
        assert "not 3-uniform" in err

    def test_fvs_rejects_non_linear(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a b c\na b d\n")
        code, _, err = run_cli(capsys, "fvs", str(path))
        assert code == 3
        assert "not linear" in err

    @pytest.mark.parametrize("text", ["a b\nb c d\n", "a b c\na b d\n"], ids=["non-uniform", "non-linear"])
    def test_fvs_and_fes_follow_the_library_off_its_domain(self, capsys, tmp_path, text):
        h, _ = parse_hypergraph(text)
        with pytest.raises((NotThreeUniformError, NotLinearError)) as library:
            feedback_vertex_set(h)
        path = tmp_path / "h.txt"
        path.write_text(text)
        assert run_cli(capsys, "fvs", str(path)) == (3, "", f"error: {library.value}\n")
        code, out, _ = run_cli(capsys, "fes", str(path))
        assert code == 0
        assert '"bound": null' in out and '"bound_holds": null' in out

    def test_fes_on_acyclic_is_empty(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a b c\nc d e\n")
        code, out, _ = run_cli(capsys, "fes", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["fes"] == [] and payload["minimal"] is True

    def test_fes_minimal_on_non_uniform_with_cycles(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a b\nb c\na c\na b c d\nd e\n")
        code, out, _ = run_cli(capsys, "fes", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["fes"] == [2, 3] and payload["minimal"] is True
        assert payload["residual_acyclic"] is True and payload["bound"] is None

    def test_internal_error_is_not_a_precondition_exit(self, fano_file, monkeypatch):
        assert issubclass(InvariantError, RuntimeError) and not issubclass(InvariantError, TricoverError)

        def broken(h):
            raise InvariantError("broken invariant")

        monkeypatch.setattr(tricover.cli, "feedback_vertex_set", broken)
        with pytest.raises(InvariantError):
            main(["fvs", fano_file])

    def test_bare_value_error_is_not_a_precondition_exit(self, fano_file, monkeypatch):
        def broken(h):
            raise ValueError("internal bug")

        monkeypatch.setattr(tricover.cli, "feedback_vertex_set", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["fvs", fano_file])

    def test_fes_on_fano_bound(self, capsys, fano_file):
        code, out, _ = run_cli(capsys, "fes", fano_file)
        payload = json.loads(out)
        assert payload["bound"] == 8
        assert payload["bound_holds"] is True
        assert payload["residual_acyclic"] is True

    def test_solve_acyclic(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("a b c\nc d f\n")
        code, out, _ = run_cli(capsys, "solve-acyclic", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["transversal"] == ["c"]
        assert payload["transversal_size"] == payload["matching_size"] == 1
        assert payload["sizes_equal"] is True

    def test_solve_acyclic_rejects_cyclic(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        # Three hyperedges pairwise sharing distinct vertices: a 3-cycle.
        path.write_text("a b x\nb c y\nc a z\n")
        code, _, err = run_cli(capsys, "solve-acyclic", str(path))
        assert code == 3
        assert "cycle" in err


class TestRandomExperimentCommand:
    def test_small_run_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "random-experiment", "--n", "7", "--p", "1.0", "--trials", "2", "--seed", "3",
            "--estimator", "steiner-seeded",
        )
        payload = json.loads(out)
        assert code == 0
        rec = payload["records"][0]
        assert rec["edges"] == 21
        assert rec["steiner_survivors"] == 7
        assert rec["packing_lower"] == 7
        assert payload["aggregates"]["applicable_trials"] == 2

    def test_p_zero_not_applicable(self, capsys):
        code, out, _ = run_cli(
            capsys, "random-experiment", "--n", "9", "--p", "0.0", "--trials", "3", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["aggregates"]["applicable_trials"] == 0
        assert payload["aggregates"]["fraction_packing_ge_quarter"] is None
        assert payload["records"][0]["packing_ge_quarter_edges"] is None

    def test_steiner_estimator_rejects_bad_n(self, capsys):
        code, _, err = run_cli(
            capsys, "random-experiment", "--n", "8", "--p", "0.5", "--trials", "1", "--seed", "1",
            "--estimator", "steiner-seeded",
        )
        assert code == 3

    def test_out_of_range_probability_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "random-experiment", "--n", "9", "--p", "1.5", "--trials", "1")
        assert code == 3 and out == ""
        assert "p must lie in [0, 1]" in err

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "random-experiment", "--n", "7", "--p", "0.8", "--trials", "2", "--seed", "5",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("trial,seed,edges")
        assert len(lines) == 3

    def test_unwritable_csv_exits_3(self, capsys, tmp_path):
        csv_path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys, "random-experiment", "--n", "5", "--p", "0.5", "--trials", "1", "--csv", str(csv_path),
        )
        assert code == 3 and out == ""
        assert err == f"error: cannot write {csv_path}: No such file or directory\n"

    def test_unwritable_csv_fails_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def no_trials(spec):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(tricover.cli, "run_experiment", no_trials)
        csv_path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys, "random-experiment", "--n", "49", "--p", "0.95", "--trials", "40", "--csv", str(csv_path),
        )
        assert code == 3 and out == ""
        assert err == f"error: cannot write {csv_path}: No such file or directory\n"


class TestParser:
    HELP = {
        "cover": "compute a certified triangle cover of a graph",
        "analyze": "report triangle/edge ratios and condition statuses",
        "fvs": "feedback vertex set of a linear 3-uniform hypergraph",
        "fes": "minimal feedback edge set of a hypergraph",
        "solve-acyclic": "minimum transversal and maximum matching of an acyclic hypergraph",
        "random-experiment": "packing/cover statistics over random graphs",
    }

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        # argparse wraps long names and help strings to the terminal width.
        out = " ".join(capsys.readouterr().out.split())
        assert "{" + ",".join(self.HELP) + "}" in out
        for name, text in self.HELP.items():
            assert f" {name} {text} " in out

    @pytest.mark.parametrize(
        "name, handler", [("fvs", "_cmd_fvs"), ("fes", "_cmd_fes"), ("solve-acyclic", "_cmd_solve_acyclic")]
    )
    def test_hypergraph_commands_dispatch_to_their_own_handler(self, monkeypatch, capsys, tmp_path, name, handler):
        called = []

        def recorder(cmd):
            return lambda h, labels: called.append((cmd, h.num_hyperedges, len(labels))) or {"handler": cmd}

        for cmd in ("_cmd_fvs", "_cmd_fes", "_cmd_solve_acyclic"):
            monkeypatch.setattr(tricover.cli, cmd, recorder(cmd))
        path = tmp_path / "fano.txt"
        path.write_text(FANO_TEXT)
        code, out, _ = run_cli(capsys, name, str(path))
        assert code == 0
        assert called == [(handler, 7, 7)]
        # The shared reader puts both counts before the handler's fields.
        assert list(json.loads(out).items()) == [
            ("schema", 1), ("command", name), ("num_vertices", 7), ("num_hyperedges", 7), ("handler", handler)
        ]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cover", "K4", "--strategy", "best"),
            ("cover", "K4", "--strategy", "fes", "--explain"),
            ("analyze", "K4", "--oracle"),
            ("fvs", "FANO"),
            ("fes", "FANO"),
            ("random-experiment", "--n", "13", "--p", "0.6", "--trials", "4", "--seed", "11",
             "--estimator", "steiner-seeded"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, tmp_path, argv):
        k4 = tmp_path / "k4.txt"
        k4.write_text(K4_TEXT)
        fano = tmp_path / "fano.txt"
        fano.write_text(FANO_TEXT)
        resolved = [str(k4) if a == "K4" else str(fano) if a == "FANO" else a for a in argv]
        code1, out1, _ = run_cli(capsys, *resolved)
        code2, out2, _ = run_cli(capsys, *resolved)
        assert code1 == code2 == 0
        assert out1 == out2
