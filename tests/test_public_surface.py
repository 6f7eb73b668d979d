import ast
import sys
from pathlib import Path

import pytest

import tricover

PUBLIC = (
    "BudgetExceededError",
    "Component",
    "ConditionReport",
    "CoverCertificate",
    "CyclicInputError",
    "DualPair",
    "EmptyHyperedgeError",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentSpecError",
    "FesResult",
    "FvsResult",
    "GRAPH_BUDGET",
    "Graph",
    "GraphFormatError",
    "HYPERGRAPH_BUDGET",
    "Hypergraph",
    "InvariantError",
    "IsolatedVertexError",
    "NotLinearError",
    "NotThreeUniformError",
    "OracleBudget",
    "PackingWitness",
    "TrialRecord",
    "Triangle",
    "TricoverError",
    "best_cover",
    "bipartite_cut_cover",
    "complete_graph",
    "components",
    "condition_report",
    "cover_is_valid",
    "cover_via_bipartite",
    "cover_via_fes",
    "cover_via_fvs",
    "delete_hyperedges",
    "delete_vertices",
    "disjoint_union",
    "enumerate_triangles",
    "extend_packing",
    "fano_plane",
    "feedback_vertex_set",
    "fes_size_bound",
    "gadget_augment",
    "greedy_triangle_packing",
    "hypergraph_cover",
    "irreducible_subgraph",
    "is_acyclic",
    "is_k_uniform",
    "is_linear",
    "max_matching",
    "max_triangle_packing",
    "min_feedback_edge_set",
    "min_feedback_vertex_set",
    "min_transversal",
    "min_triangle_cover",
    "minimal_fes",
    "on_cycle_elements",
    "parse_graph",
    "parse_hypergraph",
    "random_gnp",
    "run_experiment",
    "solve_acyclic",
    "steiner_triple_system",
    "triangle_hypergraph",
    "write_csv",
)

PACKAGE = Path(tricover.__file__).parent


class TestPublicSurface:
    def test_all_is_the_pinned_sorted_list(self):
        assert tuple(tricover.__all__) == PUBLIC
        assert list(PUBLIC) == sorted(PUBLIC)

    def test_star_import_binds_exactly_the_public_names(self):
        namespace: dict = {}
        exec("from tricover import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == list(PUBLIC)
        assert "io" not in namespace and "hypergraph" not in namespace

    @pytest.mark.parametrize("name", ["Cycle", "shortest_cycle", "validate_cycle", "format_graph", "format_hypergraph"])
    def test_removed_names_stay_removed(self, name):
        assert not hasattr(tricover, name)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, `from __future__` aside.

    A name counts as read when it appears as a bare name anywhere in the
    module, annotations included.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in imported if name not in read]


class TestUnusedImports:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    def test_module_reads_every_name_it_imports(self, module):
        assert unused_imports((PACKAGE / module).read_text()) == []

    def test_guard_catches_a_leftover(self):
        source = "from .errors import InvariantError, NotLinearError\n\nraise InvariantError('x')\n"
        assert unused_imports(source) == ["NotLinearError"]

    def test_guard_reads_annotations(self):
        source = "from __future__ import annotations\nfrom typing import Mapping\n\ndef f(x: Mapping) -> None: ...\n"
        assert unused_imports(source) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of a module's absolute imports that are not in the
    standard library; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in sys.stdlib_module_names]


class TestStandardLibraryRuntime:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_module_imports_only_the_standard_library(self, module):
        assert non_stdlib_imports((PACKAGE / module).read_text()) == []

    def test_guard_catches_a_third_party_import(self):
        source = "import numpy\nimport os.path\nfrom .graph import Graph\nfrom __future__ import annotations\n"
        assert non_stdlib_imports(source) == ["numpy"]


def assert_lines(source: str) -> list[int]:
    """Line numbers of a module's assert statements, which `python -O` strips."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


class TestNoAssertInThePackage:
    """An assert guarding a state no test reaches vanishes under -O unseen;
    package invariants raise explicitly instead."""

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_module_has_no_assert(self, module):
        assert assert_lines((PACKAGE / module).read_text()) == []

    def test_guard_catches_an_assert(self):
        source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
        assert assert_lines(source) == [3]


def private_package_imports(source: str) -> list[str]:
    """`_`-prefixed names a module imports from a tricover module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "tricover")
        for alias in node.names
        if alias.name.startswith("_")
    ]


class TestCliUsesThePublicSurface:
    def test_cli_imports_no_private_name(self):
        assert private_package_imports((PACKAGE / "cli.py").read_text()) == []

    def test_guard_catches_a_private_import(self):
        source = "from .cyclebreak import _feedback_vertex_set, minimal_fes\nfrom tricover.graph import _first_fit\n"
        assert private_package_imports(source) == ["_feedback_vertex_set", "_first_fit"]

    def test_guard_ignores_other_packages(self):
        assert private_package_imports("from os import _exit\nfrom __future__ import annotations\n") == []
