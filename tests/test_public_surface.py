import ast
import inspect
import re
import sys
from pathlib import Path
from typing import Iterable, Mapping

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
    "enumerate_triangles",
    "extend_packing",
    "feedback_vertex_set",
    "fes_size_bound",
    "hypergraph_cover",
    "is_k_uniform",
    "is_linear",
    "max_matching",
    "max_triangle_packing",
    "min_transversal",
    "min_triangle_cover",
    "minimal_fes",
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
README = PACKAGE.parent.parent / "README.md"


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

    @pytest.mark.parametrize(
        "name",
        [
            "Cycle",
            "shortest_cycle",
            "validate_cycle",
            "format_graph",
            "format_hypergraph",
            "delete_vertices",
            "delete_hyperedges",
            "is_acyclic",
            "on_cycle_elements",
            "min_feedback_vertex_set",
            "min_feedback_edge_set",
            "fano_plane",
            "irreducible_subgraph",
            "greedy_triangle_packing",
            "disjoint_union",
            "gadget_augment",
        ],
    )
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


def names_read(source: str) -> set[str]:
    """Every bare name and attribute name a source reads."""
    nodes = list(ast.walk(ast.parse(source)))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def unused_public_functions(homes: Mapping[str, str], modules: Mapping[str, str], examples: Iterable[str]) -> list[str]:
    """Public functions, given as name -> defining module, that no other
    module in `modules` (module -> source) reads and no example uses."""
    shown = set().union(*map(names_read, examples))
    read = {module: names_read(source) for module, source in modules.items()}
    return sorted(
        name
        for name, home in homes.items()
        if name not in shown and not any(name in names for module, names in read.items() if module != home)
    )


class TestNoTestOnlyPublicFunction:
    """A public function that no package module calls and the README does
    not show serves only the tests, which can keep it themselves."""

    def test_every_public_function_has_a_package_or_readme_reader(self):
        homes = {
            name: obj.__module__.rpartition(".")[2] + ".py"
            for name in tricover.__all__
            if inspect.isfunction(obj := getattr(tricover, name))
        }
        modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
        examples = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
        assert len(homes) >= 20 and examples
        assert unused_public_functions(homes, modules, examples) == []

    def test_guard_catches_a_leftover(self):
        homes = {"used": "a.py", "shown": "a.py", "leftover": "a.py", "self_only": "b.py"}
        modules = {
            "a.py": "def used(): ...\ndef shown(): ...\ndef leftover(): ...\n",
            "b.py": "from .a import used\n\ndef self_only():\n    return used()\n\nself_only()\n",
        }
        examples = ["import tricover as tc\ntc.shown()\n"]
        assert unused_public_functions(homes, modules, examples) == ["leftover", "self_only"]
