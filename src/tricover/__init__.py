"""Certified small triangle covers of graphs via feedback sets of linear
3-uniform hypergraphs, with exact oracles and a random-graph experiment
harness."""

from types import ModuleType as _ModuleType

from .acyclic import DualPair, solve_acyclic
from .cover import (
    ConditionReport,
    CoverCertificate,
    best_cover,
    condition_report,
    cover_is_valid,
    cover_via_bipartite,
    cover_via_fes,
    cover_via_fvs,
    hypergraph_cover,
)
from .cyclebreak import FvsResult, feedback_vertex_set, fes_size_bound, minimal_fes
from .errors import (
    BudgetExceededError,
    CyclicInputError,
    EmptyHyperedgeError,
    ExperimentSpecError,
    GraphFormatError,
    InvariantError,
    IsolatedVertexError,
    NotLinearError,
    NotThreeUniformError,
    TricoverError,
)
from .experiment import ExperimentResult, ExperimentSpec, TrialRecord, run_experiment, write_csv
from .graph import (
    Graph,
    PackingWitness,
    Triangle,
    bipartite_cut_cover,
    complete_graph,
    enumerate_triangles,
    extend_packing,
    random_gnp,
)
from .hypergraph import (
    Component,
    Hypergraph,
    components,
    is_k_uniform,
    is_linear,
    triangle_hypergraph,
)
from .io import parse_graph, parse_hypergraph
from .oracles import (
    GRAPH_BUDGET,
    HYPERGRAPH_BUDGET,
    OracleBudget,
    max_matching,
    max_triangle_packing,
    min_transversal,
    min_triangle_cover,
    steiner_triple_system,
)

__version__ = "0.1.0"

# Every public name imported above; importing them also binds the
# submodules, which a star import must not pick up (`io` would shadow the
# standard library).
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
