"""Certified triangle-cover strategies and condition reporting.

Three cover routes, each returning a certificate with an audit trail:

* fvs: break every cycle of the triangle hypergraph by removing at most a
  third of its hyperedges' worth of vertices (graph edges), then solve the
  acyclic remainder exactly;
* fes: drop a minimal set of hyperedges (triangles) instead, pick the least
  graph edge of each, and solve exactly the kept triangles the picks miss;
* bipartite: keep the edges of a large bipartition cut and return the rest.

Every certificate's cover is a genuine triangle cover; the claimed bound is
the certified size guarantee that held at construction time.

The fvs and fes routes are one pipeline with two entry points: `_via_fvs`
and `_via_fes` break the cycles, and `_route` solves exactly the hyperedges
their breaker misses. A triangle cover is a transversal of the triangle
hypergraph, whose vertex ids are the graph's edge ids, so the graph entry
points build that hypergraph once per call and keep the routes'
transversals as they are. hypergraph_cover runs the same routes on any
linear 3-uniform hypergraph without isolated vertices.

Two rules are written once and serve both entry points. `_race` picks the
winning route for best_cover, hypergraph_cover and condition_report.
`_packing_condition` turns packing bounds into a condition status for
hypergraph_cover and condition_report: the paper's graph condition i is
condition i of the triangle hypergraph.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .acyclic import DualPair, _solve
from .cyclebreak import _feedback_vertex_set, _fes_hyperedges, _require_linear_3_uniform
from .errors import CyclicInputError, InvariantError, IsolatedVertexError
from .graph import Graph, _first_fit, bipartite_cut_cover
from .hypergraph import Hypergraph, triangle_hypergraph
from .oracles import GRAPH_BUDGET, HYPERGRAPH_BUDGET, _max_disjoint, _Search, _capped_triangle_hypergraph, max_matching


@dataclass(frozen=True)
class CoverCertificate:
    """A triangle cover (or hypergraph transversal) with its audit trail.

    cover holds graph edge ids, or vertex ids for the hypergraph form.
    breaker is the cycle-breaking part: the removed feedback vertices for the
    fvs strategy, or for fes the set of the dropped hyperedges' least vertices.
    fes_hyperedges maps each dropped hyperedge id to its members, in id order.
    residual_pair is the exact transversal/matching pair of the acyclic
    remainder, the hyperedges the breaker misses (absent for the bipartite
    strategy). claimed_bound is the certified size guarantee; the cover
    never exceeds it.
    """

    strategy: str
    cover: frozenset[int]
    claimed_bound: Fraction
    breaker: frozenset[int]
    residual_pair: DualPair | None
    fes_hyperedges: Mapping[int, frozenset[int]] | None = None
    trace: tuple | None = None
    strategy_sizes: Mapping[str, int] | None = None
    conditions: Mapping[str, str] | None = None

    @property
    def size(self) -> int:
        return len(self.cover)


def cover_is_valid(g: Graph, cover: frozenset[int]) -> bool:
    """Independent check that removing the cover leaves g triangle-free.

    Uses its own adjacency triple scan rather than the triangle enumerator,
    so certificates are validated through a separate code path.
    """
    keep = [pair for i, pair in enumerate(g.edges) if i not in cover]
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in keep:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in keep:
        if any(w > v for w in adj[u] & adj[v]):
            return False
    return True


def _route(h: Hypergraph, strategy: str, breaker: frozenset[int], base: Fraction, **audit) -> CoverCertificate:
    """The breaker plus the exact transversal, solved in place, of the
    hyperedges it misses; a cycle among those is a bug in the breaker."""
    try:
        pair = _solve({eid: e for eid, e in h._edges.items() if breaker.isdisjoint(e)}, h._incident)
    except CyclicInputError:
        raise InvariantError(f"the {strategy} route's remainder has a cycle") from None
    claimed = base + len(pair.matching)
    return CoverCertificate(strategy, breaker | pair.transversal, claimed, breaker, pair, **audit)


def _via_fvs(h: Hypergraph) -> CoverCertificate:
    """fvs route on a linear 3-uniform hypergraph: a feedback vertex set,
    then the exact solve of the acyclic remainder."""
    res = _feedback_vertex_set(h)
    return _route(h, "fvs", res.removed_vertices, Fraction(h.num_hyperedges, 3), trace=res.trace)


def _via_fes(h: Hypergraph) -> CoverCertificate:
    """fes route: the least vertex of each hyperedge a minimal feedback edge
    set drops. Each holds its pick, so the picks miss only kept hyperedges."""
    dropped = _fes_hyperedges(h)
    picks = frozenset(min(e) for e in dropped.values())
    return _route(h, "fes", picks, Fraction(len(dropped)), fes_hyperedges=dropped)


def cover_via_fvs(g: Graph) -> CoverCertificate:
    """Cover from a feedback vertex set of the triangle hypergraph.

    The breaker has at most floor(|triangles|/3) edges; the remainder is
    acyclic and solved exactly, so the total is at most |triangles|/3 plus
    the remainder's matching number. Whenever the packing number is at least
    |triangles|/3 that total is at most twice the packing number.
    """
    return _via_fvs(triangle_hypergraph(g))


def cover_via_fes(g: Graph) -> CoverCertificate:
    """Cover from a minimal feedback edge set of the triangle hypergraph.

    Each dropped hyperedge is a triangle of g; its least edge id joins the
    cover, and the kept triangles these picks miss are solved exactly.
    Edges outside all triangles are isolated hypergraph vertices and never
    enter the cover, so the irreducible reduction is implicit. For an
    irreducible graph with |E| >= 2|triangles| the dropped set is no larger
    than the hypergraph's component count, which the matching number
    dominates; the total is then at most twice the packing number.
    """
    return _via_fes(triangle_hypergraph(g))


def cover_via_bipartite(g: Graph) -> CoverCertificate:
    """Cover from a bipartition local search: the uncut edges.

    At most floor(|E|/2) edges; whenever the packing number is at least
    |E|/4 that is at most twice the packing number.
    """
    cover = bipartite_cut_cover(g)
    claimed = Fraction(g.num_edges // 2)
    return CoverCertificate("bipartite", cover, claimed, frozenset(), None)


def _race(h: Hypergraph, g: Graph | None = None) -> tuple[CoverCertificate, dict[str, int]]:
    """The route race on h: the first certificate of least size in route
    order (fvs, fes, then bipartite when g, whose triangle hypergraph is h,
    is given), and every route's size in that order."""
    certs = [_via_fvs(h), _via_fes(h)] + ([cover_via_bipartite(g)] if g is not None else [])
    return min(certs, key=lambda cert: cert.size), {cert.strategy: cert.size for cert in certs}


def _packing_condition(scale: int, total: int, lower: int, exact: int | None) -> str:
    """Whether packing number * scale >= total, "not-applicable" when total
    is 0. An exact packing number decides it, else only lower proves "true"."""
    if not total:
        return "not-applicable"
    if exact is not None:
        return "true" if scale * exact >= total else "false"
    return "true" if scale * lower >= total else "unknown"


def best_cover(g: Graph) -> CoverCertificate:
    """Run all three strategies and keep the smallest cover.

    Ties prefer fvs, then fes, then bipartite. The chosen certificate records
    all three sizes.
    """
    winner, sizes = _race(triangle_hypergraph(g), g)
    return dataclasses.replace(winner, strategy_sizes=sizes)


def hypergraph_cover(h: Hypergraph) -> CoverCertificate:
    """Transversal of a linear 3-uniform hypergraph without isolated vertices.

    Runs both the feedback-vertex-set route and the feedback-edge-set route
    and returns the smaller transversal (ties prefer fvs). Under either of
    the recorded conditions the winner has size at most twice the matching
    number (both are "not-applicable" when there is no hyperedge):

    * condition i: matching number >= |hyperedges|/3 (a matching lower bound
      or the exact oracle within HYPERGRAPH_BUDGET decides it, else "unknown");
    * condition ii: |vertices| >= 2 |hyperedges| (always decided exactly).
    """
    _require_linear_3_uniform(h)
    isolated = h.vertices - h.non_isolated_vertices()
    if isolated:
        raise IsolatedVertexError(f"isolated vertices not allowed: {sorted(isolated)}")

    m = h.num_hyperedges
    lower = len(_first_fit(h.hyperedges))
    exact = max_matching(h)[0] if 3 * lower < m <= HYPERGRAPH_BUDGET.max_edges else None
    conditions = {
        "i": _packing_condition(3, m, lower, exact),
        "ii": ("true" if len(h.vertices) >= 2 * m else "false") if m else "not-applicable",
    }
    return dataclasses.replace(_race(h)[0], conditions=conditions)


@dataclass(frozen=True)
class ConditionReport:
    """Counts, ratios, and the status of the three sufficient conditions.

    Each packing-dependent status is "true" when a packing lower bound
    already proves it, "false" only when the exact oracle refutes it,
    "unknown" otherwise, and "not-applicable" on degenerate instances.
    nu_upper bounds the packing number from above through the chain
    packing number <= cover number <= any computed cover size.
    """

    num_edges: int
    num_triangles: int
    num_irreducible_edges: int
    nu_lower: int
    nu_exact: int | None
    nu_upper: int
    cover_sizes: Mapping[str, int]
    cond_i: str
    cond_ii: str
    cond_iii: str
    ratios: Mapping[str, Fraction | None]


def condition_report(g: Graph, use_oracle: bool = False) -> ConditionReport:
    """Evaluate the three sufficient conditions on g.

    Condition i compares the packing number against |triangles|/3, condition
    ii against |E|/4, and condition iii asks for |E'| >= 2 |triangles| on the
    irreducible subgraph (edges outside triangles cannot help a cover, so the
    reduced edge count is the meaningful one; the raw ratio is reported too).
    With use_oracle, GRAPH_BUDGET's edge cap is checked before the triangle
    scan, and nu_exact is the triangle hypergraph's maximum matching number.
    """
    h = _capped_triangle_hypergraph(g, GRAPH_BUDGET) if use_oracle else triangle_hypergraph(g)
    num_t = h.num_hyperedges
    num_e = g.num_edges
    # Hyperedge ids follow the canonical triangle order, so these equal the
    # irreducible subgraph's edge count and the greedy packing's size.
    num_e_irr = len(h.non_isolated_vertices())
    nu_lower = len(_first_fit(h.hyperedges))
    nu_exact = len(_max_disjoint(_Search(h, GRAPH_BUDGET))) if use_oracle else None

    winner, cover_sizes = _race(h, g)
    cond_i = _packing_condition(3, num_t, nu_lower, nu_exact)
    cond_ii = _packing_condition(4, num_e, nu_lower, nu_exact)
    cond_iii = ("true" if num_e_irr >= 2 * num_t else "false") if num_t else "not-applicable"

    ratios: dict[str, Fraction | None] = {
        "nu_over_triangles": Fraction(nu_exact, num_t) if nu_exact is not None and num_t else None,
        "nu_over_edges": Fraction(nu_exact, num_e) if nu_exact is not None and num_e else None,
        "edges_over_triangles": Fraction(num_e, num_t) if num_t else None,
        "irreducible_edges_over_triangles": Fraction(num_e_irr, num_t) if num_t else None,
    }
    return ConditionReport(
        num_edges=num_e,
        num_triangles=num_t,
        num_irreducible_edges=num_e_irr,
        nu_lower=nu_lower,
        nu_exact=nu_exact,
        nu_upper=winner.size,
        cover_sizes=cover_sizes,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        ratios=ratios,
    )

