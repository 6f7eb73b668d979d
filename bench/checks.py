"""Output checks that share no code with the package.

Each check compares what tricover returned against the generator's own
record of the instance (edge list, triangles or hyperedges, recomputed edge
counts) and raises CheckFailed on the first violation. It returns (sum of
returned cover sizes, certified lower bound) for the quality totals.
"""

from __future__ import annotations

from corpus import Instance


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_cover(inst: Instance, payload: dict) -> tuple[int, int]:
    """`tricover cover` (strategy best) on a graph."""
    edges = {frozenset(e) for e in inst.edges}
    cover = {frozenset(pair) for pair in payload["cover"]}
    require(payload["num_edges"] == len(edges), "edge count differs from the input")
    require(cover <= edges, "cover holds a pair that is not an edge")
    require(len(cover) == payload["cover_size"] == len(payload["cover"]), "cover_size does not match the cover")
    for a, b, c in inst.triangles:
        require(
            frozenset((a, b)) in cover or frozenset((b, c)) in cover or frozenset((a, c)) in cover,
            f"triangle {a} {b} {c} is not covered",
        )
    require(payload["valid"] is True and payload["bound_holds"] is True, "valid or bound_holds is not true")
    sizes = payload["strategy_sizes"]
    require(payload["cover_size"] == min(sizes.values()), "cover_size is not the least strategy size")
    require(payload["cover_size"] >= inst.packing, "cover smaller than an edge-disjoint triangle packing")
    return sum(sizes.values()), inst.packing


def check_experiment(inst: Instance, result) -> tuple[int, int]:
    """One single-trial `run_experiment` call at G(49, 0.95)."""
    require(len(result.records) == 1, "expected exactly one trial record")
    rec = result.records[0]
    require(rec.seed == inst.params["seed"], "trial seed differs from the request")
    require(rec.num_edges == inst.params["num_edges"], "edge count differs from the recomputed G(n, p) draw")
    require(rec.packing_lower <= rec.cover_size <= rec.num_edges // 2, "packing_lower <= cover_size <= E/2 fails")
    if inst.params["estimator"] == "steiner-seeded":
        require(rec.steiner_survivors is not None, "missing Steiner survivor count")
        require(rec.steiner_survivors <= rec.packing_lower, "packing smaller than its Steiner seed")
    return rec.cover_size, rec.packing_lower


def check_hypergraph(inst: Instance, output: tuple[list[str], object]) -> tuple[int, int]:
    """`hypergraph_cover` on a linear 3-uniform hypergraph."""
    cover, claimed_bound = output
    hit = set(cover)
    require(len(hit) == len(cover), "transversal repeats a vertex")
    for e in inst.hyperedges:
        require(not hit.isdisjoint(e), f"hyperedge {' '.join(e)} is not hit")
    require(len(cover) <= claimed_bound, "transversal larger than its claimed bound")
    require(len(cover) >= inst.packing, "transversal smaller than a set of disjoint hyperedges")
    return len(cover), inst.packing


def check_analyze(inst: Instance, payload: dict) -> tuple[int, int]:
    """`tricover analyze --oracle` on a small graph."""
    require(payload["num_edges"] == len(inst.edges), "edge count differs from the input")
    require(payload["num_triangles"] == len(inst.triangles), "triangle count differs from the input")
    lo, exact, hi = payload["nu_lower"], payload["nu_exact"], payload["nu_upper"]
    sizes = payload["cover_sizes"]
    require(exact is not None, "nu_exact missing under --oracle")
    require(lo <= exact <= hi == min(sizes.values()), "nu_lower <= nu_exact <= nu_upper == min cover fails")
    require(inst.packing <= exact, "nu_exact below an edge-disjoint triangle packing")
    return sum(sizes.values()), lo
