"""Command-line interface: JSON certificates on stdout.

Exit codes: 0 success, 2 input parse error (an unreadable or non-UTF-8 file
included), 3 precondition violation (any other TricoverError, an unwritable
--csv path included), 4 budget exceeded. Any other exception, such as an
InvariantError or a bare ValueError, is an internal bug rather than bad
input and is not caught. Output is deterministic: identical inputs, flags, and
seeds produce byte-identical JSON. A leading UTF-8 byte-order mark in an
input file is ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .acyclic import solve_acyclic
from .cover import (
    CoverCertificate,
    best_cover,
    condition_report,
    cover_is_valid,
    cover_via_bipartite,
    cover_via_fes,
    cover_via_fvs,
)
from .cyclebreak import feedback_vertex_set, fes_size_bound, is_minimal_fes, minimal_fes
from .errors import BudgetExceededError, GraphFormatError, TricoverError
from .experiment import ESTIMATORS, RECORD_COLUMNS, ExperimentSpec, run_experiment, write_csv
from .hypergraph import delete_hyperedges, delete_vertices, is_acyclic, triangle_hypergraph
from .io import parse_graph, parse_hypergraph

SCHEMA = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as ex:
        raise GraphFormatError(f"cannot read {path}: {ex.strerror}") from ex
    except UnicodeDecodeError as ex:
        raise GraphFormatError(f"cannot read {path}: {ex}") from ex


def _emit(command: str, payload: dict) -> None:
    sys.stdout.write(json.dumps({"schema": SCHEMA, "command": command, **payload}, indent=2) + "\n")


def _edge_labels(g, labels, edge_ids) -> list[list[str]]:
    return [[labels[u], labels[v]] for u, v in (g.edge_pair(e) for e in sorted(edge_ids))]


def _cmd_cover(args) -> dict:
    g, labels = parse_graph(_read(args.graph_file))
    cert: CoverCertificate = args.strategies[args.strategy](g)
    payload = {
        "requested_strategy": args.strategy,
        "strategy": cert.strategy,
        "num_vertices": g.n,
        "num_edges": g.num_edges,
        "cover_size": cert.size,
        "cover": _edge_labels(g, labels, cert.cover),
        "claimed_bound": _frac(cert.claimed_bound),
        "bound_holds": cert.size <= cert.claimed_bound,
        "valid": cover_is_valid(g, cert.cover),
    }
    if cert.strategy_sizes is not None:
        payload["strategy_sizes"] = dict(cert.strategy_sizes)
    if args.explain:
        explain: dict = {
            "breaker_edges": _edge_labels(g, labels, cert.breaker),
        }
        if cert.trace is not None:
            explain["trace"] = [{"rule": rule, "elements": list(elems)} for rule, elems in cert.trace]
            explain["edge_legend"] = {
                str(e): [labels[u], labels[v]] for e, (u, v) in enumerate(g.edges)
            }
        if (dropped := cert.fes_hyperedges) is not None:
            hg = triangle_hypergraph(g)
            explain["dropped_triangles"] = [_edge_labels(g, labels, hg.hyperedge(f)) for f in sorted(dropped)]
        if cert.residual_pair is not None:
            explain["residual_transversal"] = _edge_labels(g, labels, cert.residual_pair.transversal)
            explain["residual_matching_size"] = len(cert.residual_pair.matching)
        payload["explain"] = explain
    return payload


def _cmd_analyze(args) -> dict:
    g, _labels = parse_graph(_read(args.graph_file))
    report = condition_report(g, use_oracle=args.oracle)
    return {
        "num_edges": report.num_edges,
        "num_triangles": report.num_triangles,
        "num_irreducible_edges": report.num_irreducible_edges,
        "nu_lower": report.nu_lower,
        "nu_exact": report.nu_exact,
        "nu_upper": report.nu_upper,
        "nu_upper_note": "min cover size; bounds the packing number via packing <= cover",
        "cover_sizes": dict(report.cover_sizes),
        "ratios": {k: _frac(v) for k, v in report.ratios.items()},
        "conditions": {"i": report.cond_i, "ii": report.cond_ii, "iii": report.cond_iii},
    }


def _cmd_hypergraph(args) -> dict:
    """fvs, fes and solve-acyclic: read the hypergraph, then run the command's handler."""
    h, labels = parse_hypergraph(_read(args.hypergraph_file))
    return {"num_vertices": len(h.vertices), "num_hyperedges": h.num_hyperedges, **args.handler(h, labels)}


def _cmd_fvs(h, labels) -> dict:
    result = feedback_vertex_set(h)
    residual = delete_vertices(h, result.removed_vertices)
    bound = h.num_hyperedges // 3
    return {
        "fvs": [labels[v] for v in sorted(result.removed_vertices)],
        "fvs_size": len(result.removed_vertices),
        "bound": bound,
        "bound_holds": len(result.removed_vertices) <= bound,
        "residual_acyclic": is_acyclic(residual),
    }


def _cmd_fes(h, labels) -> dict:
    result = minimal_fes(h)
    residual = delete_hyperedges(h, result.removed_hyperedges)
    size = len(result.removed_hyperedges)
    bound = fes_size_bound(h)
    return {
        "fes": sorted(result.removed_hyperedges),
        "fes_size": size,
        "residual_acyclic": is_acyclic(residual),
        "minimal": is_minimal_fes(h, result.removed_hyperedges),
        "bound": bound,
        "bound_holds": None if bound is None else size <= bound,
    }


def _cmd_solve_acyclic(h, labels) -> dict:
    pair = solve_acyclic(h)
    return {
        "transversal": [labels[v] for v in sorted(pair.transversal)],
        "matching": sorted(pair.matching),
        "transversal_size": len(pair.transversal),
        "matching_size": len(pair.matching),
        "sizes_equal": len(pair.transversal) == len(pair.matching),
    }


def _cmd_random_experiment(args) -> dict:
    spec = ExperimentSpec(**{field.name: getattr(args, field.name) for field in dataclasses.fields(ExperimentSpec)})
    if args.csv:
        try:
            # Fail before the trials run, not after; append mode truncates nothing.
            open(args.csv, "a").close()
        except OSError as ex:
            raise TricoverError(f"cannot write {args.csv}: {ex.strerror}") from ex
    result = run_experiment(spec)
    if args.csv:
        try:
            write_csv(result, args.csv)
        except OSError as ex:
            raise TricoverError(f"cannot write {args.csv}: {ex.strerror}") from ex
    return {
        "spec": dataclasses.asdict(spec),
        "records": [{column: getattr(r, attr) for column, attr in RECORD_COLUMNS} for r in result.records],
        "aggregates": {
            "applicable_trials": result.applicable_trials,
            "packing_ge_quarter_count": result.packing_ok_count,
            "cover_le_twice_count": result.cover_ok_count,
            "fraction_packing_ge_quarter": result.fraction_packing_ge_quarter,
            "fraction_cover_le_twice": result.fraction_cover_le_twice,
        },
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricover",
        description="Certified small triangle covers of graphs, and feedback-set tools "
        "for linear 3-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Built with each parser rather than at import, so a function rebound on
    # this module (by a test patch or a tracer) is the one dispatched.
    strategies = {"fvs": cover_via_fvs, "fes": cover_via_fes, "bipartite": cover_via_bipartite, "best": best_cover}
    p = sub.add_parser("cover", help="compute a certified triangle cover of a graph")
    p.add_argument("graph_file")
    p.add_argument("--strategy", choices=strategies, default="best")
    p.add_argument("--explain", action="store_true", help="include the cycle-breaking audit trail")
    p.set_defaults(func=_cmd_cover, strategies=strategies)

    p = sub.add_parser("analyze", help="report triangle/edge ratios and condition statuses")
    p.add_argument("graph_file")
    p.add_argument("--oracle", action="store_true", help="compute the exact packing number (small inputs)")
    p.set_defaults(func=_cmd_analyze)

    for name, func, text in (
        ("fvs", _cmd_fvs, "feedback vertex set of a linear 3-uniform hypergraph"),
        ("fes", _cmd_fes, "minimal feedback edge set of a hypergraph"),
        ("solve-acyclic", _cmd_solve_acyclic, "minimum transversal and maximum matching of an acyclic hypergraph"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("hypergraph_file")
        p.set_defaults(func=_cmd_hypergraph, handler=func)

    p = sub.add_parser("random-experiment", help="packing/cover statistics over random graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=ESTIMATORS, default="greedy")
    p.add_argument("--csv", metavar="PATH", help="also write per-trial records as CSV")
    p.set_defaults(func=_cmd_random_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except GraphFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except TricoverError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(args.command, payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
