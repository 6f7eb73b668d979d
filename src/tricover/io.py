"""Text formats for graphs and hypergraphs.

Graph files: one edge per line as two whitespace-separated labels. Hypergraph
files: one hyperedge per line as two or more labels. Everything after a '#'
is a comment; blank lines are skipped. Labels are arbitrary tokens and map to
dense integer ids in first-occurrence order; each parser returns the id ->
label table beside the structure, and commands print answers through it.
"""

from __future__ import annotations

from typing import Iterable

from .errors import GraphFormatError
from .graph import Graph
from .hypergraph import Hypergraph


def _tokenized_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line_no, line.split()


def parse_graph(text: str) -> tuple[Graph, list[str]]:
    """Parse an edge-list file; returns the graph and the id -> label table."""
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, tokens in _tokenized_lines(text):
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 2 labels, got {len(tokens)}", line_no)
        u, v = (ids.setdefault(t, len(ids)) for t in tokens)
        if u == v:
            raise GraphFormatError(f"self-loop at {tokens[0]!r}", line_no)
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise GraphFormatError(f"duplicate edge {tokens[0]!r} {tokens[1]!r}", line_no)
        seen.add(pair)
        edges.append(pair)
    return Graph(len(ids), edges), list(ids)


def parse_hypergraph(text: str) -> tuple[Hypergraph, list[str]]:
    """Parse a hyperedge-list file; returns the hypergraph and the label table.

    Lines need at least 2 distinct labels. Uniformity requirements of
    individual commands are checked downstream, not here.
    """
    ids: dict[str, int] = {}
    hyperedges: list[list[int]] = []
    for line_no, tokens in _tokenized_lines(text):
        if len(tokens) < 2:
            raise GraphFormatError(f"expected at least 2 labels, got {len(tokens)}", line_no)
        if len(set(tokens)) != len(tokens):
            raise GraphFormatError("repeated label in hyperedge", line_no)
        hyperedges.append([ids.setdefault(t, len(ids)) for t in tokens])
    return Hypergraph(range(len(ids)), hyperedges), list(ids)

