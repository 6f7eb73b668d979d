"""Seeded input generators for the benchmark.

These are written here rather than imported from the package or its tests,
so that no change to either can alter what the benchmark feeds in. Every
instance is plain text in the package's input formats plus the facts the
output checks need (edge lists, triangles, hyperedges, edge counts), all
derived from the generator's own data structures.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field


@dataclass
class Instance:
    """One benchmark input: its text plus reference data for the checks."""

    key: str
    text: str
    edges: list[tuple[str, str]] = field(default_factory=list)
    triangles: list[tuple[str, str, str]] = field(default_factory=list)
    hyperedges: list[tuple[str, ...]] = field(default_factory=list)
    packing: int = 0
    params: dict = field(default_factory=dict)
    path: str = ""


def digest(instances: list[Instance]) -> str:
    """Short hash of the corpus text and parameters, to show two runs fed identical inputs."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.key.encode())
        h.update(inst.text.encode())
        h.update(repr(sorted(inst.params.items())).encode())
    return h.hexdigest()[:16]


def _label(v: int) -> str:
    return f"v{v}"


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi pairs: one uniform draw per pair in lexicographic pair order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def triangles_of(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Every triangle a < b < c of the graph, by adjacency-set intersection."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for a in range(n):
        for b in sorted(w for w in adj[a] if w > a):
            for c in sorted(w for w in adj[a] & adj[b] if w > b):
                out.append((a, b, c))
    return out


def greedy_packing_size(triangles: list[tuple[int, int, int]]) -> int:
    """Size of a maximal edge-disjoint triangle set, scanning in the given order."""
    used: set[tuple[int, int]] = set()
    count = 0
    for a, b, c in triangles:
        sides = ((a, b), (b, c), (a, c))
        if not any(s in used for s in sides):
            used.update(sides)
            count += 1
    return count


def graph_instance(key: str, n: int, edges: list[tuple[int, int]], **params) -> Instance:
    tris = triangles_of(n, edges)
    return Instance(
        key=key,
        text="".join(f"{_label(u)} {_label(v)}\n" for u, v in edges),
        edges=[(_label(u), _label(v)) for u, v in edges],
        triangles=[(_label(a), _label(b), _label(c)) for a, b, c in tris],
        packing=greedy_packing_size(tris),
        params=dict(n=n, **params),
    )


# --- cover-dense -----------------------------------------------------------

DENSE_SIZES = (15, 17, 14, 16) * 5
DENSE_P = 0.95


def cover_dense_corpus(seed: int) -> list[Instance]:
    """Five uniform random graphs for each n from 14 to 17, with the expected
    edge count of G(n, 0.95), in an order that mixes sizes.

    Twenty instances of at most about 600 triangles let the harder and
    easier draws of one seed average out, and a pass of a few seconds times
    each of them several times in a run. Six graphs of n 17 to 22, one per
    size, spread the raw CPU time of a pass by 0.14 (interquartile range
    over median, host drift included) across eight seeds; these twenty,
    timed as run.py does, spread the throughput by 0.05 across ten.

    The edge count is fixed rather than drawn: under G(n, p) it varies by a
    few percent, the triangle count by three times that, and the O(T^2)
    linearity checks by six, which would let the seed alone move the timings.
    """
    rng = random.Random(f"cover-dense/{seed}")
    out = []
    for i, n in enumerate(DENSE_SIZES):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, round(DENSE_P * len(pairs))))
        out.append(graph_instance(f"gnm-{n}-{i}", n, edges, p=DENSE_P))
    return out


# --- experiment-g49 --------------------------------------------------------

EXPERIMENT_N = 49
EXPERIMENT_P = 0.95
EXPERIMENT_CALLS = 44


def experiment_corpus(seed: int) -> list[Instance]:
    """One single-trial experiment call per instance, estimators alternating.

    Each instance records its edge count, recomputed from the documented
    G(n, p) draw order, so the check does not trust the harness's own count.
    """
    rng = random.Random(f"experiment-g49/{seed}")
    out = []
    for i in range(EXPERIMENT_CALLS):
        trial_seed = rng.randrange(1 << 31)
        estimator = ("greedy", "steiner-seeded")[i % 2]
        num_edges = len(gnp_edges(EXPERIMENT_N, EXPERIMENT_P, random.Random(trial_seed)))
        out.append(
            Instance(
                key=f"trial-{trial_seed}-{estimator}",
                text="",
                params=dict(seed=trial_seed, estimator=estimator, num_edges=num_edges),
            )
        )
    return out


# --- hypergraph-mixed --------------------------------------------------------

MIXED_EDGES = (20, 200, 5)
MIXED_DENSITY = (0.9, 1.3, 2.1)
MIXED_CUBIC_HALF_ORDERS = (5, 10, 15, 20)


def linear_triples(n: int, m: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """m random triples on n vertices, no two sharing a pair, so the
    hypergraph they form is linear. Rejection sampling: with m >= 20 and
    n >= 0.9 m, m is under half the n(n-1)/6 triples that fit, and the
    draws never come near running out."""
    used: set[tuple[int, int]] = set()
    out = []
    for _ in range(1000 * m):
        if len(out) == m:
            return out
        a, b, c = sorted(rng.sample(range(n), 3))
        pairs = ((a, b), (a, c), (b, c))
        if not any(p in used for p in pairs):
            used.update(pairs)
            out.append((a, b, c))
    raise RuntimeError(f"no {m} pairwise linear triples found on {n} vertices")


def random_cubic(k: int, rng: random.Random) -> list[tuple[int, int]]:
    """A simple 3-regular graph on 2k vertices: the configuration model,
    drawn again until it has no loop or repeated edge."""
    while True:
        points = [v for v in range(2 * k) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * k:
            return sorted(edges)


def greedy_matching_size(hyperedges: list[tuple[str, ...]]) -> int:
    """Size of a maximal set of pairwise disjoint hyperedges, in the given order."""
    used: set[str] = set()
    count = 0
    for e in hyperedges:
        if used.isdisjoint(e):
            used.update(e)
            count += 1
    return count


def hypergraph_instance(key: str, hyperedges: list[tuple[str, ...]], **params) -> Instance:
    return Instance(
        key=key,
        text="".join(" ".join(e) + "\n" for e in hyperedges),
        hyperedges=hyperedges,
        packing=greedy_matching_size(hyperedges),
        params=params,
    )


def hypergraph_mixed_corpus(seed: int) -> list[Instance]:
    """Random linear 3-uniform hypergraphs plus the duals of random cubic graphs.

    The linear ones take every hyperedge count in MIXED_EDGES (start, stop,
    step) at each vertex-to-hyperedge ratio in MIXED_DENSITY: about one
    vertex per hyperedge leaves long cycles for rule 4 to break, two per
    hyperedge mostly trees that rule 2 strips. The dual of a cubic graph on
    2k vertices has one vertex per edge and one hyperedge per vertex, so it
    is 2-regular, the only kind of input that reaches rule 5 and its
    shortest-cycle search. Only the drawn structure depends on the seed.
    """
    rng = random.Random(f"hypergraph-mixed/{seed}")
    out = []
    lo, hi, step = MIXED_EDGES
    for m in range(lo, hi + 1, step):
        for density in MIXED_DENSITY:
            n = round(density * m)
            triples = linear_triples(n, m, rng)
            edges = [tuple(f"v{x}" for x in t) for t in triples]
            out.append(hypergraph_instance(f"linear-{m}-{n}", edges, m=m, n=n))
    for k in MIXED_CUBIC_HALF_ORDERS:
        for _ in range(3):
            cubic = random_cubic(k, rng)
            edges = [
                tuple(f"e{u}_{w}" for u, w in cubic if v in (u, w))
                for v in range(2 * k)
            ]
            out.append(hypergraph_instance(f"cubic-dual-{2 * k}", edges, m=2 * k, n=3 * k))
    rng.shuffle(out)
    return out


# --- analyze-small -----------------------------------------------------------

SMALL_COUNT = 624
SMALL_EDGES = (15, 40)
SMALL_MAX_DENSITY = 0.6


def analyze_small_corpus(seed: int) -> list[Instance]:
    """Uniform random graphs with 15 to 40 edges and edge density at most 0.6.

    Edge and vertex counts step through a fixed grid (26 edge counts times
    three vertex counts, eight times over), so only the drawn structure
    depends on the seed.

    The density cap keeps the exact packing search short: the denser
    40-edge graphs hold 80 triangles and take the oracle up to a second,
    which would let a handful of instances decide the whole pass time.
    """
    rng = random.Random(f"analyze-small/{seed}")
    out = []
    for i in range(SMALL_COUNT):
        m = SMALL_EDGES[0] + i % (SMALL_EDGES[1] - SMALL_EDGES[0] + 1)
        n = 3
        while n * (n - 1) // 2 * SMALL_MAX_DENSITY < m:
            n += 1
        n += (i // (SMALL_EDGES[1] - SMALL_EDGES[0] + 1)) % 3
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, m))
        out.append(graph_instance(f"small-{i}", n, edges, m=m))
    rng.shuffle(out)
    return out
