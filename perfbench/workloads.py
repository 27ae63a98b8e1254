"""Seeded query lists for the three workloads.

Every list is plain JSON data, so the parent process can hash it, hand it to
a fresh worker interpreter and check the answers without importing the
library.  Each workload fixes the input properties that set a query's cost
(the c slice, the graph size and degree, the pattern and n) and draws the
rest from the seed, so two seeds give different inputs of about the same
total cost.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

WORKLOADS = ("limit", "exact", "reduce")

# limit_search as the CLI runs it, except for the grid: at 1/3 each
# three-block pattern starts one refinement, which keeps a query near a
# second instead of 4-16 s at the CLI's 0.02 grid.
LIMIT_PATTERNS = ("P4", "S2", "C4", "K3", "K3+K2")
LIMIT_SLICES = 8
# c is jittered this far around the centre of its slice: the search's cost
# can change several-fold across a whole slice, by about 15% across this width
LIMIT_C_JITTER = 0.005
LIMIT_GRID = 1 / 3
LIMIT_MAX_PARTS = 3
LIMIT_REFINE_TOL = 1e-6

# Every pattern is asked at every size, so the seed only orders the queries
# and with it which chromatic polynomials are already cached when a pattern
# comes up.  The all-graph queries keep their relative order, so the same
# pattern always pays the cold isomorphism enumeration (once per process, as
# `threshmax search-all` does).  It runs at n = 6: at n = 7 it alone takes
# about 12 s, longer than a whole round may.
EXACT_PATTERNS = ("K3", "S2", "S3", "C4", "P4", "K3+K2")
EXACT_THRESHOLD_NS = (9, 10, 11, 12)
EXACT_ALL_NS = (6,)

# A fixed grid of sizes and average degrees, two random graphs per cell: the
# cost of a query follows n and the edge count (about as its square), so the
# seed varies the graphs and keeps the total cost nearly the same.  Each
# graph is uniform among those with exactly m = d * n / 2 edges: in G(n, p)
# the edge count alone moved a query's cost by up to 45% within a cell.
# Two smaller graphs per cell rather than one large one average the rest.
REDUCE_GRAPH_NS = (100, 120)
REDUCE_GRAPH_DEGREES = (4, 6, 8)
REDUCE_GRAPHS_PER_CELL = 2
REDUCE_GRAPH_PATTERNS = ("K3", "S2", "P4")
# (n, share of all triples that are edges) of the random 3-graphs, each
# with exactly that many edges, so the seed moves neither their cost
REDUCE_HYPERGRAPHS = ((14, 0.8), (20, 0.7), (25, 0.6), (30, 0.5))
REDUCE_HYPER_PATTERNS = ("E1", "E2")


def _limit(rng: random.Random) -> list[dict]:
    """One c near the centre of each of LIMIT_SLICES equal slices of
    [0.05, 0.95], the slices dealt to the patterns in turn."""
    width = 0.9 / LIMIT_SLICES
    return [
        {
            "kind": "limit",
            "h": LIMIT_PATTERNS[i % len(LIMIT_PATTERNS)],
            "c": 0.05 + width * (i + 0.5) + rng.uniform(-LIMIT_C_JITTER, LIMIT_C_JITTER),
        }
        for i in range(LIMIT_SLICES)
    ]


def _exact(rng: random.Random) -> list[dict]:
    queries = [{"kind": "threshold", "h": h, "n": n} for h in EXACT_PATTERNS for n in EXACT_THRESHOLD_NS]
    queries += [{"kind": "all", "h": h, "n": n} for h in EXACT_PATTERNS for n in EXACT_ALL_NS]
    return queries


def _uniform_edges(rng: random.Random, n: int, k: int, m: int) -> list[list[int]]:
    """m distinct k-sets of range(n), uniform among all such choices, sorted."""
    return [list(e) for e in sorted(rng.sample(list(combinations(range(n), k)), m))]


def _reduce(rng: random.Random) -> list[dict]:
    queries = [
        {"kind": "graph", "n": n, "edges": _uniform_edges(rng, n, 2, d * n // 2)}
        for n in REDUCE_GRAPH_NS
        for d in REDUCE_GRAPH_DEGREES
        for _ in range(REDUCE_GRAPHS_PER_CELL)
    ]
    for n, share in REDUCE_HYPERGRAPHS:
        m = round(share * n * (n - 1) * (n - 2) / 6)
        queries.append({"kind": "hyper", "n": n, "k": 3, "edges": _uniform_edges(rng, n, 3, m)})
    return queries


def generate(workload: str, seed: int) -> list[dict]:
    """The query list of one workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    queries = {"limit": _limit, "exact": _exact, "reduce": _reduce}[workload](rng)
    rng.shuffle(queries)
    if workload == "exact":
        slots = [i for i, q in enumerate(queries) if q["kind"] == "all"]
        ordered = sorted((queries[i] for i in slots), key=lambda q: EXACT_PATTERNS.index(q["h"]))
        for i, q in zip(slots, ordered):
            queries[i] = q
    return queries


def digest(queries: list[dict]) -> str:
    """Short hash of a query list, so two runs can show they used the same inputs."""
    blob = json.dumps(queries, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
