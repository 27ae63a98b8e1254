"""Answer oracles, written without the library.

Each check takes one query and the worker's answer (plain JSON data) and
returns a list of problems; an empty list means the answer passed.  Counts
come from closed forms on numpy adjacency matrices, thresholdness from
nested neighbourhoods, and limit densities from the step graphon of the
block structure, so no check reuses the code it checks.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

# pattern edge lists, independent of the library's constructors
PATTERN_EDGES = {
    "K3": [(0, 1), (1, 2), (0, 2)],
    "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "P4": [(0, 1), (1, 2), (2, 3)],
    "S2": [(0, 1), (0, 2)],
    "S3": [(0, 1), (0, 2), (0, 3)],
    "K3+K2": [(0, 1), (1, 2), (0, 2), (3, 4)],
}
PATTERN_ORDER = {"K3": 3, "C4": 4, "P4": 4, "S2": 3, "S3": 4, "K3+K2": 5}

# graphs on n vertices up to isomorphism, n = 0..7 (OEIS A000088)
ISO_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)

# patterns whose maximum over all graphs is reached by a threshold graph
THRESHOLD_EXTREMAL = ("K3", "S2", "S3")

# below this many vertices the all-graph maximum is recomputed by brute force
ALL_GRAPHS_BRUTE_MAX_N = 6

REL_TOL = 1e-9


def hom(name: str, a: np.ndarray) -> np.ndarray:
    """hom(H, G) for the named pattern by closed forms on int64 adjacency
    matrices; a may carry leading batch axes."""
    deg = a.sum(-1)
    if name == "S2":
        return (deg**2).sum(-1)
    if name == "S3":
        return (deg**3).sum(-1)
    if name == "P4":
        return np.einsum("...i,...ij,...j->...", deg, a, deg)
    a2 = a @ a
    if name == "C4":
        return np.einsum("...ij,...ji->...", a2, a2)
    triangles = np.einsum("...ij,...ji->...", a2, a)
    if name == "K3":
        return triangles
    if name == "K3+K2":
        return triangles * deg.sum(-1)
    raise ValueError(f"no closed form for pattern {name!r}")


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def _edge_problems(n: int, edges, k: int = 2) -> list[str]:
    seen = set()
    for e in edges:
        if len(e) != k or len(set(e)) != k or any(not 0 <= v < n for v in e):
            return [f"malformed edge {e} for n={n}"]
        key = tuple(sorted(e))
        if key in seen:
            return [f"duplicate edge {key}"]
        seen.add(key)
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ── limit ────────────────────────────────────────────────────────────────


def step_graphon_density(name: str, blocks) -> float:
    """t(H, W) for the threshold step graphon: blocks i and j are joined iff
    the later of the two is dominating; a block meets itself by its own bit."""
    edges = PATTERN_EDGES[name]
    bits = [b for b, _ in blocks]
    props = [p for _, p in blocks]
    total = 0.0
    for phi in product(range(len(blocks)), repeat=PATTERN_ORDER[name]):
        if all(bits[max(phi[u], phi[v])] for u, v in edges):
            weight = 1.0
            for j in phi:
                weight *= props[j]
            total += weight
    return total


def limit_edge_density(blocks) -> float:
    """Σ over dominating blocks j of p_j (p_j + 2 S_<j)."""
    total, before = 0.0, 0.0
    for bit, p in blocks:
        if bit:
            total += p * (p + 2 * before)
        before += p
    return total


def check_limit(q: dict, ans: dict) -> list[str]:
    blocks = ans["blocks"]
    if not blocks or any(b not in (0, 1) or p < 0 for b, p in blocks):
        return [f"malformed witness {blocks}"]
    if abs(sum(p for _, p in blocks) - 1) > 1e-9:
        return [f"witness proportions sum to {sum(p for _, p in blocks)}"]
    problems = []
    h, c, value = q["h"], q["c"], ans["value"]
    recount = step_graphon_density(h, blocks)
    if not _close(recount, value):
        problems.append(f"witness density {recount!r} != reported {value!r}")
    density = limit_edge_density(blocks)
    if density > c + 1e-9:
        problems.append(f"witness edge density {density} exceeds budget {c}")
    clique = step_graphon_density(h, [(1, c**0.5), (0, 1 - c**0.5)])
    star = step_graphon_density(h, [(0, (1 - c) ** 0.5), (1, 1 - (1 - c) ** 0.5)])
    floor = max(clique, star)
    if value < floor * (1 - 1e-6):
        problems.append(f"value {value} below the quasi-clique/quasi-star floor {floor}")
    return problems


# ── exact ────────────────────────────────────────────────────────────────


def _full_bits(bits: str) -> list[int]:
    """Creation bits for vertices 1..n-1, with vertex 0 copying vertex 1."""
    digits = [int(ch) for ch in bits]
    return [digits[0]] + digits if digits else [0]


def threshold_adjacency(full_bits) -> np.ndarray:
    """Adjacency of threshold graphs from full bit rows: u ~ v iff the later
    vertex is dominating.  full_bits may be one row or a batch of rows."""
    fb = np.asarray(full_bits, dtype=np.int64)
    n = fb.shape[-1]
    idx = np.arange(n)
    a = fb[..., np.maximum.outer(idx, idx)]
    a[..., idx, idx] = 0
    return a


def threshold_table(name: str, n: int):
    """(hom values, edge counts) of every creation sequence on n vertices, in
    the lexicographic order of their bits."""
    rows = np.array(list(product((0, 1), repeat=n - 1)), dtype=np.int64).reshape(-1, n - 1)
    full = np.concatenate([rows[:, :1], rows], axis=1)
    values = hom(name, threshold_adjacency(full))
    edges = rows @ np.arange(1, n, dtype=np.int64)
    return values, edges


def _sweep_max(values: np.ndarray, edges: np.ndarray, m: int):
    ok = edges <= m
    best = int(values[ok].max())
    first = int(np.flatnonzero(ok & (values == best))[0])
    return best, first


def check_threshold(q: dict, rows) -> list[str]:
    h, n = q["h"], q["n"]
    if len(rows) != n * (n - 1) // 2 + 1:
        return [f"expected one answer per m in 0..{n * (n - 1) // 2}, got {len(rows)}"]
    values, edges = threshold_table(h, n)
    problems = []
    for m, (best, witness, explored) in enumerate(rows):
        if len(witness) != n - 1 or set(witness) - {"0", "1"}:
            problems.append(f"m={m}: malformed witness {witness!r}")
            continue
        bits = [int(ch) for ch in witness]
        w_edges = sum(i for i, b in enumerate(bits, start=1) if b)
        w_value = int(hom(h, threshold_adjacency(_full_bits(witness))))
        want, first = _sweep_max(values, edges, m)
        if w_edges > m:
            problems.append(f"m={m}: witness {witness} has {w_edges} edges")
        if w_value != best:
            problems.append(f"m={m}: witness {witness} counts {w_value}, reported {best}")
        if best != want:
            problems.append(f"m={m}: reported maximum {best}, brute force {want}")
        elif int(witness, 2) != first:
            problems.append(f"m={m}: witness {witness} is not the first optimum")
        if not 1 <= explored <= 2 ** (n - 1):
            problems.append(f"m={m}: explored {explored}, outside 1..{2 ** (n - 1)}")
    return problems


def all_graphs_table(name: str, n: int):
    """(hom values, edge counts) of every labelled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    a = np.zeros((len(masks), n, n), dtype=np.int64)
    for s, (u, v) in enumerate(pairs):
        bit = (masks >> s) & 1
        a[:, u, v] = a[:, v, u] = bit
    return hom(name, a), a.sum((1, 2)) // 2


def check_all(q: dict, rows) -> list[str]:
    h, n = q["h"], q["n"]
    if len(rows) != n * (n - 1) // 2 + 1:
        return [f"expected one answer per m in 0..{n * (n - 1) // 2}, got {len(rows)}"]
    t_values, t_edges = threshold_table(h, n)
    brute = all_graphs_table(h, n) if n <= ALL_GRAPHS_BRUTE_MAX_N else None
    problems = []
    for m, (best, witness, explored) in enumerate(rows):
        bad = _edge_problems(n, witness)
        if bad:
            problems.append(f"m={m}: {bad[0]}")
            continue
        w_value = int(hom(h, adjacency(n, witness)))
        t_best, _ = _sweep_max(t_values, t_edges, m)
        if len(witness) > m:
            problems.append(f"m={m}: witness has {len(witness)} edges")
        if w_value != best:
            problems.append(f"m={m}: witness counts {w_value}, reported {best}")
        if best < t_best or (h in THRESHOLD_EXTREMAL and best != t_best):
            problems.append(f"m={m}: all-graph maximum {best} vs threshold maximum {t_best}")
        if brute is not None and best != _sweep_max(*brute, m)[0]:
            problems.append(f"m={m}: reported {best}, brute force {_sweep_max(*brute, m)[0]}")
        if not 1 <= explored <= ISO_CLASSES[n]:
            problems.append(f"m={m}: explored {explored} graphs, outside 1..{ISO_CLASSES[n]}")
    return problems


# ── reduce ───────────────────────────────────────────────────────────────


def is_threshold(a: np.ndarray) -> bool:
    """Nested neighbourhoods: for every pair u, v one of N(u) - v and
    N(v) - u contains the other.  d[u, v] counts the vertices other than v
    next to u but not to v."""
    d = a @ (1 - a).T - a
    return bool(np.all((d == 0) | (d.T == 0)))


def check_graph(q: dict, ans: dict) -> list[str]:
    n, g_edges = q["n"], q["edges"]
    t_edges = ans["edges"]
    if ans["n"] != n:
        return [f"reduced graph has {ans['n']} vertices, input {n}"]
    bad = _edge_problems(n, t_edges)
    if bad:
        return bad
    problems = []
    m = len(g_edges)
    if len(t_edges) != m:
        problems.append(f"edge count changed from {m} to {len(t_edges)}")
    a_g, a_t = adjacency(n, g_edges), adjacency(n, t_edges)
    if not is_threshold(a_t):
        problems.append("reduced graph is not threshold")
    if ans["moves"] > n * n:
        problems.append(f"{ans['moves']} moves exceed n^2 = {n * n}")
    if ans["movement"] > m:
        problems.append(f"movement {ans['movement']} exceeds m = {m}")
    for name, (hom_g, hom_t) in ans["homs"].items():
        want_g, want_t = int(hom(name, a_g)), int(hom(name, a_t))
        if (hom_g, hom_t) != (want_g, want_t):
            problems.append(f"hom({name}): reported {hom_g}, {hom_t}; closed form {want_g}, {want_t}")
        # K3 and S2 contain no forbidden path, so no move can lose a copy
        if name in ("K3", "S2") and hom_t < hom_g:
            problems.append(f"hom({name}) fell from {hom_g} to {hom_t}")
    return problems


def hyper_hom(name: str, n: int, edges) -> int:
    """hom into a 3-graph: one edge gives 3! m; two edges sharing a pair
    give the sum over ordered pairs of squared codegrees."""
    if name == "E1":
        return 6 * len(edges)
    if name == "E2":
        inc = np.zeros((len(edges), n), dtype=np.int64)
        for row, e in enumerate(edges):
            inc[row, list(e)] = 1
        codeg = inc.T @ inc
        np.fill_diagonal(codeg, 0)
        return int((codeg**2).sum())
    raise ValueError(f"no closed form for hypergraph pattern {name!r}")


def is_threshold_hyper(n: int, edges) -> bool:
    """Every pair is comparable under absorption: x absorbs y when each edge
    holding x and not y is still an edge after y replaces x."""
    links = [set() for _ in range(n)]
    for e in edges:
        for x in e:
            links[x].add(frozenset(e) - {x})

    def absorbs(x: int, y: int) -> bool:
        return all(s in links[y] for s in links[x] if y not in s)

    return all(absorbs(x, y) or absorbs(y, x) for x, y in combinations(range(n), 2))


def check_hyper(q: dict, ans: dict) -> list[str]:
    problems = []
    for name, value in ans["homs"].items():
        want = hyper_hom(name, q["n"], q["edges"])
        if value != want:
            problems.append(f"hom({name}): reported {value}, closed form {want}")
    return problems


CHECKS = {
    "limit": check_limit,
    "threshold": check_threshold,
    "all": check_all,
    "graph": check_graph,
    "hyper": check_hyper,
}


def check(q: dict, answer) -> list[str]:
    """Problems with one answer; empty when it passes."""
    return CHECKS[q["kind"]](q, answer)
