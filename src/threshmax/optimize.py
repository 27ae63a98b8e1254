"""Extremal searches and bounds built on the counting engines.

Covers the fractional-independence machinery, exact maximization of
homomorphism counts under vertex and edge budgets (over threshold graphs
and over all graphs up to isomorphism), the continuous limit search under
an edge-density budget, the two-star single-variable programs, and the
degree-sequence bound reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import inf, sqrt, ulp

from threshmax.graphs import Graph
from threshmax.homcount import BudgetError, hom_count, hom_density
from threshmax.threshold import (
    CreationSequence,
    LimitThreshold,
    _compiled,
    _edge_density,
    _merge_runs,
    _top_density,
    hom_count_blocks,
    limit_density,
    limit_edge_density,
    sequence_edge_count,
    three_part,
)

__all__ = [
    "FracIndepResult",
    "SearchResult",
    "DominationReport",
    "TwoStarInstance",
    "JansonRow",
    "JansonReport",
    "alpha_star",
    "independence_number",
    "domination_exponent",
    "verify_domination",
    "janson_bound",
    "search_threshold_max",
    "search_all_max",
    "all_graphs_up_to_iso",
    "limit_search",
    "two_star_f",
    "two_star_objective",
    "two_star_fprime",
    "two_star_fsecond",
    "two_star_feasible_interval",
    "two_star_no_interior_max",
    "janson_ratio_report",
]

_K2 = Graph(2, [(0, 1)])


# ── fractional independence ──────────────────────────────────────────────


@dataclass(frozen=True)
class FracIndepResult:
    """Optimum of max Σw s.t. w_u + w_v ≤ 1 on edges, w half-integral."""

    alpha_star: Fraction
    weights: tuple[Fraction, ...]


def alpha_star(h: Graph) -> FracIndepResult:
    """Fractional independence number by branch and bound in half-units.

    Half-integrality of the vertex LP makes the {0, 1/2, 1} search space
    exact.  Deterministic: vertices in decreasing-degree order, values
    tried high to low, first optimum kept.
    """
    if h.n > 13:
        raise BudgetError(f"alpha_star enumeration capped at 13 vertices, got {h.n}")
    if h.n == 0:
        return FracIndepResult(Fraction(0), ())
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    nbrs = [sorted(h.adjacency[v]) for v in range(h.n)]
    assigned = [-1] * h.n
    best_total = -1
    best_weights: list[int] = []

    def extend(i: int, total: int) -> None:
        nonlocal best_total, best_weights
        if total + 2 * (h.n - i) <= best_total:
            return
        if i == h.n:
            best_total = total
            best_weights = assigned.copy()
            return
        v = order[i]
        cap = 2
        for w in nbrs[v]:
            if assigned[w] >= 0:
                cap = min(cap, 2 - assigned[w])
        for val in range(cap, -1, -1):
            assigned[v] = val
            extend(i + 1, total + val)
        assigned[v] = -1

    extend(0, 0)
    return FracIndepResult(
        Fraction(best_total, 2), tuple(Fraction(w, 2) for w in best_weights)
    )


def independence_number(h: Graph) -> int:
    """Maximum independent set size by bitmask branch and bound."""
    if h.n > 20:
        raise BudgetError(f"independence search capped at 20 vertices, got {h.n}")
    adjm = [0] * h.n
    for u, v in h.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        # free vertices cost nothing; take them all at once
        free = 0
        rest = candidates
        while rest:
            v = (rest & -rest).bit_length() - 1
            if adjm[v] & candidates == 0:
                free |= 1 << v
            rest &= rest - 1
        if free:
            grow(candidates & ~free, size + free.bit_count())
            return
        # branch on a maximum-degree vertex within the candidate set
        pick = -1
        pick_deg = -1
        rest = candidates
        while rest:
            v = (rest & -rest).bit_length() - 1
            deg = (adjm[v] & candidates).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
            rest &= rest - 1
        grow(candidates & ~(adjm[pick] | (1 << pick)), size + 1)
        grow(candidates & ~(1 << pick), size)

    grow((1 << h.n) - 1, 0)
    return best


def domination_exponent(h: Graph) -> Fraction:
    """The tight exponent in t(H,G) ≤ t(K2,G)^e: vertex count minus the
    fractional independence number."""
    return Fraction(h.n) - alpha_star(h).alpha_star


@dataclass
class DominationReport:
    checked: int
    violations: list[Graph]
    min_ratio: float | None


def verify_domination(h: Graph, graphs) -> DominationReport:
    """Check t(H,G) ≤ t(K2,G)^e exactly for each G; e = domination exponent.

    The exponent is half-integral, so both sides are squared and compared
    as exact rationals.  min_ratio reports the slack min over G of
    t(K2,G)^e / t(H,G), skipping targets where t(H,G) = 0.
    """
    targets = list(graphs)
    exponent = domination_exponent(h)
    doubled = 2 * exponent
    if doubled.denominator != 1:
        raise RuntimeError(f"domination exponent {exponent} is not half-integral")
    e2 = doubled.numerator
    violations = []
    min_ratio = None
    for g in targets:
        th = hom_density(h, g)
        tk = hom_density(_K2, g)
        if th * th > tk**e2:
            violations.append(g)
        if th > 0:
            ratio = float(tk) ** float(exponent) / float(th)
            if min_ratio is None or ratio < min_ratio:
                min_ratio = ratio
    return DominationReport(len(targets), violations, min_ratio)


def janson_bound(h: Graph, n: int, m: int) -> float:
    """The order of the maximum H-count at n vertices and m edges:
    m^(|H|-a) * n^(2a-|H|) with a the fractional independence number."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    a = alpha_star(h).alpha_star
    return float(m) ** float(h.n - a) * float(n) ** float(2 * a - h.n)


# ── exact maximization searches ──────────────────────────────────────────


@dataclass(frozen=True)
class SearchResult:
    best_value: "int | float"
    witness: object
    explored: int


# (pattern graph, n) hom tables kept per kind of search.  A sweep over every
# m for one (H, n) reuses one table; a few more let callers alternate
# patterns.  A creation-sequence table at the 22-vertex cap has 2^21 rows.
_TABLE_CACHE_SIZE = 4


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _threshold_hom_table(h: Graph, n: int):
    """All creation sequences on n vertices with edge count and hom count,
    in lexicographic bit order."""
    rows = []
    for bits in product((0, 1), repeat=n - 1):
        seq = CreationSequence(bits)
        rows.append((bits, sequence_edge_count(seq), hom_count_blocks(h, seq)))
    return tuple(rows)


def search_threshold_max(h: Graph, n: int, m: int) -> SearchResult:
    """Exact max of hom(H, T) over threshold graphs with at most n vertices
    and at most m edges.

    Padding with isolated vertices never lowers a hom count, so only
    sequences on exactly n vertices are enumerated.  Ties go to the
    lexicographically smallest sequence.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > 22:
        raise BudgetError(f"sequence enumeration capped at 22 vertices, got {n}")
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    best = -1
    witness = None
    table = _threshold_hom_table(h, n)
    for bits, edges, value in table:
        if edges <= m and value > best:
            best = value
            witness = CreationSequence(bits)
    return SearchResult(best, witness, len(table))


def _canonical_code(adj: list[int]) -> tuple[int, ...]:
    """Canonical code of a graph given as neighbour bitmasks: two graphs get
    the same code exactly when they are isomorphic.

    Individualisation-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).  Vertex colours, starting from degrees, are
    refined to a stable partition: a vertex's new colour is the rank of
    (old colour, sorted neighbour colours), which is 1-dimensional
    Weisfeiler-Leman.  While a colour cell has more than one vertex, each
    vertex of the first such cell in turn gets a colour of its own and the
    colours are refined again.  Each branch ends in a vertex order; the
    code is the least adjacency bitstring (pairs i < j in lexicographic
    order) over these orders.  Swapping two twins (equal open or equal
    closed neighbourhoods) is an automorphism, so one twin per class is
    branched on.
    """
    n = len(adj)
    nbrs = [[u for u in range(n) if a >> u & 1] for a in adj]
    twin = [a if adj.count(a) > 1 else a | 1 << v for v, a in enumerate(adj)]
    pairs = list(combinations(range(n), 2))
    codes = []

    def search(colours):
        count = len(set(colours))
        while True:
            sigs = [(colours[v], tuple(sorted(colours[u] for u in nbrs[v]))) for v in range(n)]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            if len(rank) == count:
                break
            colours, count = [rank[s] for s in sigs], len(rank)
        if count == n:
            order = sorted(range(n), key=colours.__getitem__)
            codes.append(tuple(adj[order[i]] >> order[j] & 1 for i, j in pairs))
            return
        cell = min(c for c in colours if colours.count(c) > 1)
        tried = set()
        for v in range(n):
            if colours[v] == cell and twin[v] not in tried:
                tried.add(twin[v])
                # v keeps the even colour 2 * cell, the rest of its cell moves up
                search([2 * c + (c == cell and u != v) for u, c in enumerate(colours)])

    search([len(vs) for vs in nbrs])
    return min(codes)


def _grow_classes(parents, keep=None) -> tuple[Graph, ...]:
    """Isomorphism classes on n vertices grown from representatives of the
    classes on n - 1 vertices: one canonically labelled graph per class,
    ordered by (edge count, canonical code).

    Each parent gets a new vertex joined to every subset of its vertices.
    ``keep``, when given, drops the candidate graphs it rejects.  The result
    holds every class with a property that survives vertex deletion, such
    as bipartiteness, when the parents hold every such class on n - 1
    vertices.
    """
    n = parents[0].n + 1
    codes = set()
    for parent in parents:
        base = [sum(1 << u for u in parent.adjacency[v]) for v in range(n - 1)]
        for subset in range(1 << (n - 1)):
            adj = [a | (subset >> v & 1) << (n - 1) for v, a in enumerate(base)] + [subset]
            joins = [(v, n - 1) for v in range(n - 1) if subset >> v & 1]
            if keep is None or keep(Graph(n, [*parent.edges, *joins])):
                codes.add(_canonical_code(adj))
    pairs = list(combinations(range(n), 2))
    return tuple(
        Graph(n, [p for p, bit in zip(pairs, code) if bit])
        for code in sorted(codes, key=lambda code: (sum(code), code))
    )


@lru_cache(maxsize=None)
def all_graphs_up_to_iso(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism.

    Grown one vertex at a time from the (n-1)-vertex representatives and
    deduplicated by a canonical code (see ``_canonical_code``).  Ordered by
    (edge count, canonical code), so a search over the list that keeps the
    first maximum breaks ties toward the fewest edges.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > 7:
        raise BudgetError(f"isomorphism enumeration capped at 7 vertices, got {n}")
    if n == 0:
        return (Graph(0),)
    return _grow_classes(all_graphs_up_to_iso(n - 1))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _all_hom_table(h: Graph, n: int):
    return tuple((g.m, hom_count(h, g)) for g in all_graphs_up_to_iso(n))


def search_all_max(h: Graph, n: int, m: int) -> SearchResult:
    """Exact max of hom(H, G) over all graphs with at most n vertices and
    at most m edges, by isomorphism-class enumeration."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    reps = all_graphs_up_to_iso(n)
    table = _all_hom_table(h, n)
    best = -1
    witness = None
    for g, (edges, value) in zip(reps, table):
        if edges <= m and value > best:
            best = value
            witness = g
    return SearchResult(best, witness, len(reps))


# ── continuous limit search ──────────────────────────────────────────────


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _alternating(first_bit: int, parts: int) -> tuple[int, ...]:
    return tuple((first_bit + i) % 2 for i in range(parts))


def _repair(pattern, props, c: float):
    """Scale the dominating blocks down until the edge density is at most c,
    handing the removed mass to the isolated blocks.

    The density D(t) of the structure scaled by t is a quadratic in t with
    D(0) = 0, so its values at 1/2 and 1 fix it, and the largest feasible t
    is a root.  Moving mass from a dominating block to an isolated one only
    shrinks neighborhoods, so D is monotone on [0, 1] and the smaller
    positive root is the one.  Returns None when the pattern has no
    isolated block to absorb the mass.  props are float proportions summing
    to 1, and so is the result.
    """
    if _edge_density(pattern, props) <= c:
        return props
    ones = [j for j, b in enumerate(pattern) if b == 1]
    zeros = [j for j, b in enumerate(pattern) if b == 0]
    if not zeros:
        return None
    mass_one = sum(props[j] for j in ones)
    mass_zero = sum(props[j] for j in zeros)
    if mass_one == 0:
        return None
    if mass_zero > 0:
        share = [props[j] / mass_zero for j in zeros]
    else:
        share = [1.0 / len(zeros)] * len(zeros)

    def scaled(t: float):
        q = list(props)
        for j in ones:
            q[j] = t * props[j]
        spill = (1 - t) * mass_one
        for j, s in zip(zeros, share):
            q[j] = props[j] + spill * s
        total = sum(q)
        return tuple(x / total for x in q)

    whole, half = _edge_density(pattern, scaled(1.0)), _edge_density(pattern, scaled(0.5))
    a, b = 2 * whole - 4 * half, 4 * half - whole
    t = 2 * c / (b + sqrt(max(b * b + 4 * a * c, 0.0))) if c > 0 else 0.0
    # rounding can leave the root a few ulps too high; step down until the
    # density is within budget, which it is at t = 0
    step = ulp(t)
    q = scaled(t)
    while _edge_density(pattern, q) > c:
        t, step = max(t - step, 0.0), 2 * step
        q = scaled(t)
    return q


def _lattice_moves(parts: int):
    moves = []
    for delta in product((-1, 0, 1), repeat=parts):
        if any(delta) and sum(delta) == 0:
            moves.append(delta)
    return moves


def _refine(compiled, pattern, props, c: float, step: float, tol: float):
    """Steepest-ascent over zero-sum lattice directions with step halving.
    compiled is ``_compiled(h, pattern)``."""
    moves = _lattice_moves(len(pattern))
    cur = props
    cur_val = _top_density(compiled, cur)
    evals = 0
    while step >= tol and evals < 4000:
        best_val = cur_val
        best_props = None
        for delta in moves:
            cand = tuple(p + step * d for p, d in zip(cur, delta))
            if any(p < 0 for p in cand):
                continue
            total = sum(cand)
            cand = tuple(p / total for p in cand)
            cand = _repair(pattern, cand, c)
            if cand is None:
                continue
            val = _top_density(compiled, cand)
            evals += 1
            if val > best_val:
                best_val = val
                best_props = cand
        if best_props is None:
            step /= 2
        else:
            cur, cur_val = best_props, best_val
    return cur_val, cur


def _cleanup(pattern, props) -> LimitThreshold:
    merged = _merge_runs((b, p) for b, p in zip(pattern, props) if p > 0)
    total = sum(p for _, p in merged)
    return LimitThreshold(tuple((b, p / total) for b, p in merged))


def limit_search(
    h: Graph, c: float, max_parts: int = 4, grid: float = 0.02, refine_tol: float = 1e-6
) -> SearchResult:
    """Heuristic max of the limiting density of h under edge density c.

    Enumerates alternating block patterns with up to max_parts blocks and
    all proportion grids at the given resolution; infeasible points are
    projected onto the density-c surface by _repair, the best few per
    pattern are polished by coordinate refinement down to step refine_tol,
    and the single best structure is returned.  No optimality claim.
    """
    if not 0 <= c <= 1:
        raise ValueError(f"edge density budget must be in [0,1], got {c}")
    if not 1 <= max_parts <= 6:
        raise ValueError("max_parts must be between 1 and 6")
    if not 0 < grid <= 1:
        raise ValueError("grid must be a resolution in (0, 1]")
    # written so that NaN fails it too; at 0 the refinement never stops
    if not 0 < refine_tol < inf:
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol}")
    steps = max(1, round(1 / grid))
    explored = 0
    best_val = -1.0
    best = None
    for parts in range(1, max_parts + 1):
        for first_bit in (1, 0):
            pattern = _alternating(first_bit, parts)
            compiled = _compiled(h, pattern)
            top: list[tuple[float, tuple]] = []
            for comp in _compositions(steps, parts):
                props = tuple(x / steps for x in comp)
                repaired = _repair(pattern, props, c)
                explored += 1
                if repaired is None:
                    continue
                val = _top_density(compiled, repaired)
                top.append((val, repaired))
                top.sort(key=lambda t: -t[0])
                del top[3:]
            for _, start in top:
                val, props = _refine(compiled, pattern, start, c, grid, refine_tol)
                if val > best_val:
                    best_val = val
                    best = (pattern, props)
    if best is None:
        raise ValueError("no feasible structure found")
    witness = _cleanup(*best)
    # _cleanup's merge and renormalisation can move the density by rounding;
    # 1e-9 is the slack that perfbench's limit oracle allows too
    if limit_edge_density(witness) > c + 1e-9:
        raise RuntimeError(f"limit_search witness {witness} exceeds edge density {c}")
    return SearchResult(float(limit_density(h, witness)), witness, explored)


# ── the two-star single-variable programs ────────────────────────────────


@dataclass(frozen=True)
class TwoStarInstance:
    """One evaluation point of the block-proportion programs for the 2-star.

    c is the edge density inside the first three blocks, d their total
    proportion, k the proportion of dominating blocks after them, and beta
    the middle block's proportion, the free variable.  mode picks the
    program: "0lead" for blocks 0,1,0 and "1lead" for blocks 1,0,1.
    """

    c: float
    d: float
    k: float
    beta: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("0lead", "1lead"):
            raise ValueError(f"mode must be 0lead or 1lead, got {self.mode!r}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def two_star_f(inst: TwoStarInstance) -> float:
    """Closed form of the objective as a function of beta alone."""
    b, c, d, k = inst.beta, inst.c, inst.d, inst.k
    if inst.mode == "0lead":
        return -(b**3) / 4 + b * c + c * c / (4 * b) + k * (2 * c + d * k)
    e = d * d - c
    return -(b**3) / 4 + b * e + e * e / (4 * b) + 2 * c * d + 2 * c * k - d**3 + d * k * k


def two_star_objective(inst: TwoStarInstance) -> float:
    """The original three-term objective with the two bound proportions
    substituted from the density and total-mass constraints."""
    b, c, d, k = inst.beta, inst.c, inst.d, inst.k
    if inst.mode == "0lead":
        a = c / (2 * b) - b / 2
        g = d - b / 2 - c / (2 * b)
        return a * (k + b) ** 2 + b * (a + b + k) ** 2 + g * k * k
    g = (c - (b - d) ** 2) / (2 * b)
    a = d - b - g
    return a * (k + d - b) ** 2 + b * (g + k) ** 2 + g * (k + d) ** 2


def _two_star_fprime(b: float, c: float, d: float, mode: str) -> float:
    if mode == "0lead":
        return (4 * b * b * c - 3 * b**4 - c * c) / (4 * b * b)
    e = c - d * d
    return -(b * b + e) * (3 * b * b + e) / (4 * b * b)


def two_star_fprime(inst: TwoStarInstance) -> float:
    return _two_star_fprime(inst.beta, inst.c, inst.d, inst.mode)


def two_star_fsecond(inst: TwoStarInstance) -> float:
    b, c, d = inst.beta, inst.c, inst.d
    if inst.mode == "0lead":
        return (-3 * b**4 + c * c) / (2 * b**3)
    return (-3 * b**4 + (c - d * d) ** 2) / (2 * b**3)


def two_star_feasible_interval(c: float, d: float, mode: str):
    """The beta range where all three proportions are nonnegative, or None
    when the program is infeasible (requires c ≤ d²)."""
    if c < 0 or d <= 0:
        return None
    if c > d * d:
        return None
    root = sqrt(d * d - c)
    if mode == "0lead":
        lo, hi = d - root, sqrt(c)
    elif mode == "1lead":
        lo, hi = max(0.0, d - sqrt(c)), root
    else:
        raise ValueError(f"mode must be 0lead or 1lead, got {mode!r}")
    if hi <= lo or hi <= 0:
        return None
    return (max(lo, 0.0), hi)


def two_star_no_interior_max(
    c: float, d: float, k: float, mode: str, samples: int = 2000
) -> bool:
    """Scan the feasible interior for a stationary point that is a local
    maximum; True when none exists, which forces optima to the endpoints.
    f' is sampled at samples evenly spaced points, and each sign change is
    bisected to a root."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    interval = two_star_feasible_interval(c, d, mode)
    if interval is None:
        return True
    lo, hi = interval
    margin = (hi - lo) * 1e-3
    lo, hi = lo + margin, hi - margin
    if hi <= lo or lo <= 0:
        return True

    xs = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    prev = _two_star_fprime(xs[0], c, d, mode)
    for i in range(1, samples):
        cur = _two_star_fprime(xs[i], c, d, mode)
        root = None
        if abs(cur) < 1e-12:
            root = xs[i]
        elif prev * cur < 0:
            a, b, fa = xs[i - 1], xs[i], prev
            for _ in range(80):
                mid = (a + b) / 2
                fmid = _two_star_fprime(mid, c, d, mode)
                if fa * fmid <= 0:
                    b = mid
                else:
                    a, fa = mid, fmid
            root = (a + b) / 2
        if root is not None and two_star_fsecond(TwoStarInstance(c, d, k, root, mode)) <= 1e-9:
            return False
        prev = cur
    return True


# ── degree-sequence bound report ─────────────────────────────────────────


@dataclass(frozen=True)
class JansonRow:
    n: int
    m: int
    best_hom: int
    three_part_hom: int
    bound: float


@dataclass
class JansonReport:
    rows: list[JansonRow]
    min_ratio: float
    max_ratio: float


def janson_ratio_report(h: Graph, n_grid, m_grid=None) -> JansonReport:
    """Compare the exact threshold maximum and the three-block witness
    against the order bound, over the sparse regime 2n ≤ m ≤ C(n,2)."""
    rows = []
    for n in n_grid:
        cap = n * (n - 1) // 2
        ms = range(2 * n, cap + 1) if m_grid is None else m_grid
        for m in ms:
            if not 2 * n <= m <= cap:
                continue
            best = search_threshold_max(h, n, m)
            witness_hom = hom_count_blocks(h, three_part(n, m))
            rows.append(JansonRow(n, m, best.best_value, witness_hom, janson_bound(h, n, m)))
    if not rows:
        raise ValueError("empty grid")
    ratios = [r.best_hom / r.bound for r in rows]
    return JansonReport(rows, min(ratios), max(ratios))
