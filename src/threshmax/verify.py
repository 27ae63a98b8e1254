"""Acceptance suites: one self-contained check per correctness claim.

Each suite returns a pass flag plus a human-readable summary and never
raises on a property violation; failures are counted and reported so a
single run surveys the whole package.  All randomness is seeded.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from threshmax.graphs import (
    Graph,
    Hypergraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_graph,
    path_graph,
    star_graph,
)
from threshmax.homcount import hom_count, hom_count_naive, hom_density
from threshmax.moves import (
    forbidden_paths,
    hyper_local_move,
    hyper_thresholdize,
    is_threshold_hyper,
    local_move,
    protected_hom_count,
    thresholdize,
)
from threshmax.optimize import (
    TwoStarInstance,
    _grow_classes,
    all_graphs_up_to_iso,
    alpha_star,
    independence_number,
    janson_ratio_report,
    limit_search,
    search_all_max,
    search_threshold_max,
    two_star_f,
    two_star_feasible_interval,
    two_star_fprime,
    two_star_no_interior_max,
    two_star_objective,
    verify_domination,
)
from threshmax.threshold import (
    CreationSequence,
    build_graph,
    effective_blocks,
    hom_count_blocks,
    is_threshold,
    quasi_clique,
)

__all__ = [
    "CriterionResult",
    "SUITES",
    "run_suite",
    "run_all",
    "random_graph",
    "random_hypergraph",
]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_hypergraph(rng: random.Random, n: int, k: int, p: float = 0.5) -> Hypergraph:
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return Hypergraph(n, k, edges)


# ── individual suites ────────────────────────────────────────────────────


def _counting_oracle(seed: int):
    rng = random.Random(seed)
    checked = mismatches = 0
    for _ in range(200):
        h = random_graph(rng, rng.randint(1, 4))
        g = random_graph(rng, rng.randint(1, 5))
        checked += 1
        if hom_count(h, g) != hom_count_naive(h, g):
            mismatches += 1
    patterns = [complete_graph(2), path_graph(3), complete_graph(3), cycle_graph(4)]
    targets = [g for n in range(1, 6) for g in all_graphs_up_to_iso(n)]
    for h in patterns:
        for g in targets:
            checked += 1
            if hom_count(h, g) != hom_count_naive(h, g):
                mismatches += 1
    return mismatches == 0, f"{checked} pattern/target pairs, {mismatches} mismatches"


def _block_engine(seed: int):
    patterns = [
        complete_graph(2),
        star_graph(2),
        path_graph(4),
        complete_graph(3),
        cycle_graph(4),
        star_graph(3),
    ]
    checked = mismatches = 0
    for n in range(1, 8):
        for bits in product((0, 1), repeat=n - 1):
            seq = CreationSequence(bits)
            g = build_graph(seq)
            for h in patterns:
                checked += 1
                if hom_count_blocks(h, seq) != hom_count_naive(h, g):
                    mismatches += 1
    return mismatches == 0, f"{checked} sequence/pattern pairs, {mismatches} mismatches"


def _doubling(seed: int):
    rng = random.Random(seed)
    checked = mismatches = 0
    for _ in range(50):
        h = random_graph(rng, rng.randint(1, 4))
        g = random_graph(rng, rng.randint(1, 5))
        checked += 1
        if hom_density(h, double_graph(g)) != hom_density(h, g):
            mismatches += 1
    return mismatches == 0, f"{checked} exact density pairs, {mismatches} mismatches"


def _local_move(seed: int):
    rng = random.Random(seed)
    lemma_patterns = [
        path_graph(4),
        cycle_graph(4),
        disjoint_union(path_graph(3), complete_graph(2)),
    ]
    # threshold patterns have no forbidden paths, so no loss is allowed
    free_patterns = [
        complete_graph(3),
        star_graph(3),
        build_graph(quasi_clique(5, 7)),
        build_graph(quasi_clique(6, 11)),
    ]
    for h in free_patterns:
        if forbidden_paths(h):
            return False, f"pattern on {h.n} vertices unexpectedly has forbidden paths"
    checked = violations = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        moved, _ = local_move(g, u, v)
        for h in lemma_patterns:
            checked += 1
            if hom_count(h, moved) < protected_hom_count(h, g, u, v):
                violations += 1
        for h in free_patterns:
            checked += 1
            if hom_count(h, moved) < hom_count(h, g):
                violations += 1
    return violations == 0, f"{checked} move/pattern checks, {violations} violations"


def _thresholdize(seed: int):
    rng = random.Random(seed)
    checked = violations = 0
    for _ in range(500):
        n = rng.randint(1, 40)
        g = random_graph(rng, n)
        out, log = thresholdize(g)
        checked += 1
        if (
            not is_threshold(out)
            or log.move_count > n * n
            or log.total_movement > g.m
        ):
            violations += 1
    return violations == 0, f"{checked} random graphs, {violations} certificate violations"


def _sparse_equality(seed: int):
    patterns = [complete_graph(3), star_graph(2), star_graph(3)]
    checked = mismatches = 0
    for h in patterns:
        for n in range(1, 7):
            for m in range(0, n * (n - 1) // 2 + 1):
                checked += 1
                over_all = search_all_max(h, n, m).best_value
                over_threshold = search_threshold_max(h, n, m).best_value
                if over_all != over_threshold:
                    mismatches += 1
    return mismatches == 0, f"{checked} (pattern,n,m) cells, {mismatches} mismatches"


def _c4_remark(seed: int):
    over_all = search_all_max(cycle_graph(4), 4, 4)
    over_threshold = search_threshold_max(cycle_graph(4), 4, 4)
    ok = (
        over_all.best_value == 32
        and not is_threshold(over_all.witness)
        and over_threshold.best_value == 28
    )
    return ok, (
        f"all-graph max {over_all.best_value} (threshold witness: "
        f"{is_threshold(over_all.witness)}), threshold max {over_threshold.best_value}"
    )


def _alpha_star_suite(seed: int):
    """alpha*(G) equals the independence number on every bipartite graph with
    at most 8 vertices, one per isomorphism class (452 graphs), plus fixed
    values on the 5-cycle and on K6 + S3."""
    problems = []
    big = disjoint_union(complete_graph(6), star_graph(3))
    if alpha_star(big).alpha_star != 6:
        problems.append("fractional value on the 10-vertex union")
    if independence_number(big) != 4:
        problems.append("independence number on the 10-vertex union")
    if alpha_star(cycle_graph(5)).alpha_star != Fraction(5, 2):
        problems.append("fractional value on the 5-cycle")
    # G is bipartite exactly when hom(G, K2) > 0, and deleting a vertex
    # keeps it bipartite, so growth covers every class
    checked = mismatches = 0
    reps = (Graph(0),)
    for n in range(1, 9):
        reps = _grow_classes(reps, keep=lambda g: hom_count(g, complete_graph(2)) > 0)
        for g in reps:
            checked += 1
            if alpha_star(g).alpha_star != independence_number(g):
                mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} bipartite graphs with fractional gap")
    detail = f"{checked} bipartite graphs swept"
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


def _domination(seed: int):
    rng = random.Random(seed)
    patterns = [star_graph(2), complete_graph(3), path_graph(4)]
    targets = [g for n in range(1, 6) for g in all_graphs_up_to_iso(n)]
    seeded = [random_graph(rng, rng.randint(1, 8)) for _ in range(500)]
    checked = violations = 0
    for h in patterns:
        for pool in (targets, seeded):
            report = verify_domination(h, pool)
            checked += report.checked
            violations += len(report.violations)
    return violations == 0, f"{checked} exact comparisons, {violations} violations"


def _three_part_suite(seed: int):
    h = disjoint_union(complete_graph(6), star_graph(3))
    wide = limit_search(h, 1e-3, max_parts=3, grid=1 / 200)
    narrow = limit_search(h, 1e-3, max_parts=2, grid=1 / 200)
    ratio = wide.best_value / narrow.best_value
    return ratio > 10, (
        f"3-part best {wide.best_value:.3e} vs 2-part best "
        f"{narrow.best_value:.3e}, ratio {ratio:.1f}"
    )


def _two_star_suite(seed: int):
    bad_value = bad_slope = bad_interior = 0
    cs = [0.05 + 0.1 * i for i in range(10)]
    ds = [0.5 + 0.1 * i for i in range(10)]
    ks = [0.2 * i for i in range(10)]
    step = 1e-5
    for mode in ("0lead", "1lead"):
        for c in cs:
            for d in ds:
                for k in ks:
                    interval = two_star_feasible_interval(c, d, mode)
                    if interval is not None:
                        lo, hi = interval
                        pad = (hi - lo) * 0.05
                        for i in range(5):
                            beta = lo + pad + (hi - lo - 2 * pad) * i / 4
                            if beta <= step:
                                continue
                            inst = TwoStarInstance(c, d, k, beta, mode)
                            value = two_star_f(inst)
                            target = two_star_objective(inst)
                            if abs(value - target) > 1e-12 * max(1.0, abs(target)):
                                bad_value += 1
                            diff = (
                                two_star_f(TwoStarInstance(c, d, k, beta + step, mode))
                                - two_star_f(TwoStarInstance(c, d, k, beta - step, mode))
                            ) / (2 * step)
                            if abs(two_star_fprime(inst) - diff) > 1e-6 * max(1.0, abs(diff)):
                                bad_slope += 1
                    if not two_star_no_interior_max(c, d, k, mode):
                        bad_interior += 1
    collapsed_fail = 0
    for i in range(1, 20):
        c = i * 0.05
        res = limit_search(star_graph(2), c, max_parts=3, grid=0.02)
        if len(effective_blocks(res.witness, tol=1e-4).blocks) > 2:
            collapsed_fail += 1
    ok = not (bad_value or bad_slope or bad_interior or collapsed_fail)
    return ok, (
        f"closed-form mismatches {bad_value}, slope mismatches {bad_slope}, "
        f"interior maxima {bad_interior}, non-collapsing budgets {collapsed_fail}"
    )


def _quasi_clique_suite(seed: int):
    patterns = [path_graph(4), disjoint_union(complete_graph(3), complete_graph(2))]
    failures = []
    for h in patterns:
        for c in (0.9, 0.95):
            res = limit_search(h, c, max_parts=4, grid=0.02)
            eff = effective_blocks(res.witness, tol=1e-3)
            want = (math.sqrt(c), 1 - math.sqrt(c))
            ok = (
                len(eff.blocks) == 2
                and eff.blocks[0][0] == 1
                and eff.blocks[1][0] == 0
                and abs(float(eff.blocks[0][1]) - want[0]) <= 1e-3
                and abs(float(eff.blocks[1][1]) - want[1]) <= 1e-3
            )
            if not ok:
                failures.append((h.n, c))
    return not failures, (
        "all budgets collapse to the quasi-clique split"
        if not failures
        else f"non-quasi-clique outcomes at {failures}"
    )


def _janson_suite(seed: int):
    report = janson_ratio_report(star_graph(2), range(8, 13))
    window = report.max_ratio / report.min_ratio
    floor = min(r.three_part_hom / r.bound for r in report.rows)
    ok = window < 10 and floor >= 1 / 2500
    return ok, (
        f"{len(report.rows)} grid cells, ratio window {window:.2f}x, "
        f"three-part floor {floor:.4f} of the bound"
    )


def _hypergraph_suite(seed: int):
    rng = random.Random(seed)
    checked = violations = 0
    for _ in range(50):
        n = rng.randint(4, 12)
        g = random_hypergraph(rng, n, 3, rng.uniform(0.1, 0.5))
        out, report = hyper_thresholdize(g)
        checked += 1
        removal_cap = (math.isqrt(n - 1) + 1) * n * n
        if not is_threshold_hyper(out) or report.edges_removed > removal_cap:
            violations += 1
    agree = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        moved, count = local_move(g, u, v)
        hg = Hypergraph(n, 2, g.edges)
        hmoved, hcount = hyper_local_move(hg, u, v)
        if count == hcount and {frozenset(e) for e in moved.edges} == hmoved.edges:
            agree += 1
    ok = violations == 0 and agree == 100
    return ok, (
        f"{checked} reductions with {violations} violations; "
        f"{agree}/100 pairwise move agreements"
    )


SUITES = {
    "counting-oracle": _counting_oracle,
    "block-engine": _block_engine,
    "doubling": _doubling,
    "local-move": _local_move,
    "thresholdize": _thresholdize,
    "sparse-equality": _sparse_equality,
    "c4-remark": _c4_remark,
    "alpha-star": _alpha_star_suite,
    "domination": _domination,
    "three-part": _three_part_suite,
    "two-star": _two_star_suite,
    "quasi-clique": _quasi_clique_suite,
    "janson": _janson_suite,
    "hypergraph": _hypergraph_suite,
}


def run_suite(name: str, seed: int = 0) -> CriterionResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    start = time.perf_counter()
    passed, details = SUITES[name](seed)
    return CriterionResult(name, passed, details, time.perf_counter() - start)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_suite(name, seed) for name in SUITES]
