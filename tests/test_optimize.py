import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from threshmax.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabel,
    star_graph,
)
from threshmax.homcount import BudgetError, hom_count, hom_density
from threshmax.optimize import (
    TwoStarInstance,
    _canonical_code,
    _grow_classes,
    all_graphs_up_to_iso,
    alpha_star,
    domination_exponent,
    independence_number,
    janson_bound,
    janson_ratio_report,
    limit_search,
    search_all_max,
    search_threshold_max,
    two_star_f,
    two_star_feasible_interval,
    two_star_fprime,
    two_star_fsecond,
    two_star_no_interior_max,
    two_star_objective,
    verify_domination,
)
from threshmax.threshold import (
    CreationSequence,
    LimitThreshold,
    build_graph,
    effective_blocks,
    hom_count_blocks,
    limit_edge_density,
    quasi_clique,
    three_part,
)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# ── fractional independence oracles ──────────────────────────────────────


def brute_alpha_star(h):
    # direct enumeration over half-integral weight vectors
    best = 0
    for w in product((0, 1, 2), repeat=h.n):
        if all(w[u] + w[v] <= 2 for u, v in h.edges):
            best = max(best, sum(w))
    return Fraction(best, 2)


def alpha_star_via_independent_sets(h):
    # second oracle: pick an independent set to get weight one, then put a
    # half on everything outside its closed neighborhood
    best = Fraction(0)
    for mask in range(1 << h.n):
        chosen = [v for v in range(h.n) if mask >> v & 1]
        if any(h.has_edge(u, v) for u, v in combinations(chosen, 2)):
            continue
        closed = set(chosen)
        for v in chosen:
            closed |= h.adjacency[v]
        best = max(best, Fraction(len(chosen)) + Fraction(h.n - len(closed), 2))
    return best


def brute_independence(h):
    best = 0
    for mask in range(1 << h.n):
        chosen = [v for v in range(h.n) if mask >> v & 1]
        if all(not h.has_edge(u, v) for u, v in combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def test_alpha_star_known_values():
    assert alpha_star(cycle_graph(5)).alpha_star == Fraction(5, 2)
    assert alpha_star(complete_graph(3)).alpha_star == Fraction(3, 2)
    assert alpha_star(star_graph(2)).alpha_star == 2
    assert alpha_star(path_graph(4)).alpha_star == 2
    assert alpha_star(empty_graph(4)).alpha_star == 4
    big = disjoint_union(complete_graph(6), star_graph(3))
    assert big.n == 10
    assert alpha_star(big).alpha_star == 6


def test_alpha_star_weights_are_feasible_and_tight():
    for h in [cycle_graph(5), path_graph(4), complete_graph(4), star_graph(3)]:
        res = alpha_star(h)
        assert len(res.weights) == h.n
        assert all(0 <= w <= 1 for w in res.weights)
        assert all(res.weights[u] + res.weights[v] <= 1 for u, v in h.edges)
        assert sum(res.weights) == res.alpha_star


def test_alpha_star_matches_both_oracles():
    rng = random.Random(4821)
    for _ in range(30):
        h = random_graph(rng, rng.randint(1, 7))
        got = alpha_star(h).alpha_star
        assert got == brute_alpha_star(h)
        assert got == alpha_star_via_independent_sets(h)


def test_alpha_star_budget():
    with pytest.raises(BudgetError):
        alpha_star(empty_graph(14))


def test_independence_number_known_and_random():
    assert independence_number(complete_graph(6)) == 1
    assert independence_number(star_graph(3)) == 3
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(disjoint_union(complete_graph(6), star_graph(3))) == 4
    rng = random.Random(993)
    for _ in range(30):
        h = random_graph(rng, rng.randint(1, 8))
        assert independence_number(h) == brute_independence(h)
    with pytest.raises(BudgetError):
        independence_number(empty_graph(21))


def test_domination_exponent_values():
    assert domination_exponent(star_graph(2)) == 1
    assert domination_exponent(complete_graph(2)) == 1
    assert domination_exponent(complete_graph(3)) == Fraction(3, 2)
    assert domination_exponent(path_graph(4)) == 2
    assert domination_exponent(empty_graph(3)) == 0


def test_verify_domination_small_targets():
    targets = [g for n in range(1, 5) for g in all_graphs_up_to_iso(n)]
    report = verify_domination(star_graph(2), targets)
    assert report.checked == len(targets)
    assert report.violations == []
    assert report.min_ratio is not None and report.min_ratio >= 1 - 1e-12
    # generator input must be fully consumed exactly once
    report2 = verify_domination(complete_graph(3), (g for g in targets))
    assert report2.checked == len(targets)
    assert report2.violations == []


def test_verify_domination_three_part_targets():
    targets = [build_graph(three_part(n, 2 * n + 3)) for n in (8, 10, 12)]
    for h in [star_graph(2), complete_graph(3), path_graph(4)]:
        report = verify_domination(h, targets)
        assert report.violations == []


def test_janson_bound_closed_forms():
    assert janson_bound(complete_graph(2), 9, 7) == pytest.approx(7.0)
    assert janson_bound(complete_graph(3), 4, 9) == pytest.approx(27.0)
    assert janson_bound(star_graph(2), 5, 3) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        janson_bound(complete_graph(2), 0, 3)


# ── exact searches ───────────────────────────────────────────────────────


def test_search_threshold_known():
    res = search_threshold_max(cycle_graph(4), 4, 4)
    assert res.best_value == 28
    assert str(res.witness) == "101"
    assert res.explored == 8

    res = search_threshold_max(complete_graph(2), 5, 3)
    assert res.best_value == 6
    assert res.explored == 16

    res = search_threshold_max(complete_graph(3), 6, 10)
    assert res.best_value == 60
    assert res.witness.bits == quasi_clique(6, 10).bits

    res = search_threshold_max(complete_graph(3), 5, 0)
    assert res.best_value == 0
    assert res.witness.bits == (0, 0, 0, 0)


def test_search_threshold_brute_force_agreement():
    # independent check: evaluate every sequence directly
    h = star_graph(2)
    for n in (3, 4, 5):
        for m in range(0, n * (n - 1) // 2 + 1):
            best = -1
            for bits in product((0, 1), repeat=n - 1):
                edges = sum(i + 1 for i, b in enumerate(bits) if b)
                if edges <= m:
                    g = build_graph(CreationSequence(bits))
                    best = max(best, hom_count(h, g))
            assert search_threshold_max(h, n, m).best_value == best


def test_search_threshold_budget():
    with pytest.raises(BudgetError):
        search_threshold_max(complete_graph(2), 23, 5)


def test_iso_enumeration_counts():
    expected = [1, 1, 2, 4, 11, 34, 156, 1044]
    for n, count in enumerate(expected):
        assert len(all_graphs_up_to_iso(n)) == count


def _masks(g):
    return [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]


def _two_colourable(g):
    return any(
        all((side >> u & 1) != (side >> v & 1) for u, v in g.edges) for side in range(1 << g.n)
    )


def _bipartite(g):
    return hom_count(g, complete_graph(2)) > 0


def test_bipartite_growth_counts():
    # OEIS A033995: bipartite graphs on n vertices up to isomorphism
    expected = [1, 2, 3, 7, 13, 35, 88, 303]
    reps = (Graph(0),)
    for n, count in enumerate(expected, start=1):
        reps = _grow_classes(reps, keep=_bipartite)
        assert len(reps) == count
        assert all(g.n == n and _two_colourable(g) for g in reps)


def test_iso_classes_match_networkx():
    nx = pytest.importorskip("networkx")

    def buckets(graphs):
        out = {}
        for g in graphs:
            key = (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))))
            out.setdefault(key, []).append(g)
        return out

    def to_nx(g):
        out = nx.empty_graph(g.n)
        out.add_edges_from(g.edges)
        return out

    reps = buckets(g for n in range(8) for g in all_graphs_up_to_iso(n))
    atlas = nx.graph_atlas_g()
    assert len(atlas) == sum(len(b) for b in reps.values())
    for a in atlas:
        key = (a.number_of_nodes(), a.number_of_edges(), tuple(sorted(d for _, d in a.degree())))
        assert sum(nx.is_isomorphic(a, to_nx(g)) for g in reps.get(key, [])) == 1

    bip = (Graph(0),)
    for _ in range(8):
        bip = _grow_classes(bip, keep=_bipartite)
        for bucket in buckets(bip).values():
            for g, h in combinations(bucket, 2):
                assert not nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_code_survives_relabeling():
    rng = random.Random(11)
    graphs = [
        empty_graph(8),
        complete_graph(8),
        cycle_graph(8),
        disjoint_union(cycle_graph(4), cycle_graph(4)),
        Graph(8, [(i, j) for i in range(4) for j in range(4, 8)]),
        Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),  # the cube
        Graph(8, [(2 * i, 2 * i + 1) for i in range(4)]),
        disjoint_union(complete_graph(3), cycle_graph(5)),
    ]
    for _ in range(300):
        n = rng.randint(1, 8)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        code = _canonical_code(_masks(g))
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert _canonical_code(_masks(relabel(g, perm))) == code


def test_iso_enumeration_shape():
    reps = all_graphs_up_to_iso(5)
    assert all(g.n == 5 for g in reps)
    by_edges = {}
    for g in reps:
        by_edges[g.m] = by_edges.get(g.m, 0) + 1
    # complement pairs classes with m and 10-m edges
    for m, count in by_edges.items():
        assert by_edges[10 - m] == count
    assert by_edges[0] == 1 and by_edges[10] == 1
    assert [g.m for g in reps] == sorted(g.m for g in reps)
    with pytest.raises(BudgetError):
        all_graphs_up_to_iso(8)
    with pytest.raises(ValueError):
        all_graphs_up_to_iso(-1)


def test_search_all_known():
    res = search_all_max(cycle_graph(4), 4, 4)
    assert res.best_value == 32
    assert res.witness.n == 4 and res.witness.m == 4
    assert hom_count(cycle_graph(4), res.witness) == 32
    assert sorted(res.witness.degree(v) for v in range(4)) == [2, 2, 2, 2]

    res = search_all_max(complete_graph(3), 5, 6)
    assert res.best_value == 24

    # an unrestricted maximum dominates the threshold one
    for h in [complete_graph(3), star_graph(3)]:
        for m in (2, 4, 6):
            assert (
                search_all_max(h, 5, m).best_value
                >= search_threshold_max(h, 5, m).best_value
            )


def test_search_all_matches_direct_scan():
    h = star_graph(2)
    reps = all_graphs_up_to_iso(4)
    for m in range(0, 7):
        want = max(hom_count(h, g) for g in reps if g.m <= m)
        assert search_all_max(h, 4, m).best_value == want


# ── limit search ─────────────────────────────────────────────────────────


def test_limit_search_full_density():
    res = limit_search(complete_graph(3), 1.0, max_parts=2, grid=0.1)
    assert res.best_value == pytest.approx(1.0, abs=1e-9)
    assert res.witness.blocks[0][0] == 1


def test_limit_search_edge_budget_is_tight_for_k2():
    res = limit_search(complete_graph(2), 0.36, max_parts=2, grid=0.05)
    assert res.best_value == pytest.approx(0.36, abs=1e-6)
    assert float(limit_edge_density(res.witness)) <= 0.36 + 1e-9


def test_repair_lands_on_the_budget():
    from threshmax.optimize import _repair

    def density(pattern, props):
        return limit_edge_density(LimitThreshold(tuple(zip(pattern, props))))

    rng = random.Random(11)
    for _ in range(300):
        parts, first = rng.randint(2, 5), rng.randint(0, 1)
        pattern = tuple((first + i) % 2 for i in range(parts))
        raw = [rng.random() for _ in range(parts)]
        props = tuple(x / sum(raw) for x in raw)
        c = rng.choice([0.0, rng.random() * density(pattern, props)])
        repaired = _repair(pattern, props, c)
        assert density(pattern, repaired) <= c
        assert density(pattern, repaired) >= c - 1e-12
        assert sum(repaired) == pytest.approx(1.0, abs=1e-12)
        ones = [j for j in range(parts) if pattern[j]]
        ratios = [repaired[j] / props[j] for j in ones]
        assert max(ratios) - min(ratios) <= 1e-9
    assert _repair((1, 0), (0.2, 0.8), 0.5) == (0.2, 0.8)
    assert _repair((1,), (1.0,), 0.5) is None


def test_limit_search_witness_reevaluates():
    from threshmax.threshold import limit_density

    h = star_graph(2)
    res = limit_search(h, 0.4, max_parts=3, grid=0.1)
    assert float(limit_density(h, res.witness)) == pytest.approx(res.best_value, abs=1e-9)
    assert res.explored > 0


def test_limit_search_two_star_collapses_to_two_blocks():
    res = limit_search(star_graph(2), 0.5, max_parts=3, grid=0.02)
    assert len(effective_blocks(res.witness, tol=1e-4).blocks) <= 2


def test_limit_search_monotone_in_budget():
    values = [
        limit_search(star_graph(2), c, max_parts=2, grid=0.05).best_value
        for c in (0.2, 0.4, 0.6, 0.8)
    ]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_limit_search_validation():
    with pytest.raises(ValueError):
        limit_search(complete_graph(2), 1.5)
    with pytest.raises(ValueError):
        limit_search(complete_graph(2), 0.5, max_parts=0)
    with pytest.raises(ValueError):
        limit_search(complete_graph(2), 0.5, grid=0.0)
    for tol in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="refine_tol"):
            limit_search(complete_graph(2), 0.5, refine_tol=tol)


def test_limit_search_rejects_a_witness_over_budget(monkeypatch):
    import threshmax.optimize as optimize

    monkeypatch.setattr(optimize, "_cleanup", lambda pattern, props: LimitThreshold(((1, 1.0),)))
    with pytest.raises(RuntimeError, match="exceeds edge density"):
        limit_search(complete_graph(2), 0.5, max_parts=2, grid=0.5)


# ── two-star programs ────────────────────────────────────────────────────


def feasible_betas(c, d, mode, count=7):
    interval = two_star_feasible_interval(c, d, mode)
    if interval is None:
        return []
    lo, hi = interval
    pad = (hi - lo) * 0.05
    lo, hi = lo + pad, hi - pad
    if hi <= lo or lo <= 0:
        return []
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def test_two_star_f_matches_objective():
    for mode in ("0lead", "1lead"):
        for c in (0.1, 0.25, 0.6):
            for d in (0.6, 1.0, 1.4):
                for k in (0.0, 0.3, 1.1):
                    for beta in feasible_betas(c, d, mode):
                        inst = TwoStarInstance(c, d, k, beta, mode)
                        assert two_star_f(inst) == pytest.approx(
                            two_star_objective(inst), abs=1e-10
                        )


def test_two_star_derivatives_match_differences():
    step = 1e-6
    for mode in ("0lead", "1lead"):
        for c, d, k in [(0.25, 1.0, 0.0), (0.4, 0.9, 0.5), (0.1, 1.2, 1.0)]:
            for beta in feasible_betas(c, d, mode, count=5):
                up = two_star_f(TwoStarInstance(c, d, k, beta + step, mode))
                down = two_star_f(TwoStarInstance(c, d, k, beta - step, mode))
                diff = (up - down) / (2 * step)
                got = two_star_fprime(TwoStarInstance(c, d, k, beta, mode))
                assert got == pytest.approx(diff, abs=1e-5)
                up = two_star_fprime(TwoStarInstance(c, d, k, beta + step, mode))
                down = two_star_fprime(TwoStarInstance(c, d, k, beta - step, mode))
                diff = (up - down) / (2 * step)
                got = two_star_fsecond(TwoStarInstance(c, d, k, beta, mode))
                assert got == pytest.approx(diff, abs=1e-4)


def test_two_star_stationary_point_example():
    inst = TwoStarInstance(0.25, 1.0, 0.0, 0.5, "0lead")
    assert two_star_fprime(inst) == 0.0
    assert two_star_fsecond(inst) < 0 or two_star_fsecond(inst) > 0


def test_two_star_no_interior_max_grid():
    for mode in ("0lead", "1lead"):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            for d in (0.8, 1.0, 1.3):
                for k in (0.0, 0.5, 1.5):
                    assert two_star_no_interior_max(c, d, k, mode)


def test_two_star_infeasible_is_vacuous():
    assert two_star_feasible_interval(0.9, 0.5, "0lead") is None
    assert two_star_no_interior_max(0.9, 0.5, 0.0, "0lead")


def test_two_star_scan_needs_two_samples():
    for samples in (-1, 0, 1):
        with pytest.raises(ValueError, match="samples"):
            two_star_no_interior_max(0.25, 1.0, 0.0, "0lead", samples=samples)
    assert two_star_no_interior_max(0.25, 1.0, 0.0, "0lead", samples=2)


def test_two_star_validation():
    with pytest.raises(ValueError):
        TwoStarInstance(0.2, 1.0, 0.0, 0.0, "0lead")
    with pytest.raises(ValueError):
        TwoStarInstance(0.2, 1.0, 0.0, 0.5, "middle")


# ── bound report ─────────────────────────────────────────────────────────


def test_janson_ratio_report_shape():
    report = janson_ratio_report(star_graph(2), [8])
    assert len(report.rows) == 28 - 16 + 1
    assert 0 < report.min_ratio <= report.max_ratio
    for row in report.rows:
        assert row.bound == pytest.approx(janson_bound(star_graph(2), row.n, row.m))
        assert row.three_part_hom <= row.best_hom
        seq = three_part(row.n, row.m)
        assert hom_count_blocks(star_graph(2), seq) == row.three_part_hom


def test_janson_ratio_report_explicit_m_grid():
    report = janson_ratio_report(complete_graph(3), [9, 10], m_grid=[20, 25])
    assert {(r.n, r.m) for r in report.rows} == {(9, 20), (9, 25), (10, 20), (10, 25)}
    with pytest.raises(ValueError):
        janson_ratio_report(complete_graph(3), [8], m_grid=[1])
