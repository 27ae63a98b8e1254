import random
from itertools import combinations
from math import isqrt, log

import pytest

from threshmax import moves
from threshmax.graphs import (
    Graph,
    Hypergraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from threshmax.homcount import hom_count, hom_count_hyper
from threshmax.moves import (
    _absorbs,
    MoveLog,
    dominating_set,
    forbidden_paths,
    hyper_local_move,
    hyper_thresholdize,
    is_threshold_hyper,
    local_move,
    protected_hom_count,
    thresholdize,
    unprotected_bound,
)
from threshmax.threshold import build_graph, is_threshold, quasi_clique


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_hypergraph(rng, n, k, p=0.5):
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return Hypergraph(n, k, edges)


def shift_set(g, u, v):
    return set(g.adjacency[v]) - set(g.adjacency[u]) - {u}


def test_forbidden_paths_known():
    assert forbidden_paths(path_graph(4)) == [(0, 1, 2, 3), (3, 2, 1, 0)]
    assert forbidden_paths(complete_graph(4)) == []
    assert len(forbidden_paths(cycle_graph(4))) == 8
    assert forbidden_paths(complete_graph(3)) == []
    assert forbidden_paths(star_graph(3)) == []


def test_forbidden_paths_closed_under_reversal():
    rng = random.Random(2)
    for _ in range(20):
        h = random_graph(rng, rng.randrange(1, 7))
        paths = forbidden_paths(h)
        assert len(set(paths)) == len(paths)
        for w, x, y, z in paths:
            assert (z, y, x, w) in paths
            assert h.has_edge(w, x) and h.has_edge(x, y) and h.has_edge(y, z)
            assert not h.has_edge(w, y) and not h.has_edge(x, z)


def test_local_move_path_center():
    # donor 1 is the center of the path 0-1-2; receiver 0 takes neighbor 2
    g = path_graph(3)
    out, moved = local_move(g, 0, 1)
    assert moved == 1
    assert out.edges == frozenset({(0, 1), (0, 2)})
    assert set(out.adjacency[1]) <= set(out.adjacency[0]) | {0}


def test_local_move_dominating_receiver_is_noop():
    g = star_graph(3)
    out, moved = local_move(g, 0, 2)
    assert moved == 0 and out == g


def test_local_move_preserves_edges_and_nests():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 9))
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        out, moved = local_move(g, u, v)
        assert out.m == g.m
        assert moved == len(shift_set(g, u, v))
        assert set(out.adjacency[v]) <= set(out.adjacency[u]) | {u}
    with pytest.raises(ValueError):
        local_move(path_graph(3), 1, 1)
    with pytest.raises(ValueError):
        local_move(path_graph(3), 0, 5)


def test_triangle_count_never_drops():
    # no forbidden paths in K3, so every move keeps hom(K3, .) from falling
    rng = random.Random(29)
    k3 = complete_graph(3)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 8))
        u, v = rng.sample(range(g.n), 2)
        out, _ = local_move(g, u, v)
        assert hom_count(k3, out) >= hom_count(k3, g)


def test_protected_equals_hom_when_vacuous():
    rng = random.Random(41)
    g = random_graph(rng, 6)
    # K3 has no forbidden paths
    assert protected_hom_count(complete_graph(3), g, 0, 1) == hom_count(complete_graph(3), g)
    # dominating receiver gives an empty shifted set
    s = build_graph(quasi_clique(6, 9))
    recv = max(range(6), key=lambda x: s.degree(x))
    donor = (recv + 1) % 6
    assert protected_hom_count(path_graph(4), s, recv, donor) == hom_count(path_graph(4), s)


def test_local_move_keeps_protected_homs():
    rng = random.Random(59)
    patterns = [path_graph(4), disjoint_union(cycle_graph(4), path_graph(2))]
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 7))
        u, v = rng.sample(range(g.n), 2)
        out, _ = local_move(g, u, v)
        for h in patterns:
            assert hom_count(h, out) >= protected_hom_count(h, g, u, v)


def test_witness_variants_nest():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 6))
        u, v = rng.sample(range(g.n), 2)
        for h in (path_graph(4), cycle_graph(4)):
            p4 = protected_hom_count(h, g, u, v, witness_vertices=4)
            p3 = protected_hom_count(h, g, u, v, witness_vertices=3)
            assert p3 >= p4
    with pytest.raises(ValueError):
        protected_hom_count(path_graph(4), complete_graph(3), 0, 1, witness_vertices=2)


def test_unprotected_bound_holds():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 6))
        u, v = rng.sample(range(g.n), 2)
        for h in (path_graph(4), cycle_graph(4)):
            gap = hom_count(h, g) - protected_hom_count(h, g, u, v)
            assert 0 <= gap <= unprotected_bound(h, g, u, v)


def test_thresholdize_four_cycle_trace():
    out, log = thresholdize(cycle_graph(4))
    assert out.edges == frozenset({(0, 1), (0, 2), (0, 3), (2, 3)})
    assert is_threshold(out)
    assert log.total_movement == 1
    assert log.move_count == 5
    assert log.moves[0] == (0, 1, 1)


def test_thresholdize_fixes_threshold_graphs():
    from threshmax.threshold import CreationSequence

    rng = random.Random(71)
    seqs = [quasi_clique(7, m) for m in (0, 4, 9, 15, 21)]
    seqs += [
        CreationSequence(tuple(rng.randrange(2) for _ in range(rng.randrange(0, 8))))
        for _ in range(40)
    ]
    for seq in seqs:
        g = build_graph(seq)
        out, log = thresholdize(g)
        assert out == g
        assert log.total_movement == 0


def test_thresholdize_random_budgets():
    rng = random.Random(73)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 15))
        out, log = thresholdize(g)
        assert is_threshold(out)
        assert out.m == g.m
        assert log.move_count <= g.n * g.n
        assert log.total_movement <= g.m


def test_thresholdize_checks_its_output(monkeypatch):
    monkeypatch.setattr(moves, "local_move", lambda g, u, v: (g, 0))
    with pytest.raises(RuntimeError, match="not threshold"):
        thresholdize(cycle_graph(4))
    star = star_graph(3)
    assert thresholdize(star)[0] == star


def test_move_log_text():
    log = MoveLog([(0, 1, 2), (0, 3, 0)])
    assert log.to_text() == "0 1 2\n0 3 0\ntotal 2 count 2\n"
    assert log.total_movement == 2 and log.move_count == 2


def test_hyper_move_matches_graph_move_at_k2():
    rng = random.Random(79)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 9))
        u, v = rng.sample(range(g.n), 2)
        gh = Hypergraph(g.n, 2, [tuple(e) for e in g.edges])
        moved_h, count_h = hyper_local_move(gh, u, v)
        moved_g, count_g = local_move(g, u, v)
        assert count_h == count_g
        assert {tuple(sorted(e)) for e in moved_h.edges} == set(moved_g.sorted_edges())


def test_hyper_move_keeps_blocked_edges():
    g = Hypergraph(4, 3, [(1, 2, 3), (0, 2, 3)])
    out, moved = hyper_local_move(g, 0, 1)
    # the swap target of {1,2,3} already exists, so nothing changes
    assert moved == 0 and out == g
    g2 = Hypergraph(4, 3, [(1, 2, 3)])
    out2, moved2 = hyper_local_move(g2, 0, 1)
    assert moved2 == 1 and out2.edges == frozenset({frozenset({0, 2, 3})})


def test_hyper_move_keeps_avoiding_homs():
    rng = random.Random(83)
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    for _ in range(30):
        g = random_hypergraph(rng, rng.randrange(4, 7), 3)
        u, v = rng.sample(range(g.n), 2)
        out, _ = hyper_local_move(g, u, v)
        keep = sorted(set(range(g.n)) - {u, v})
        idx = {w: i for i, w in enumerate(keep)}
        avoid = Hypergraph(
            len(keep),
            3,
            [tuple(idx[w] for w in e) for e in g.edges if not e & {u, v}],
        )
        assert hom_count_hyper(h, out) >= hom_count_hyper(h, avoid)


def test_is_threshold_hyper_examples():
    n, k = 6, 3
    assert is_threshold_hyper(Hypergraph(n, k, combinations(range(n), k)))
    assert is_threshold_hyper(Hypergraph(4, 3, [(0, 1, 2)]))
    assert not is_threshold_hyper(Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]))
    assert is_threshold_hyper(Hypergraph(5, 3))
    assert is_threshold_hyper(Hypergraph(0, 3))


def pairwise_comparable(g):
    """The definition: every vertex pair is comparable under absorption."""
    return all(_absorbs(g, x, y) or _absorbs(g, y, x) for x, y in combinations(range(g.n), 2))


def shifted_hypergraph(rng, n, k):
    """A random fully shifted k-graph: every k-set lying below a random
    generator in the componentwise order of sorted tuples."""
    sets = list(combinations(range(n), k))
    gens = [rng.choice(sets) for _ in range(rng.randint(1, 3))]
    return [e for e in sets if any(all(a <= b for a, b in zip(e, g)) for g in gens)]


def test_is_threshold_hyper_matches_pairwise_definition():
    rng = random.Random(89)
    answers = []
    for k in (3, 4):
        for _ in range(60):
            n = rng.randint(k, 9)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [[perm[v] for v in e] for e in shifted_hypergraph(rng, n, k)]
            g = Hypergraph(n, k, edges)
            assert is_threshold_hyper(g) and pairwise_comparable(g)
            drop = rng.randrange(len(edges))
            cut = Hypergraph(n, k, edges[:drop] + edges[drop + 1 :])
            for h in (cut, random_hypergraph(rng, n, k, rng.random())):
                answers.append(is_threshold_hyper(h))
                assert answers[-1] == pairwise_comparable(h)
    # both answers occur, so neither side of the check is vacuous
    assert 10 < sum(answers) < len(answers) - 10


def test_dominating_set_basics():
    assert dominating_set({}, 1) == []
    inc = {("b", i): {0} | {i + 1} for i in range(4)}
    assert dominating_set(inc, 1) == [0]
    with pytest.raises(ValueError, match="no neighbors"):
        dominating_set({"x": set()}, 1)
    with pytest.raises(ValueError, match="degree"):
        dominating_set({"x": {1}}, 2)
    with pytest.raises(ValueError):
        dominating_set({}, 0)


def brute_min_cover(incidence, universe_a):
    keys = list(incidence)
    for size in range(len(universe_a) + 1):
        for cand in combinations(universe_a, size):
            cs = set(cand)
            if all(cs & incidence[k] for k in keys):
                return size
    raise AssertionError("no cover found")


def test_dominating_set_near_optimal():
    rng = random.Random(89)
    for _ in range(30):
        na, nb = rng.randrange(2, 9), rng.randrange(1, 10)
        inc = {}
        for b in range(nb):
            deg = rng.randrange(1, na + 1)
            inc[b] = set(rng.sample(range(na), deg))
        picks = dominating_set(inc, 1)
        assert all(set(inc[b]) & set(picks) for b in inc)
        opt = brute_min_cover(inc, range(na))
        assert len(picks) <= max(1, int((1 + log(nb)) * opt) + 1)


def test_hyper_thresholdize_trivial_inputs():
    g = Hypergraph(7, 3)
    out, report = hyper_thresholdize(g)
    assert out == g and report.moves_used == 0 and report.edges_removed == 0
    full = Hypergraph(6, 3, combinations(range(6), 3))
    out, report = hyper_thresholdize(full)
    assert report.edges_removed == 0
    assert is_threshold_hyper(out)


def test_hyper_thresholdize_random_postconditions():
    rng = random.Random(97)
    for _ in range(12):
        n = rng.randrange(4, 10)
        g = random_hypergraph(rng, n, 3)
        out, report = hyper_thresholdize(g)
        assert is_threshold_hyper(out)
        assert report.edges_removed <= (isqrt(n - 1) + 1) * n * n
        assert out.n == g.n and out.k == g.k


def test_hyper_thresholdize_loss_bound_present():
    rng = random.Random(101)
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    g = random_hypergraph(rng, 8, 3)
    out, report = hyper_thresholdize(g, h)
    assert report.homomorphism_loss_bound is not None
    assert report.homomorphism_loss_bound >= 0
    with pytest.raises(ValueError):
        hyper_thresholdize(g, Hypergraph(3, 2, [(0, 1)]))
