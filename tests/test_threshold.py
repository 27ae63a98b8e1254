import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from threshmax.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    relabel,
    star_graph,
)
from threshmax.homcount import hom_count_naive, hom_density
from threshmax.optimize import _canonical_code, all_graphs_up_to_iso
from threshmax.threshold import (
    _compiled,
    _edge_density,
    _top_density,
    BlockStructure,
    CreationSequence,
    LimitThreshold,
    blocks_of,
    blow_up,
    build_graph,
    chromatic_count,
    chromatic_polynomial,
    creation_sequence_of,
    effective_blocks,
    hom_count_blocks,
    is_threshold,
    limit_density,
    limit_edge_density,
    parts,
    quasi_clique,
    quasi_star,
    sequence_edge_count,
    three_part,
    to_sequence,
)


def all_sequences(n):
    for bits in product((0, 1), repeat=n - 1):
        yield CreationSequence(bits)


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def nested_neighbourhoods(g):
    """The definition: for every vertex pair, one open neighbourhood (minus
    the other vertex) contains the other's."""
    for u, v in combinations(range(g.n), 2):
        a, b = g.adjacency[u] - {v}, g.adjacency[v] - {u}
        if not (a <= b or b <= a):
            return False
    return True


def code(g):
    return _canonical_code([sum(1 << u for u in g.adjacency[v]) for v in range(g.n)])


def test_sequence_basics():
    s = CreationSequence.from_text("1011100")
    assert s.n == 8
    assert str(s) == "1011100"
    assert s.full_bits() == (1, 1, 0, 1, 1, 1, 0, 0)
    assert parts(s) == 4
    assert CreationSequence(()).full_bits() == (0,)
    with pytest.raises(ValueError):
        CreationSequence((0, 2))
    with pytest.raises(ValueError):
        CreationSequence.from_text("10x")
    # refused, not truncated to 0 and 1
    with pytest.raises(ValueError):
        CreationSequence((0.5, 1.9))
    assert CreationSequence((1.0, True, 0)).bits == (1, 1, 0)
    assert type(CreationSequence((1.0, True)).bits[1]) is int
    for bad in ((0.5, 2), (1, 2.7), (1, 0), (1, float("nan")), (1, float("inf")), (2, 1)):
        with pytest.raises(ValueError):
            BlockStructure(((0, 1), bad))
    assert BlockStructure(((True, 2.0),)).blocks == ((1, 2),)


def test_blocks_roundtrip():
    for n in range(1, 8):
        for seq in all_sequences(n):
            b = blocks_of(seq)
            assert b.n == n
            assert to_sequence(b) == seq
            # maximal runs alternate
            assert all(b.blocks[i][0] != b.blocks[i + 1][0] for i in range(len(b.blocks) - 1))


def test_build_graph_known():
    assert build_graph(CreationSequence.from_text("11")) == complete_graph(3)
    # the dominating vertex is created last, so the star centre is vertex 3
    assert build_graph(CreationSequence.from_text("001")) == Graph(4, [(0, 3), (1, 3), (2, 3)])
    assert build_graph(CreationSequence(())) == Graph(1)
    g = build_graph(CreationSequence.from_text("000"))
    assert g.m == 0 and g.n == 4
    assert build_graph(blocks_of(CreationSequence.from_text("11"))) == complete_graph(3)


def test_edge_count_formula():
    for n in range(1, 8):
        for seq in all_sequences(n):
            assert sequence_edge_count(seq) == build_graph(seq).m


def test_built_graphs_are_threshold():
    for n in range(1, 7):
        for seq in all_sequences(n):
            assert is_threshold(build_graph(seq))


def test_forbidden_shapes_are_not_threshold():
    assert not is_threshold(path_graph(4))
    assert not is_threshold(cycle_graph(4))
    assert not is_threshold(disjoint_union(path_graph(2), path_graph(2)))
    assert is_threshold(complete_graph(4))
    assert is_threshold(Graph(3))


def test_creation_sequence_recovery():
    for n in range(1, 7):
        for seq in all_sequences(n):
            g = build_graph(seq)
            rec = creation_sequence_of(g)
            h = build_graph(rec)
            assert h.m == g.m
            assert sorted(h.degree(v) for v in range(n)) == sorted(g.degree(v) for v in range(n))
    with pytest.raises(ValueError, match="threshold"):
        creation_sequence_of(path_graph(4))
    with pytest.raises(ValueError):
        creation_sequence_of(Graph(0))
    assert is_threshold(Graph(0))


def test_peel_matches_nested_neighbourhoods_on_small_classes():
    rng = random.Random(13)
    threshold_classes = 0
    for n in range(1, 8):
        for g in all_graphs_up_to_iso(n):
            answer = is_threshold(g)
            assert answer == nested_neighbourhoods(g)
            if answer:
                threshold_classes += 1
                for h in (g, shuffled(rng, g)):
                    assert code(build_graph(creation_sequence_of(h))) == code(g)
            else:
                with pytest.raises(ValueError, match="threshold"):
                    creation_sequence_of(g)
    # one threshold class per creation sequence: 2^(n-1) on n vertices
    assert threshold_classes == 2**7 - 1


def test_peel_on_relabelled_graphs():
    """Inputs not in creation order, up to 40 vertices, and the same graphs
    with one vertex pair toggled."""
    rng = random.Random(17)
    for _ in range(300):
        seq = CreationSequence(tuple(rng.randrange(2) for _ in range(rng.randrange(40))))
        g = shuffled(rng, build_graph(seq))
        # a threshold graph has exactly one creation sequence
        assert creation_sequence_of(g) == seq
        assert is_threshold(g) and nested_neighbourhoods(g)
        if g.n > 1:
            u, v = rng.sample(range(g.n), 2)
            toggled = Graph(g.n, g.edges ^ {(min(u, v), max(u, v))})
            assert is_threshold(toggled) == nested_neighbourhoods(toggled)


def test_quasi_clique_shapes():
    assert str(quasi_clique(5, 10)) == "1111"
    assert str(quasi_clique(7, 3)) == "110000"
    assert str(quasi_clique(5, 4)) == "1010"
    for n in range(1, 9):
        for m in range(n * (n - 1) // 2 + 1):
            seq = quasi_clique(n, m)
            assert seq.n == n
            assert sequence_edge_count(seq) == m
            assert parts(seq) <= 4
    with pytest.raises(ValueError):
        quasi_clique(4, 7)


def test_quasi_star_is_complement_shape():
    from threshmax.graphs import complement

    for n in range(1, 9):
        total = n * (n - 1) // 2
        for m in range(total + 1):
            seq = quasi_star(n, m)
            assert sequence_edge_count(seq) == m
            g = build_graph(seq)
            c = complement(build_graph(quasi_clique(n, total - m)))
            assert g.m == c.m
            assert sorted(g.degree(v) for v in range(n)) == sorted(
                c.degree(v) for v in range(n)
            )


def test_three_part_shapes():
    seq = three_part(20, 40)
    b = blocks_of(seq).blocks
    assert b == ((1, 6), (0, 13), (1, 1))
    assert sequence_edge_count(seq) <= 40
    seq = three_part(100, 400)
    b = blocks_of(seq).blocks
    assert b == ((1, 20), (0, 78), (1, 2))
    for n, m in [(10, 20), (12, 30), (30, 200), (50, 1000)]:
        seq = three_part(n, m)
        assert seq.n == n
        assert sequence_edge_count(seq) <= m
        assert is_threshold(build_graph(seq))
    with pytest.raises(ValueError):
        three_part(10, 5)
    with pytest.raises(ValueError):
        three_part(10, 46)


def test_chromatic_counts():
    for s in range(6):
        assert chromatic_count(path_graph(3), s) == s * (s - 1) ** 2
        assert chromatic_count(complete_graph(3), s) == s * (s - 1) * (s - 2)
        assert chromatic_count(cycle_graph(4), s) == (s - 1) ** 4 + (s - 1)
        assert chromatic_count(Graph(3), s) == s**3
    # colorings of K3 with 5 colors are injective homs into K5
    assert chromatic_count(complete_graph(3), 5) == 60
    assert chromatic_polynomial(Graph(0)) == (1,)
    assert chromatic_polynomial(cycle_graph(4)) == (0, -3, 6, -4, 1)


def test_chromatic_counts_match_naive_homs_into_cliques():
    for n in range(7):
        for g in all_graphs_up_to_iso(n):
            assert len(chromatic_polynomial(g)) == n + 1
            for k in range(n + 1):
                assert chromatic_count(g, k) == hom_count_naive(g, complete_graph(k))


def test_hom_count_blocks_matches_naive():
    graphs = [
        path_graph(2),
        star_graph(2),
        complete_graph(3),
        path_graph(4),
        cycle_graph(4),
        star_graph(3),
        disjoint_union(complete_graph(3), complete_graph(2)),
        disjoint_union(path_graph(3), Graph(1)),
    ]
    for n in range(1, 6):
        for seq in all_sequences(n):
            g = build_graph(seq)
            for h in graphs:
                assert hom_count_blocks(h, seq) == hom_count_naive(h, g)


def test_hom_count_blocks_accepts_block_structure():
    b = BlockStructure(((1, 4),))
    assert hom_count_blocks(complete_graph(3), b) == 4 * 3 * 2
    assert hom_count_blocks(Graph(0), b) == 1


def test_limit_threshold_validation():
    LimitThreshold(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        LimitThreshold(((1, 0.5), (0, 0.4)))
    with pytest.raises(ValueError):
        LimitThreshold(((1, -0.5), (0, 1.5)))
    with pytest.raises(ValueError):
        LimitThreshold(())
    with pytest.raises(ValueError):
        LimitThreshold(((0.5, 1.0),))
    assert LimitThreshold(((1.0, 1.0),)).bits == (1,)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            LimitThreshold(((1, bad), (0, 0.5)))
        with pytest.raises(ValueError):
            LimitThreshold(((1, bad),))
    t = LimitThreshold.from_text("1:0.2,0:0.7,1:1/10")
    assert t.bits == (1, 0, 1)
    assert t.proportions[2] == Fraction(1, 10)
    assert str(LimitThreshold(((1, Fraction(1, 2)), (0, Fraction(1, 2))))) == "1:1/2,0:1/2"


def test_limit_edge_density_closed_form():
    a, b, c = Fraction(1, 5), Fraction(7, 10), Fraction(1, 10)
    t = LimitThreshold(((0, a), (1, b), (0, c)))
    assert limit_edge_density(t) == 2 * a * b + b * b
    rng = random.Random(3)
    for _ in range(200):
        raw = [Fraction(rng.randint(0, 9)) for _ in range(rng.randint(1, 6))]
        raw[0] += 1
        total = sum(raw)
        t = LimitThreshold(tuple((rng.randint(0, 1), r / total) for r in raw))
        assert limit_edge_density(t) == limit_density(path_graph(2), t)


def test_limit_density_clique_pattern():
    # K6 against 1,0,1: either all six in dominating blocks, or one vertex
    # in the isolated middle with the rest after it
    x, y, z = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    t = LimitThreshold(((1, x), (0, y), (1, z)))
    k6 = complete_graph(6)
    assert limit_density(k6, t) == (x + z) ** 6 + 6 * y * z**5


def test_limit_density_star_pattern():
    x, y, z = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    t = LimitThreshold(((1, x), (0, y), (1, z)))
    assert limit_density(star_graph(3), t) == z + x * (x + z) ** 3 + y * z**3


def test_limit_density_multiplies_over_components():
    x, y = Fraction(2, 3), Fraction(1, 3)
    t = LimitThreshold(((1, x), (0, y)))
    h = disjoint_union(complete_graph(3), path_graph(2))
    assert limit_density(h, t) == limit_density(complete_graph(3), t) * limit_density(
        path_graph(2), t
    )


def test_plain_tuple_densities_match_public_ones():
    """The helpers the limit search calls on plain (pattern, props) tuples
    give exactly the values of limit_density and limit_edge_density."""
    rng = random.Random(17)
    graphs = [
        path_graph(4),
        star_graph(2),
        cycle_graph(4),
        complete_graph(3),
        disjoint_union(complete_graph(3), complete_graph(2)),
    ]
    for _ in range(60):
        pattern = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        raw = [rng.randint(1, 9) for _ in pattern]
        exact = tuple(Fraction(r, sum(raw)) for r in raw)
        floats = tuple(r / sum(raw) for r in raw)
        for props in (exact, floats):
            t = LimitThreshold(tuple(zip(pattern, props)))
            assert _edge_density(pattern, props) == limit_edge_density(t)
            for h in graphs:
                assert _top_density(_compiled(h, pattern), props) == limit_density(h, t)
        want = _edge_density(pattern, exact)
        assert _edge_density(pattern, floats) == pytest.approx(float(want), abs=1e-12)
        for h in graphs:
            want = _top_density(_compiled(h, pattern), exact)
            assert _top_density(_compiled(h, pattern), floats) == pytest.approx(float(want), abs=1e-12)


def test_limit_density_agrees_with_finite_blowup():
    rng = random.Random(9)
    for _ in range(5):
        raw = [rng.random() + 0.05 for _ in range(3)]
        s = sum(raw)
        props = [r / s for r in raw]
        props[-1] = 1.0 - props[0] - props[1]
        t = LimitThreshold(((1, props[0]), (0, props[1]), (1, props[2])))
        n = 400
        blocks = blow_up(t, n)
        fin = hom_density(path_graph(2), build_graph(blocks))
        lim = limit_edge_density(t)
        assert abs(float(fin) - lim) < 5.0 / n
        for h in (star_graph(2), complete_graph(3), cycle_graph(4)):
            fin = hom_count_blocks(h, blocks) / n**h.n
            assert abs(fin - limit_density(h, t)) < 10.0 / n


def test_blow_up_sizes():
    t = LimitThreshold(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    b = blow_up(t, 5)
    assert b.n == 5 and b.blocks == ((1, 3), (0, 2))
    tiny = LimitThreshold(((1, 0.001), (0, 0.999)))
    b = blow_up(tiny, 10)
    assert b.n == 10 and b.blocks == ((0, 10),)
    with pytest.raises(ValueError):
        blow_up(t, 0)


def test_effective_blocks():
    t = LimitThreshold(((1, 0.5), (0, 0.49995), (1, 0.00005)))
    e = effective_blocks(t, tol=1e-4)
    assert e.bits == (1, 0)
    assert abs(sum(e.proportions) - 1) < 1e-12
    # dropping a middle block makes neighbours merge
    t2 = LimitThreshold(((1, 0.5), (0, 0.00005), (1, 0.49995)))
    e2 = effective_blocks(t2, tol=1e-4)
    assert e2.bits == (1,)
    assert e2.proportions == (1.0,)
