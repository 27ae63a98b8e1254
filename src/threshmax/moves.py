"""Neighborhood-shift local moves and thresholdization.

The local move picks a receiver u and a donor v and rewires every neighbor
of v outside u's closed neighborhood over to u.  Edge count is preserved
exactly, and afterwards v's neighborhood nests inside u's.  Repeating the
move against a maximum-degree receiver turns any graph into a threshold
graph within n^2 moves and total movement |E|; the hypergraph variant needs
an extra pruning step that deletes a vanishing fraction of edges.  A
k-uniform hypergraph is threshold when every vertex pair is comparable
under absorption; degree order makes that n - 1 checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, isqrt

from threshmax.graphs import Graph, Hypergraph
from threshmax.homcount import DEFAULT_BUDGET, hom_count, iter_homomorphisms
from threshmax.threshold import is_threshold

__all__ = [
    "MoveLog",
    "HyperMoveReport",
    "forbidden_paths",
    "local_move",
    "protected_hom_count",
    "unprotected_bound",
    "thresholdize",
    "hyper_local_move",
    "is_threshold_hyper",
    "dominating_set",
    "hyper_thresholdize",
]


@dataclass
class MoveLog:
    """Record of (receiver, donor, rewired count) triples in execution order."""

    moves: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def total_movement(self) -> int:
        return sum(moved for _, _, moved in self.moves)

    @property
    def move_count(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        lines = [f"{u} {v} {moved}" for u, v, moved in self.moves]
        lines.append(f"total {self.total_movement} count {self.move_count}")
        return "\n".join(lines) + "\n"


@dataclass
class HyperMoveReport:
    moves_used: int
    edges_removed: int
    homomorphism_loss_bound: int | None = None


# ── graphs ───────────────────────────────────────────────────────────────


def forbidden_paths(h: Graph) -> list[tuple[int, int, int, int]]:
    """Ordered 4-tuples (w, x, y, z) with edges wx, xy, yz and non-edges
    wy, xz; the wz pair is unconstrained.  Both orientations appear."""
    out = []
    for w in range(h.n):
        for x in h.adjacency[w]:
            for y in h.adjacency[x]:
                if y == w or y in h.adjacency[w]:
                    continue
                for z in h.adjacency[y]:
                    if z == w or z == x or z in h.adjacency[x]:
                        continue
                    out.append((w, x, y, z))
    out.sort()
    return out


def _shift_set(g: Graph, u: int, v: int) -> set[int]:
    """Neighbors of v outside the closed neighborhood of u."""
    return set(g.adjacency[v]) - set(g.adjacency[u]) - {u}


def local_move(g: Graph, u: int, v: int) -> tuple[Graph, int]:
    """Rewire every neighbor of v not already next to u over to u.

    Returns the new graph and the number of rewired vertices.  The edge
    count never changes: each removed vz is replaced by a uz that was
    absent by the choice of the shifted set.
    """
    if u == v:
        raise ValueError("receiver and donor must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertices ({u}, {v}) out of range for n={g.n}")
    shift = _shift_set(g, u, v)
    if not shift:
        return g, 0
    edges = set(g.edges)
    for z in shift:
        edges.discard((min(v, z), max(v, z)))
        edges.add((min(u, z), max(u, z)))
    out = Graph(g.n, edges)
    if out.m != g.m:
        raise RuntimeError(f"local_move changed the edge count from {g.m} to {out.m}")
    return out, len(shift)


def protected_hom_count(
    h: Graph,
    g: Graph,
    u: int,
    v: int,
    witness_vertices: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Count homomorphisms that survive local_move(g, u, v) for certain.

    A map is discarded when some forbidden path of h puts u, v, and a
    shifted vertex together inside its image.  With witness_vertices=3 only
    the first three path vertices form the image, so the discard condition
    is harder to meet and the count can only grow.
    """
    if u == v:
        raise ValueError("receiver and donor must differ")
    if witness_vertices not in (3, 4):
        raise ValueError("witness_vertices must be 3 or 4")
    paths = forbidden_paths(h)
    shift = _shift_set(g, u, v)
    if not paths or not shift:
        return hom_count(h, g, budget)
    witness_sets = sorted({tuple(p[:witness_vertices]) for p in paths})
    count = 0
    for phi in iter_homomorphisms(h, g, budget):
        for ws in witness_sets:
            image = {phi[a] for a in ws}
            if u in image and v in image and image & shift:
                break
        else:
            count += 1
    return count


def unprotected_bound(h: Graph, g: Graph, u: int, v: int) -> int:
    """Upper bound 4! * f * |shift| * n^(|H|-3) on the maps that
    protected_hom_count may discard, f counting unordered forbidden paths."""
    f = len(forbidden_paths(h)) // 2
    shift = _shift_set(g, u, v)
    return factorial(4) * f * len(shift) * g.n ** max(h.n - 3, 0)


def thresholdize(g: Graph) -> tuple[Graph, MoveLog]:
    """Apply local moves until the graph is threshold.

    Each round picks a maximum-degree vertex of the remaining subgraph
    (ties to the lowest index), shifts every other remaining vertex's
    neighbors to it in index order, sets aside vertices left isolated in
    the subgraph, and continues on the rest.  Set-aside vertices keep their
    edges; the moves never touch them again.  Uses at most n^2 moves with
    total movement at most the edge count, and checks by one degree peel
    that the result is threshold.
    """
    log = MoveLog()
    cur = g
    active = sorted(range(g.n))
    while len(active) > 1:
        live = set(active)
        receiver = max(active, key=lambda x: (len(cur.adjacency[x] & live), -x))
        for w in active:
            if w == receiver:
                continue
            cur, moved = local_move(cur, receiver, w)
            log.moves.append((receiver, w, moved))
        active = [w for w in active if w != receiver and cur.adjacency[w] & live]
    if log.move_count > g.n * g.n:
        raise RuntimeError(f"thresholdize used {log.move_count} moves, more than n^2")
    if log.total_movement > g.m:
        raise RuntimeError(f"thresholdize moved {log.total_movement} edges, more than m = {g.m}")
    if not is_threshold(cur):
        raise RuntimeError("thresholdize ended on a graph that is not threshold")
    return cur, log


# ── hypergraphs ──────────────────────────────────────────────────────────


def _ceil_sqrt(x: int) -> int:
    return isqrt(x - 1) + 1 if x > 0 else 0


def hyper_local_move(g: Hypergraph, u: int, v: int) -> tuple[Hypergraph, int]:
    """Replace each edge containing v but not u by its u-for-v swap, except
    when the swap is already an edge.  Edge count is preserved."""
    if u == v:
        raise ValueError("receiver and donor must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertices ({u}, {v}) out of range for n={g.n}")
    edges = set(g.edges)
    moved = 0
    for e in g.edges:
        if v in e and u not in e:
            swap = (e - {v}) | {u}
            if swap not in g.edges:
                edges.discard(e)
                edges.add(swap)
                moved += 1
    out = Hypergraph(g.n, g.k, edges)
    if out.m != g.m:
        raise RuntimeError(f"hyper_local_move changed the edge count from {g.m} to {out.m}")
    return out, moved


def _absorbs(g: Hypergraph, x: int, y: int) -> bool:
    """True when every edge with x and not y stays an edge after swapping
    x out for y."""
    for e in g.edges:
        if x in e and y not in e and ((e - {x}) | {y}) not in g.edges:
            return False
    return True


def is_threshold_hyper(g: Hypergraph) -> bool:
    """Every vertex pair must be comparable under the absorbs relation.

    Absorbing is transitive, a vertex absorbed by another has at most its
    degree, and comparable vertices of equal degree absorb both ways.  So
    every pair is comparable exactly when, in degree order, each vertex is
    absorbed by the next: n - 1 checks instead of one per pair.
    """
    degree = [0] * g.n
    for e in g.edges:
        for v in e:
            degree[v] += 1
    order = sorted(range(g.n), key=degree.__getitem__)
    return all(_absorbs(g, x, y) for x, y in zip(order, order[1:]))


def dominating_set(incidence, min_degree: int = 1) -> list[int]:
    """Greedy cover of the B side of a bipartite incidence structure.

    incidence maps each B-side key to the set of A-side vertices covering
    it.  Repeatedly picks the A-vertex covering the most uncovered keys
    (ties to the lowest vertex), until everything is covered.  Returns the
    picks in order.
    """
    if min_degree < 1:
        raise ValueError("min_degree must be at least 1")
    for key, nbrs in incidence.items():
        if not nbrs:
            raise ValueError(f"B-side vertex {key!r} has no neighbors")
        if len(nbrs) < min_degree:
            raise ValueError(f"B-side vertex {key!r} has degree {len(nbrs)} < {min_degree}")
    uncovered = set(incidence.keys())
    picks: list[int] = []
    while uncovered:
        gain: dict[int, int] = {}
        for key in uncovered:
            for a in incidence[key]:
                gain[a] = gain.get(a, 0) + 1
        best = max(gain, key=lambda a: (gain[a], -a))
        picks.append(best)
        uncovered = {key for key in uncovered if best not in incidence[key]}
    return picks


def hyper_thresholdize(
    g: Hypergraph, h: Hypergraph | None = None
) -> tuple[Hypergraph, HyperMoveReport]:
    """Turn a k-uniform hypergraph into a threshold one.

    Each round works on the remaining vertex set A: shells ((k-1)-subsets)
    with fewer than ceil(sqrt(|A|)) edges are pruned smallest-first, a
    greedy dominating set over the surviving shells is chained into its
    largest member d by local moves, edges containing d are frozen into the
    output, and the round repeats on A without d.  When h is supplied the
    report carries a crude union bound on the homomorphisms the moves and
    removals can lose.
    """
    k = g.k
    final_edges: set[frozenset] = set()
    work = set(g.edges)
    active = sorted(range(g.n))
    moves_used = 0
    edges_removed = 0
    while len(active) > k:
        t = _ceil_sqrt(len(active))
        while True:
            degree: dict[tuple[int, ...], int] = {}
            for e in work:
                for shell in combinations(sorted(e), k - 1):
                    degree[shell] = degree.get(shell, 0) + 1
            deficient = sorted(s for s, d in degree.items() if d < t)
            if not deficient:
                break
            worst = deficient[0]
            doomed = {e for e in work if set(worst) <= e}
            work -= doomed
            edges_removed += len(doomed)
        if not work:
            break
        incidence: dict[tuple[int, ...], set[int]] = {}
        for e in work:
            for shell in combinations(sorted(e), k - 1):
                rest = e - set(shell)
                (a,) = rest
                incidence.setdefault(shell, set()).add(a)
        picks = sorted(dominating_set(incidence, t))
        receiver = picks[-1]
        for donor in picks[:-1]:
            moved_g, _ = hyper_local_move(Hypergraph(g.n, k, work), receiver, donor)
            work = set(moved_g.edges)
            moves_used += 1
        final_edges |= {e for e in work if receiver in e}
        work = {e for e in work if receiver not in e}
        active.remove(receiver)
    final_edges |= work
    out = Hypergraph(g.n, k, final_edges)
    bound = None
    if h is not None:
        if h.k != k:
            raise ValueError(f"uniformity mismatch: {h.k} vs {k}")
        n = g.n
        per_move = h.n * (h.n - 1) * n ** max(h.n - 2, 0)
        per_removal = h.m * factorial(k) * n ** max(h.n - k, 0)
        bound = moves_used * per_move + edges_removed * per_removal
    report = HyperMoveReport(moves_used, edges_removed, bound)
    cap = _ceil_sqrt(g.n) * g.n ** (k - 1)
    if edges_removed > cap:
        raise RuntimeError(
            f"hyper_thresholdize removed {edges_removed} edges, more than ceil(sqrt(n)) n^(k-1) = {cap}"
        )
    return out, report
