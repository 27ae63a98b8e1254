"""Core graph and hypergraph containers plus elementary constructions.

Vertices are dense 0-indexed integers.  Both containers are immutable after
construction, so every operation returns a fresh object and values can be
shared freely between threads or cached by key.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

__all__ = [
    "ParseError",
    "Graph",
    "Hypergraph",
    "parse_graph",
    "serialize_graph",
    "parse_hypergraph",
    "serialize_hypergraph",
    "edge_density",
    "double_graph",
    "disjoint_union",
    "complement",
    "connected_components",
    "induced",
    "relabel",
    "add_dominating",
    "add_isolated",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
]


class ParseError(ValueError):
    """A graph or hypergraph document failed validation; names the bad line."""


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``edges`` is a frozenset of sorted pairs, ``adjacency[v]`` the frozenset
    of neighbours of ``v``.  Duplicate edges collapse; self-loops are
    rejected.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add(_pair(u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(seen))
        adj = [set() for _ in range(n)]
        for u, v in seen:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "adjacency", tuple(frozenset(a) for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def closed_neighborhood(self, v: int) -> frozenset:
        return self.adjacency[v] | {v}

    def has_edge(self, u: int, v: int) -> bool:
        return _pair(u, v) in self.edges

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @property
    def key(self):
        """Hashable identity used for caching: (n, sorted edge tuple)."""
        return (self.n, self.sorted_edges())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Hypergraph:
    """k-uniform hypergraph on vertices ``0..n-1``.

    Edges are frozensets of exactly k distinct vertices; duplicates collapse.
    """

    __slots__ = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if k < 1:
            raise ValueError(f"edge size must be positive, got {k}")
        seen = set()
        for e in edges:
            fe = frozenset(e)
            if len(fe) != k:
                raise ValueError(f"edge {sorted(set(e))} does not have exactly {k} distinct vertices")
            for v in fe:
                if not 0 <= v < n:
                    raise ValueError(f"edge vertex {v} out of range for n={n}")
            seen.add(fe)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", frozenset(seen))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(e)) for e in self.edges))

    @property
    def key(self):
        return (self.n, self.k, self.sorted_edges())

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.k, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, k={self.k}, m={self.m})"


# ── text format ──────────────────────────────────────────────────────────


def _parse(text: str, header: str):
    """Parse a ``header`` line (``'n m'``, or ``'n m k'`` for k-uniform
    edges; k is 2 without it) then m lines of k distinct vertex ids each.
    Returns (n, k, edges); every error names its line."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(f"line 1: missing {header!r} header")
    head = lines[0].split()
    if len(head) != len(header.split()):
        raise ParseError(f"line 1: expected {header!r}, got {lines[0]!r}")
    try:
        n, m, k = [int(x) for x in head] + [2] * (3 - len(head))
    except ValueError:
        raise ParseError(f"line 1: expected integers {header!r}, got {lines[0]!r}") from None
    if n < 0 or m < 0 or k < 1:
        raise ParseError(f"line 1: bad counts in {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} edges but {len(lines) - 1} edge lines follow")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != k:
            raise ParseError(f"line {i}: expected {k} vertex ids, got {ln!r}")
        try:
            vs = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {i}: expected integers, got {ln!r}") from None
        if len(set(vs)) != k:
            raise ParseError(f"line {i}: repeated vertex in {ln!r}")
        if not all(0 <= v < n for v in vs):
            raise ParseError(f"line {i}: vertex out of range 0..{n - 1} in {ln!r}")
        edges.append(vs)
    return n, k, edges


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented format: header ``n m`` then m lines ``u v``."""
    n, _, edges = _parse(text, "n m")
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; edges emitted sorted by (min, max) endpoint."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse header ``n m k`` then m lines of k vertex ids each."""
    n, k, edges = _parse(text, "n m k")
    return Hypergraph(n, k, edges)


def serialize_hypergraph(g: Hypergraph) -> str:
    out = [f"{g.n} {g.m} {g.k}"]
    out.extend(" ".join(str(v) for v in e) for e in g.sorted_edges())
    return "\n".join(out) + "\n"


# ── elementary operations ────────────────────────────────────────────────


def edge_density(g: Graph) -> Fraction:
    """Exact edge density 2m/n^2 (the K2 homomorphism density)."""
    if g.n == 0:
        raise ValueError("edge density undefined for the empty vertex set")
    return Fraction(2 * g.m, g.n * g.n)


def double_graph(g: Graph) -> Graph:
    """Blow every vertex up into a nonadjacent pair.

    Vertex v becomes {v, v+n}; each edge uv becomes the four edges between
    the two pairs, so the adjacency matrix is the 2x2 block matrix [[A, A],
    [A, A]].  Homomorphism densities are invariant under this doubling.
    """
    if g.n < 1:
        raise ValueError("doubling needs at least one vertex")
    n = g.n
    edges = []
    for u, v in g.edges:
        edges.extend([(u, v), (u, v + n), (u + n, v), (u + n, v + n)])
    return Graph(2 * n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges)
    edges.extend((u + a.n, v + a.n) for u, v in b.edges)
    return Graph(a.n + b.n, edges)


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    return Graph(g.n, edges)


def induced(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertex set, relabeled by sorted order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(vs), edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def relabel(g: Graph, mapping) -> Graph:
    """Apply a vertex bijection; mapping[v] is the new label of v."""
    perm = [mapping[v] for v in range(g.n)]
    if sorted(perm) != list(range(g.n)):
        raise ValueError("mapping is not a bijection onto 0..n-1")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def add_dominating(g: Graph) -> Graph:
    """Append vertex n adjacent to every existing vertex."""
    edges = list(g.edges) + [(v, g.n) for v in range(g.n)]
    return Graph(g.n + 1, edges)


def add_isolated(g: Graph) -> Graph:
    return Graph(g.n + 1, g.edges)


# ── small named graphs used throughout the test corpus ──────────────────


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves; vertex 0 is the centre."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
