"""Threshold graphs: creation sequences, block structure, fast counting.

A threshold graph is grown one vertex at a time, each new vertex either
dominating (adjacent to everything so far) or isolated.  The creation
sequence records those choices as bits for vertices 1..n-1; one peel of the
sorted degree sequence recognises a threshold graph and recovers its
sequence.  Runs of equal bits form blocks.  For a fixed pattern of block
bits, hom(H, T) is an integer polynomial in the block sizes, compiled once
per connected component of H by one subset dynamic program whose
per-subset weights are chromatic polynomials.  ``hom_count_blocks`` evaluates it at the block
sizes; sending block sizes to proportions of n keeps only its top-degree
part, the exact limiting homomorphism density of ``limit_density``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt

from threshmax.graphs import Graph, connected_components, induced

__all__ = [
    "CreationSequence",
    "BlockStructure",
    "LimitThreshold",
    "blocks_of",
    "to_sequence",
    "parts",
    "sequence_edge_count",
    "build_graph",
    "is_threshold",
    "creation_sequence_of",
    "quasi_clique",
    "quasi_star",
    "three_part",
    "chromatic_count",
    "hom_count_blocks",
    "limit_density",
    "limit_edge_density",
    "blow_up",
    "effective_blocks",
]


@dataclass(frozen=True)
class CreationSequence:
    """Bits for vertices 1..n-1 in creation order; 1 dominating, 0 isolated."""

    bits: tuple[int, ...]

    def __post_init__(self):
        # checked before int(), which would truncate 0.5 or 1.9 silently
        bits = tuple(self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"creation bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @classmethod
    def from_text(cls, text: str) -> "CreationSequence":
        text = text.strip()
        if any(c not in "01" for c in text):
            raise ValueError(f"creation sequence must be a 0/1 string, got {text!r}")
        return cls(tuple(int(c) for c in text))

    @property
    def n(self) -> int:
        return len(self.bits) + 1

    def full_bits(self) -> tuple[int, ...]:
        """Bits for all n vertices.  Vertex 0 never has earlier vertices, so
        its bit is a convention: copying bits[0] puts it in the same block as
        vertex 1, which the pair's symmetry justifies."""
        if not self.bits:
            return (0,)
        return (self.bits[0],) + self.bits

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class BlockStructure:
    """Runs of creation bits: ((bit, size), ...) over all n vertices."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        for b, s in blocks:
            if b not in (0, 1):
                raise ValueError(f"block bit must be 0 or 1, got {b!r}")
            # written so that NaN, inf and 2.7 fail it too
            if not (s >= 1 and s % 1 == 0):
                raise ValueError(f"block size must be a positive integer, got {s!r}")
        object.__setattr__(self, "blocks", tuple((int(b), int(s)) for b, s in blocks))

    @property
    def n(self) -> int:
        return sum(s for _, s in self.blocks)

    def expand(self) -> tuple[int, ...]:
        out: list[int] = []
        for b, s in self.blocks:
            out.extend([b] * s)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(f"{b}:{s}" for b, s in self.blocks)


@dataclass(frozen=True)
class LimitThreshold:
    """Block structure with sizes replaced by proportions summing to 1.

    Proportions may be floats or Fractions; exact inputs stay exact through
    every density computation.
    """

    blocks: tuple[tuple[int, "Fraction | float"], ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a limit structure needs at least one block")
        total = 0
        for b, p in blocks:
            if b not in (0, 1):
                raise ValueError(f"block bit must be 0 or 1, got {b!r}")
            # written so that NaN fails it too
            if not 0 <= p < inf:
                raise ValueError(f"block proportion {p} is not finite and nonnegative")
            total += p
        if abs(total - 1) > 1e-12:
            raise ValueError(f"block proportions sum to {total}, expected 1")
        object.__setattr__(self, "blocks", tuple((int(b), p) for b, p in blocks))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.blocks)

    @property
    def proportions(self) -> tuple:
        return tuple(p for _, p in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "LimitThreshold":
        """Parse 'bit:prop,bit:prop,...'; props as decimals or fractions."""
        blocks = []
        for part in text.split(","):
            bit_text, _, prop_text = part.partition(":")
            if not prop_text:
                raise ValueError(f"expected bit:proportion, got {part!r}")
            blocks.append((int(bit_text), Fraction(prop_text)))
        return cls(tuple(blocks))

    def __str__(self) -> str:
        return ",".join(f"{b}:{p}" for b, p in self.blocks)


# ── conversions ──────────────────────────────────────────────────────────


def blocks_of(seq: CreationSequence) -> BlockStructure:
    """Run-length encode the full bit sequence.

    Its own loop rather than ``_merge_runs``: the threshold searches call it
    once per creation sequence, and the shared helper costs 10-20% more per
    call."""
    bits = seq.full_bits()
    blocks: list[tuple[int, int]] = []
    for b in bits:
        if blocks and blocks[-1][0] == b:
            blocks[-1] = (b, blocks[-1][1] + 1)
        else:
            blocks.append((b, 1))
    return BlockStructure(tuple(blocks))


def to_sequence(blocks: BlockStructure) -> CreationSequence:
    """Inverse of blocks_of up to the vertex-0 convention."""
    bits = blocks.expand()
    if not bits:
        raise ValueError("empty block structure")
    return CreationSequence(bits[1:])


def parts(x: "CreationSequence | BlockStructure") -> int:
    """Number of maximal equal-bit runs."""
    if isinstance(x, CreationSequence):
        return len(blocks_of(x).blocks)
    merged = blocks_of(to_sequence(x))
    return len(merged.blocks)


def sequence_edge_count(seq: CreationSequence) -> int:
    """Edges of the built graph: each dominating vertex joins all before it."""
    return sum(i for i, b in enumerate(seq.bits, start=1) if b)


def build_graph(x: "CreationSequence | BlockStructure") -> Graph:
    seq = to_sequence(x) if isinstance(x, BlockStructure) else x
    full = seq.full_bits()
    n = len(full)
    edges = [(u, v) for v in range(1, n) if full[v] for u in range(v)]
    return Graph(n, edges)


# ── recognition ──────────────────────────────────────────────────────────


def _peel(g: Graph) -> tuple[int, ...] | None:
    """Creation bits of g by the degree peel, or None when g is not threshold.

    Degrees are sorted once and peeled from both ends.  With d dominating
    vertices peeled so far, each remaining vertex has lost exactly d
    neighbours, so the top one is dominating in what remains when its degree
    is d + (hi - lo), and the bottom one isolated when its degree is d.  A
    dominating vertex has the top remaining degree and an isolated one the
    bottom, so when neither end qualifies g is not threshold (Mahadev and
    Peled, Threshold Graphs and Related Topics, 1995).  O(n log n + m).
    """
    degrees = sorted(len(a) for a in g.adjacency)
    lo, hi, dom = 0, g.n - 1, 0
    bits: list[int] = []
    while lo < hi:
        if degrees[hi] - dom == hi - lo:
            bits.append(1)
            dom += 1
            hi -= 1
        elif degrees[lo] == dom:
            bits.append(0)
            lo += 1
        else:
            return None
    return tuple(reversed(bits))


def is_threshold(g: Graph) -> bool:
    """True when the degree peel (``_peel``) takes g apart; equivalently,
    the open neighbourhoods of every vertex pair are nested."""
    return _peel(g) is not None


def creation_sequence_of(g: Graph) -> CreationSequence:
    """Recover a creation sequence by the degree peel.

    The returned sequence rebuilds a graph isomorphic to g (vertices are
    relabeled into creation order).  Raises ValueError when some peel step
    finds neither a dominating nor an isolated vertex.
    """
    if g.n == 0:
        raise ValueError("no creation sequence for the empty vertex set")
    bits = _peel(g)
    if bits is None:
        raise ValueError("not a threshold graph: a peel step finds no dominating and no isolated vertex")
    return CreationSequence(bits)


# ── named extremal constructions ─────────────────────────────────────────


def quasi_clique(n: int, m: int) -> CreationSequence:
    """Clique on k vertices plus one partial vertex, rest isolated.

    k is the largest clique fitting in m edges; the leftover r = m - C(k,2)
    edges attach a further vertex to r clique vertices.  Uses exactly m
    edges.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} out of range for n={n}")
    k = 1
    while k + 1 <= n and (k + 1) * k // 2 <= m:
        k += 1
    r = m - k * (k - 1) // 2
    if r == 0:
        bits = [1] * (k - 1) + [0] * (n - k)
    else:
        # the partial vertex is created before the last r clique vertices,
        # so exactly those r dominating additions reach it
        bits = [1] * (k - r - 1) + [0] + [1] * r + [0] * (n - k - 1)
    return CreationSequence(tuple(bits))


def quasi_star(n: int, m: int) -> CreationSequence:
    """Complement of the quasi clique: dominating vertices plus one partial."""
    if n < 1:
        raise ValueError("need at least one vertex")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} out of range for n={n}")
    comp = quasi_clique(n, total - m)
    return CreationSequence(tuple(1 - b for b in comp.bits))


def three_part(n: int, m: int) -> CreationSequence:
    """Clique block, isolated block, dominating block sized for n vertices
    and about m edges (never more than m).

    Clique size isqrt(m), dominating tail m // (2n).  Intended for the
    sparse regime 2n <= m <= C(n,2); outside it the middle block would get
    negative size, which raises.
    """
    if not 2 * n <= m <= n * (n - 1) // 2:
        raise ValueError(f"need 2n <= m <= C(n,2), got n={n}, m={m}")
    clique = isqrt(m)
    tail = m // (2 * n)
    middle = n - clique - tail
    if middle < 0:
        raise ValueError(f"no room for the isolated block at n={n}, m={m}")
    bits = [1] * (clique - 1) + [0] * middle + [1] * tail
    seq = CreationSequence(tuple(bits))
    if sequence_edge_count(seq) > m:
        raise RuntimeError(f"three_part({n}, {m}) built more than m edges")
    return seq


# ── the block polynomial engine ──────────────────────────────────────────

# Compiled (pattern graph, bit pattern) polynomials kept.  A creation
# sequence on n vertices has an alternating bit pattern of at most n - 1
# blocks, so one search_threshold_max table at its 22-vertex cap visits
# 2 * 21 patterns of one graph.
_COMPILED_CACHE_SIZE = 64


def _poly_eval(p: tuple[int, ...], x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _neighbour_masks(h: Graph) -> list[int]:
    """The union of the neighbourhoods of every vertex subset, by mask."""
    adjm = [0] * h.n
    for u, v in h.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u
    nbr = [0] * (1 << h.n)
    for mask in range(1, 1 << h.n):
        low = mask & -mask
        nbr[mask] = nbr[mask ^ low] | adjm[low.bit_length() - 1]
    return nbr


def _subset_chromatic(nbr: list[int]) -> list[tuple[int, ...]]:
    """Chromatic polynomial of every induced subgraph h[S], by mask S.

    Counts the partitions of S into k independent sets, with the block of
    S's lowest vertex chosen first, then changes from the falling-factorial
    basis: P(h[S], x) = sum over k of a_k(S) * x(x-1)...(x-k+1).
    """
    size = len(nbr)
    falling = [(1,)]
    for k in range(size.bit_length() - 1):
        prev = falling[-1]
        falling.append(tuple(a - k * b for a, b in zip((0,) + prev, prev + (0,))))
    partitions: list[list[int]] = [[1]]
    polys = [(1,)]
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        counts = [0] * (mask.bit_count() + 1)
        sub = rest
        while True:
            block = sub | low
            if not nbr[block] & block:
                for k, a in enumerate(partitions[mask ^ block]):
                    counts[k + 1] += a
            if sub == 0:
                break
            sub = (sub - 1) & rest
        partitions.append(counts)
        poly = [0] * len(counts)
        for k, a in enumerate(counts):
            for d, f in enumerate(falling[k]):
                poly[d] += a * f
        polys.append(tuple(poly))
    return polys


def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients (index = degree) of the chromatic polynomial: n + 1
    entries for n vertices."""
    return _subset_chromatic(_neighbour_masks(g))[-1]


def chromatic_count(g: Graph, colors: int) -> int:
    """Number of proper colorings of g with the given number of colors."""
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    return _poly_eval(chromatic_polynomial(g), colors)


def _compile_component(h: Graph, pattern: tuple[int, ...]):
    """hom(h, T) as a polynomial in the block sizes of a target T with the
    given block bits, split as (top-degree terms, the rest).

    Vertices of h are assigned to blocks left to right.  A subset S landing
    in an isolated block of size s must be independent with no edges to
    earlier blocks and weighs s^|S|; a subset landing in a dominating block
    weighs P(h[S], s), its proper colorings with s colors, cross edges
    backwards being automatic.  A term is (coefficient, ((block, exponent),
    ...)).  Chromatic polynomials are monic, so the top-degree terms are the
    same with every dominating weight replaced by s^|S|: they give the
    limiting density, where collisions inside a block vanish.
    """
    hn = h.n
    full = (1 << hn) - 1
    nbr = _neighbour_masks(h)
    chrom = _subset_chromatic(nbr)
    dp: list[dict[tuple[int, ...], int]] = [dict() for _ in range(1 << hn)]
    dp[0][(0,) * len(pattern)] = 1
    for j, bit in enumerate(pattern):
        ndp: list[dict[tuple[int, ...], int]] = [dict() for _ in range(1 << hn)]
        for mask in range(1 << hn):
            monos = dp[mask]
            if not monos:
                continue
            comp = full & ~mask
            sub = comp
            while True:
                if bit:
                    weight = chrom[sub]
                elif nbr[sub] & (mask | sub):
                    weight = ()
                else:
                    weight = (0,) * sub.bit_count() + (1,)
                out = ndp[mask | sub]
                for exps, coeff in monos.items():
                    for d, w in enumerate(weight):
                        if w:
                            e2 = exps[:j] + (d,) + exps[j + 1 :]
                            out[e2] = out.get(e2, 0) + coeff * w
                if sub == 0:
                    break
                sub = (sub - 1) & comp
        dp = ndp
    top, rest = [], []
    for exps, coeff in dp[full].items():
        if coeff:
            term = (coeff, tuple((j, e) for j, e in enumerate(exps) if e))
            (top if sum(exps) == hn else rest).append(term)
    return tuple(top), tuple(rest)


@lru_cache(maxsize=_COMPILED_CACHE_SIZE)
def _compiled(h: Graph, pattern: tuple[int, ...]):
    """The compiled polynomial of each connected component of h.  Counts
    multiply over components, and compiling each apart keeps every
    polynomial small."""
    return tuple(_compile_component(induced(h, comp), pattern) for comp in connected_components(h))


def _evaluate(terms, values):
    total = 0
    for coeff, factors in terms:
        term = coeff
        for j, e in factors:
            term = term * values[j] ** e
        total += term
    return total


def hom_count_blocks(h: Graph, target: "BlockStructure | CreationSequence") -> int:
    """hom(h, built graph) directly from the block structure: the compiled
    polynomial of each component of h at the block sizes, multiplied."""
    if isinstance(target, CreationSequence):
        target = blocks_of(target)
    sizes = [s for _, s in target.blocks]
    count = 1
    for top, rest in _compiled(h, tuple(b for b, _ in target.blocks)):
        count *= _evaluate(top, sizes) + _evaluate(rest, sizes)
    return count


# ── limiting densities ───────────────────────────────────────────────────


def _top_density(compiled, props):
    """``limit_density`` from ``_compiled`` polynomials and plain proportions."""
    result = 1
    for top, _ in compiled:
        result = result * _evaluate(top, props)
    return result


def _edge_density(pattern, props):
    """``limit_edge_density`` from plain block bits and proportions."""
    total, before = 0, 0
    for bit, p in zip(pattern, props):
        if bit:
            total += p * (p + 2 * before)
        before += p
    return total


def limit_density(h: Graph, limit: LimitThreshold):
    """Limiting homomorphism density of h in blowups of the limit structure:
    the top-degree part of the block polynomial at the proportions.

    Exact when every proportion is a Fraction; float proportions give float
    output.  Disconnected h multiplies over components.
    """
    return _top_density(_compiled(h, limit.bits), limit.proportions)


def limit_edge_density(limit: LimitThreshold):
    """Limiting edge density t(K2, .) of the limit structure: the sum over
    dominating blocks j of p_j (p_j + 2 S_<j), S_<j the mass before j."""
    return _edge_density(limit.bits, limit.proportions)


# ── discretisation and cleanup ───────────────────────────────────────────


def _merge_runs(pairs) -> list[tuple[int, "int | Fraction | float"]]:
    """Merge neighbouring (bit, weight) pairs with equal bits, adding their
    weights left to right."""
    runs: list[tuple[int, "int | Fraction | float"]] = []
    for b, w in pairs:
        if runs and runs[-1][0] == b:
            runs[-1] = (b, runs[-1][1] + w)
        else:
            runs.append((b, w))
    return runs


def blow_up(limit: LimitThreshold, n: int) -> BlockStructure:
    """Integer block sizes approximating the proportions at n vertices.

    Sizes are floored; leftover vertices go to the largest block.  Zero
    blocks are dropped and equal-bit neighbours merged.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    sizes = [int(p * n) for p in limit.proportions]
    short = n - sum(sizes)
    if short:
        big = max(range(len(sizes)), key=lambda j: (limit.proportions[j], -j))
        sizes[big] += short
    blocks = _merge_runs((b, s) for b, s in zip(limit.bits, sizes) if s > 0)
    if not blocks:
        raise ValueError("all blocks rounded to zero")
    return BlockStructure(tuple(blocks))


def effective_blocks(limit: LimitThreshold, tol: float = 1e-4) -> LimitThreshold:
    """Drop blocks below tol, merge equal-bit neighbours, renormalize."""
    merged = _merge_runs((b, p) for b, p in limit.blocks if p >= tol)
    if not merged:
        raise ValueError(f"no block has proportion >= {tol}")
    total = sum(p for _, p in merged)
    return LimitThreshold(tuple((b, p / total) for b, p in merged))
