"""Immutable bitset-backed simple graphs and the two text formats of the CLI.

Adjacency is one Python int per vertex, so neighborhood containment and
set algebra are word-parallel. Vertices are always the dense range 0..n-1.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import GraphFormatError, SizeGuardExceeded

# Largest vertex count either parser accepts. Both check a header against it
# before allocating anything for the graph, so a header alone cannot ask for
# gigabytes.
MAX_N = 1 << 16


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise SizeGuardExceeded(f"graph has n={n} vertices; the parsers accept n<={MAX_N}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest(mask: int) -> int:
    """The lowest set bit position of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1)):
                yield u, u + 1 + v

    def add_vertex(self, neighbor_mask: int) -> "Graph":
        """New graph with one extra vertex adjacent to the masked vertices."""
        n = self.n
        bit = 1 << n
        rows = [r | bit if (neighbor_mask >> v) & 1 else r for v, r in enumerate(self.rows)]
        rows.append(neighbor_mask & ((1 << n) - 1))
        return Graph(n + 1, tuple(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def empty(n: int) -> Graph:
    return Graph.from_edges(n)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices plus the new->old relabeling."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(keep)}
    kept = 0
    for v in keep:
        kept |= 1 << v
    rows = []
    for v in keep:
        row = 0
        for u in bits(g.rows[v] & kept):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(keep), tuple(rows)), tuple(keep)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by minimum vertex index."""
    seen = 0
    comps = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            grow = 0
            for u in bits(frontier):
                grow |= g.rows[u]
            frontier = grow & ~comp
            comp |= grow
        seen |= comp
        comps.append(frozenset(bits(comp)))
    return comps


# -- graph6 ------------------------------------------------------------------
#
# Printable-ASCII encoding: a size header, then the upper triangle of the
# adjacency matrix read column by column (x01, x02, x12, x03, ...), packed
# into big-endian 6-bit groups offset by 63.

_G6_HEADER = ">>graph6<<"
_G6_OUTSIDE = re.compile("[^?-~]")  # the alphabet is chr(63) .. chr(126)
_G6_BITS = {chr(63 + d): format(d, "06b") for d in range(64)}


def _g6_encode_size(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) * 2 + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise GraphFormatError(f"n={n} too large for graph6")


def emit_graph6(g: Graph) -> str:
    out = [_g6_encode_size(g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    bad = _G6_OUTSIDE.search(s)
    if bad:
        raise GraphFormatError(f"byte {ord(bad.group())!r} outside the graph6 alphabet")
    data = [ord(ch) - 63 for ch in s[:8]]
    if data[0] != 63:
        n, idx = data[0], 1
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size header")
        n, idx = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        if len(data) < 8:
            raise GraphFormatError("truncated graph6 size header")
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        idx = 8
    _check_size(n)
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[idx:]
    if len(body) != need:
        raise GraphFormatError(f"graph6 body has {len(body)} groups, expected {need} for n={n}")
    # Column j's bits x(0,j) .. x(j-1,j) are contiguous. Reversed and padded
    # to n characters, column j reads as row j's bits below j; read across
    # the columns at one offset, the same layout gives a row's bits above it.
    body_bits = "".join(map(_G6_BITS.__getitem__, body))
    cols = "".join(
        "0" * (n - j) + body_bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1] for j in range(n)
    )
    return Graph(n, tuple(
        int(cols[v * n:(v + 1) * n], 2) | int(cols[n - 1 - v::n][::-1], 2) for v in range(n)
    ))


# -- edge list ----------------------------------------------------------------


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise GraphFormatError("empty edge list")
    try:
        header = [int(t) for t in rows[0]]
    except ValueError as exc:
        raise GraphFormatError(f"bad edge-list header {rows[0]!r}") from exc
    if len(header) != 2:
        raise GraphFormatError("edge-list header must be 'n m'")
    n, m = header
    _check_size(n)
    if len(rows) - 1 != m:
        raise GraphFormatError(f"edge list declares m={m} but has {len(rows) - 1} edge lines")
    edges = []
    for tok in rows[1:]:
        try:
            u, v = (int(t) for t in tok)
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {' '.join(tok)!r}") from exc
        edges.append((u, v))
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    if g.edge_count() != m:
        raise GraphFormatError("edge list contains duplicate edges")
    return g
