"""Output checks: each returns None when the result is right, else the reason.

They read the benchmark's own copy of every graph (decoded by graphs.py, not
by fourcolor) and compare against facts the generator computed by brute force
or by construction, never against a stored copy of an earlier output.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

import graphs as G


def proper(rows: list[int], colors, k: int) -> str | None:
    """Total, uses only colours 1..k, and no edge of the benchmark's edge loop
    joins two vertices of one colour."""
    if len(colors) != len(rows):
        return f"{len(colors)} colours for {len(rows)} vertices"
    if any(not 1 <= c <= k for c in colors):
        return f"a colour outside 1..{k}"
    for u, v in G.edges(rows):
        if colors[u] == colors[v]:
            return f"edge {u}-{v} is monochromatic"
    return None


def four_coloring(rows: list[int], colors, k: int, chi: int) -> str | None:
    """A four_color result on a graph of chromatic number chi."""
    bad = proper(rows, colors, k)
    if bad:
        return bad
    used = len(set(colors))
    if used != k:
        return f"reports k={k} but uses {used} colours"
    if not chi <= used <= 4:
        return f"uses {used} colours, outside chi={chi}..4"
    return None


def approx_coloring(rows: list[int], colors, k: int, cover, pairing, chi: int) -> str | None:
    """An approx_color result: proper, four disjoint cliques covering V, both
    chosen clique pairs chordal, and k <= 2 chi."""
    bad = proper(rows, colors, k)
    if bad:
        return bad
    if len(set(colors)) != k:
        return f"reports k={k} but uses {len(set(colors))} colours"
    if len(cover) != 4 or sorted(v for c in cover for v in c) != list(range(len(rows))):
        return "cover is not four disjoint sets covering V"
    for i, clique in enumerate(cover):
        if any(not rows[u] >> v & 1 for u, v in combinations(sorted(clique), 2)):
            return f"cover set {i + 1} is not a clique"
    if sorted(x for pair in pairing for x in pair) != [1, 2, 3, 4]:
        return f"pairing {pairing} does not split the four cliques"
    for a, b in pairing:
        keep = sorted(cover[a - 1] | cover[b - 1])
        sub = nx.Graph()
        sub.add_nodes_from(keep)
        sub.add_edges_from((u, v) for u, v in combinations(keep, 2) if rows[u] >> v & 1)
        if not nx.is_chordal(sub):
            return f"clique pair {(a, b)} is not chordal"
    if k > 2 * chi:
        return f"k={k} exceeds twice chi={chi}"
    return None


def labelled_members(n: int) -> set[str]:
    """graph6 of every labelled (2P2, K4)-free graph on n vertices, by testing
    every edge set against every 4-set."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    pos = {p: i for i, p in enumerate(pairs)}
    quads = [[pos[p] for p in combinations(q, 2)] for q in combinations(range(n), 4)]
    # Which 6-bit edge patterns of a 4-set (bits in combinations order) are bad.
    bad = set()
    for mask in range(64):
        rows = G.from_edges(4, [p for i, p in enumerate(combinations(range(4), 2)) if mask >> i & 1])
        if G.quad_kind(rows, (0, 1, 2, 3)) in G.MEMBER:
            bad.add(mask)
    out = set()
    for edges in range(1 << len(pairs)):
        if any(sum((edges >> b & 1) << i for i, b in enumerate(q)) in bad for q in quads):
            continue
        out.add(G.to_graph6(G.from_edges(n, [p for i, p in enumerate(pairs) if edges >> i & 1])))
    return out
