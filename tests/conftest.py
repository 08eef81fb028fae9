"""Shared strategies and naive reference oracles for the test suite.

The helpers here deliberately avoid the library's own search/coloring code
paths so they can serve as independent checks.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from fourcolor import Graph, PATTERNS, complement


@st.composite
def graphs(draw, max_n: int = 10, min_n: int = 0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


@st.composite
def large_graphs(draw, max_n: int = 30):
    """Graphs with up to max_n vertices on both sides of the class tests:
    random graphs from sparse to dense, and relabelled C5 blow-ups (members
    of the (2P2, K4)-free class) with up to three edges flipped, or their
    complements."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(0, max_n))
        return random_graph(rng, n, draw(st.sampled_from([0.05, 0.15, 0.5, 0.85, 0.95])))
    sizes = draw(st.lists(st.integers(0, max_n // 5), min_size=5, max_size=5))
    starts = [sum(sizes[:i]) for i in range(6)]
    n = starts[5]
    label = list(range(n))
    rng.shuffle(label)
    edges = {
        frozenset((label[a], label[b]))
        for i in range(5)
        for a in range(starts[i], starts[i + 1])
        for b in range(starts[(i + 1) % 5], starts[(i + 1) % 5 + 1])
    }
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            edges ^= {frozenset(rng.sample(range(n), 2))}
    g = Graph.from_edges(n, [tuple(e) for e in edges])
    if draw(st.booleans()):
        g = complement(g)
    return g


def all_labelled_graphs(max_n: int):
    """Every labelled graph with at most max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def naive_find_induced(g: Graph, pattern_name: str) -> tuple[int, ...] | None:
    """All-subsets, all-permutations reference detector."""
    model = PATTERNS[pattern_name].model
    k = model.n
    if g.n < k:
        return None
    for sub in combinations(range(g.n), k):
        for perm in permutations(sub):
            if all(
                g.has_edge(perm[i], perm[j]) == model.has_edge(i, j)
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return perm
    return None


def naive_chromatic(g: Graph, max_colors: int = 8) -> int:
    """Reference chromatic number by brute-force assignment enumeration."""
    if g.n == 0:
        return 0
    edge_list = list(g.edges())
    for k in range(1, max_colors + 1):
        for assignment in product(range(k), repeat=g.n):
            if set(assignment) != set(range(k)):
                continue
            if all(assignment[u] != assignment[v] for u, v in edge_list):
                return k
    raise AssertionError(f"no coloring with <= {max_colors} colors")


def naive_is_k_colorable(g: Graph, k: int) -> bool:
    edge_list = list(g.edges())
    for assignment in product(range(k), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in edge_list):
            return True
    return g.n == 0


def find_odd_hole_bruteforce(g: Graph) -> tuple[int, ...] | None:
    """Smallest induced odd cycle of length >= 5, by exhaustive subset search."""
    for length in range(5, g.n + 1, 2):
        for sub in combinations(range(g.n), length):
            degs = {v: 0 for v in sub}
            inside = set(sub)
            ok = True
            for v in sub:
                d = sum(1 for u in g.neighbors(v) if u in inside)
                if d != 2:
                    ok = False
                    break
                degs[v] = d
            if not ok:
                continue
            # 2-regular induced subgraph: a cycle iff connected
            start = sub[0]
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if u in inside and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == length:
                return sub
    return None
