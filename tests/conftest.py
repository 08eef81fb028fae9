"""Shared strategies and naive reference oracles for the test suite.

The helpers here deliberately avoid the library's own search/coloring code
paths so they can serve as independent checks. The references for the
pattern search and the reduction are the library's earlier, plainer loops:
the recursive search and the alive-mask rescan, kept here to pin the order
of witnesses and removal steps.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from fourcolor import Graph, PATTERNS, ReductionTrace, Witness, bits, complement, induced_subgraph


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


def with_twins(rng: random.Random, g: Graph, extra: int) -> Graph:
    """g with `extra` planted twins, each a false twin (same neighborhood) or
    a true twin (same closed neighborhood) of a random earlier vertex; the
    new vertices are shuffled in among the old ones."""
    if g.n == 0:
        return g
    rows = list(g.rows)
    for _ in range(extra):
        t = rng.randrange(len(rows))
        nbhd = rows[t] | (1 << t if rng.random() < 0.5 else 0)
        for u in bits(nbhd):
            rows[u] |= 1 << len(rows)
        rows.append(nbhd)
    twinned = Graph(len(rows), tuple(rows))
    label = list(range(twinned.n))
    rng.shuffle(label)
    return Graph.from_edges(twinned.n, [(label[u], label[v]) for u, v in twinned.edges()])


@st.composite
def large_graphs(draw, max_n: int = 30):
    """Graphs with up to max_n vertices on both sides of the class tests:
    random graphs from sparse to dense, and relabelled C5 blow-ups (members
    of the (2P2, K4)-free class) with up to three edges flipped, or their
    complements; random graphs and blow-ups alike may get planted false and
    true twins."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(0, max_n))
        g = random_graph(rng, n, draw(st.sampled_from([0.05, 0.15, 0.5, 0.85, 0.95])))
        return with_twins(rng, g, draw(st.integers(0, max_n - n)) if draw(st.booleans()) else 0)
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
    return with_twins(rng, g, draw(st.integers(0, max_n - n)) if draw(st.booleans()) else 0)


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


def blowup(rng: random.Random, base: Graph, sizes) -> Graph:
    """Each vertex v of base replaced by sizes[v] false twins (an independent
    set joined to the sets of v's neighbors), with the vertices shuffled."""
    starts = [sum(sizes[:v]) for v in range(base.n + 1)]
    n = starts[-1]
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [
        (label[a], label[b])
        for u, v in base.edges()
        for a in range(starts[u], starts[u + 1])
        for b in range(starts[v], starts[v + 1])
    ])


def reference_enumerate(g: Graph, pattern_name: str, containing: int | None = None):
    """The recursive role-ordered search: every induced occurrence of the
    pattern, placing roles in the pattern's search order, each vertex tried
    in ascending order; with `containing`, one pass per step that may place
    that vertex."""
    p = PATTERNS[pattern_name]
    k = p.model.n
    if g.n < k:
        return
    order = p.order
    mrows = p.model.rows
    cons = [
        tuple((order[s], (mrows[order[t]] >> order[s]) & 1) for s in range(t))
        for t in range(k)
    ]
    grows = g.rows
    full = (1 << g.n) - 1
    gnon = [full & ~grows[v] & ~(1 << v) for v in range(g.n)]
    assign = [0] * k

    def rec(t, used, pin):
        if t == k:
            yield Witness(p.name, tuple(assign))
            return
        cand = full & ~used
        for role, adj in cons[t]:
            u = assign[role]
            cand &= grows[u] if adj else gnon[u]
        if pin is not None:
            step, vbit = pin
            cand = cand & vbit if t == step else cand & ~vbit
        role = order[t]
        for v in bits(cand):
            assign[role] = v
            yield from rec(t + 1, used | (1 << v), pin)

    if containing is None:
        yield from rec(0, 0, None)
    else:
        vbit = 1 << containing
        for step in range(k):
            yield from rec(0, 0, (step, vbit))


def first_comparable(g: Graph, alive: int | None = None) -> tuple[int, int] | None:
    """Smallest u, then smallest v, among the vertices of the alive mask (all
    of g by default), with u, v nonadjacent and N(u) subseteq N(v) in the
    subgraph the mask induces."""
    if alive is None:
        alive = (1 << g.n) - 1
    for u in bits(alive):
        ru = g.rows[u] & alive
        cand = alive & ~ru & ~(1 << u)
        for x in bits(ru):
            cand &= g.rows[x]
        if cand:
            return u, (cand & -cand).bit_length() - 1
    return None


def alive_mask_reduce(g: Graph):
    """Delete the first comparable pair's u from an alive mask, rescanning
    every alive vertex after each deletion; build the core at the end."""
    alive = (1 << g.n) - 1
    steps = []
    while (pair := first_comparable(g, alive)) is not None:
        steps.append(pair)
        alive &= ~(1 << pair[0])
    core, to_orig = induced_subgraph(g, bits(alive))
    return core, ReductionTrace(g.n, tuple(steps), to_orig)


def reference_reduce(g: Graph):
    """Rebuild the induced subgraph after every deletion, scanning it for the
    smallest u, then smallest v, that are nonadjacent with N(u) subseteq N(v)."""
    current = g
    to_orig = tuple(range(g.n))
    steps = []
    while True:
        pair = next(
            (
                (u, v)
                for u in range(current.n)
                for v in range(current.n)
                if v != u
                and not current.has_edge(u, v)
                and current.rows[u] & ~current.rows[v] == 0
            ),
            None,
        )
        if pair is None:
            return current, ReductionTrace(g.n, tuple(steps), to_orig)
        u, v = pair
        steps.append((to_orig[u], to_orig[v]))
        current, local = induced_subgraph(current, [w for w in range(current.n) if w != u])
        to_orig = tuple(to_orig[w] for w in local)
