"""Graph primitives the benchmark uses to build inputs and check outputs.

Nothing here imports fourcolor: every fact the benchmark checks a result
against is computed by this file's own brute force. A graph is a list of
adjacency bitmasks, one int per vertex, on vertices 0..n-1.
"""

from __future__ import annotations

from itertools import combinations


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1]


def complement(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def cycle(n: int) -> list[int]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Graph with old vertex v renamed perm[v]."""
    return from_edges(len(rows), [(perm[u], perm[v]) for u, v in edges(rows)])


def induced(rows: list[int], keep: list[int]) -> list[int]:
    pos = {v: i for i, v in enumerate(keep)}
    return from_edges(len(keep), [(pos[u], pos[v]) for u, v in edges(rows) if u in pos and v in pos])


def connected(rows: list[int]) -> bool:
    if not rows:
        return True
    seen, frontier = 1, 1
    while frontier:
        grow = 0
        for v in range(len(rows)):
            if frontier >> v & 1:
                grow |= rows[v]
        frontier = grow & ~seen
        seen |= grow
    return seen == (1 << len(rows)) - 1


# -- graph6, written from the format description --------------------------------


def to_graph6(rows: list[int]) -> str:
    n = len(rows)
    if n > 62:
        head = chr(126) + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    else:
        head = chr(63 + n)
    bitstr = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bitstr += [0] * (-len(bitstr) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bitstr[k:k + 6])), 2)) for k in range(0, len(bitstr), 6)
    )
    return head + body


def from_graph6(text: str) -> list[int]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n, data = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    else:
        n, data = data[0], data[1:]
    bitstr = [d >> (5 - i) & 1 for d in data for i in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edges(n, [p for p, b in zip(pairs, bitstr) if b])


# -- forbidden induced 4-vertex patterns ------------------------------------------


def quad_kind(rows: list[int], quad) -> str | None:
    """Name of the 4-vertex pattern the quad induces, if it is one of the four."""
    deg = [sum(rows[a] >> b & 1 for b in quad) for a in quad]
    m = sum(deg) // 2
    if m == 6:
        return "K4"
    if m == 0:
        return "4P1"
    if m == 2 and max(deg) == 1:
        return "2P2"
    if m == 4 and min(deg) == 2:
        return "C4"
    return None


def forbidden_quad(rows: list[int], forbidden, new: int | None = None):
    """First 4-set inducing a forbidden pattern (only sets through `new` if given)."""
    if new is None:
        quads = combinations(range(len(rows)), 4)
    else:
        others = [v for v in range(len(rows)) if v != new]
        quads = ((new,) + t for t in combinations(others, 3))
    for quad in quads:
        if quad_kind(rows, quad) in forbidden:
            return quad
    return None


MEMBER = ("2P2", "K4")
CO_MEMBER = ("4P1", "C4")


# -- small exact oracles ------------------------------------------------------------


def subset_tables(rows: list[int], weight: list[int]):
    """For every vertex subset S (as a mask): alpha(S) and the heaviest clique in S."""
    n = len(rows)
    alpha = [0] * (1 << n)
    wclique = [0] * (1 << n)
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        alpha[s] = max(alpha[rest], 1 + alpha[rest & ~rows[v]])
        wclique[s] = max(wclique[rest], weight[v] + wclique[rest & rows[v]])
    return alpha, wclique


def chromatic_number(rows: list[int]) -> int:
    """Exact chromatic number by saturation-order branch and bound (small n)."""
    n = len(rows)
    if n == 0:
        return 0
    best = n
    colors = [0] * n

    def search(done: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if done == n:
            best = used
            return
        v = max(
            (u for u in range(n) if not colors[u]),
            key=lambda u: (len({colors[w] for w in range(n) if rows[u] >> w & 1} - {0}), rows[u].bit_count()),
        )
        taken = {colors[w] for w in range(n) if rows[v] >> w & 1}
        for c in range(1, used + 2):
            if c not in taken:
                colors[v] = c
                search(done + 1, max(used, c))
                colors[v] = 0

    search(0, 0)
    return best


def dsatur_count(rows: list[int]) -> int:
    """Colours used by greedy saturation-order colouring: an upper bound on chi."""
    n = len(rows)
    colors = [0] * n
    near = [0] * n  # colours (as bits) on each vertex's coloured neighbours
    for _ in range(n):
        v = max((u for u in range(n) if not colors[u]), key=lambda u: (near[u].bit_count(), rows[u].bit_count()))
        c = 1
        while near[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in range(n):
            if rows[v] >> u & 1:
                near[u] |= 1 << c
    return max(colors, default=0)


def coloured_chi_lower_bound(base: list[int], weight: list[int]) -> int:
    """Lower bound on chi of `base` with vertex v replaced by a clique of weight[v].

    Every subset S gives chi >= heaviest clique in S and chi >= w(S)/alpha(S),
    because a colour class meets each substituted clique at most once and so
    takes at most alpha(S) vertices of S's cliques. On weighted odd cycles the
    best of these bounds is known to equal chi; checks only ever use it as a
    lower bound.
    """
    alpha, wclique = subset_tables(base, weight)
    best = 0
    for s in range(1, 1 << len(base)):
        total = sum(weight[v] for v in range(len(base)) if s >> v & 1)
        best = max(best, wclique[s], -(-total // alpha[s]))
    return best
