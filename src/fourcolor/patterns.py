"""Induced-occurrence detection for the fixed anchor and forbidden patterns.

The search is role-ordered: a witness records which graph vertex plays each
pattern vertex, so downstream decompositions know e.g. which cycle vertex is
"1" and which vertex is the apex. Absence of a witness certifies freeness
because the backtracking is exhaustive. It is an iterative depth-first search
over a placement order fixed per pattern: each depth keeps the candidate
masks of the steps still to come, placing a vertex intersects them with its
row or its non-row, and a branch ends once one of them is empty. Witnesses
come in the order of the plain recursive search over the same steps.

Class certification for the four-vertex patterns uses per-vertex tests
instead: a vertex with neighborhood N is in an induced K4 iff N holds a
triangle, and in an induced 2P2 iff some neighbor v has an edge among the
vertices that see neither v nor it. A graph holds the pattern iff some
vertex does together with vertices above it; C4 and 4P1 are the same tests
on the complement. The role-ordered search then runs only to build the
witness of a pattern the tests found. The same two tests decide each
vertex added by `lab`'s growth and exhaustive enumeration.

The tests run on the false-twin quotient of the rows they read: one vertex
per distinct neighborhood. Two false twins (nonadjacent, same neighborhood)
are never both in an induced 2P2 or K4: K4 has no nonadjacent pair, and each
nonadjacent pair of 2P2 is told apart by a pattern vertex. Replacing every
vertex of an induced copy by its class representative keeps all adjacencies
(u ~ v iff u ~ v' for twins v, v'), so a graph holds a 2P2 or K4 iff its
quotient does. On the complement, false twins are the true twins of the
graph (adjacent, same closed neighborhood), which 4P1 and C4 never contain.
Blow-ups, whose vertices come in twin classes, are thus certified at the
cost of their quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .graph import Graph, bits, complement, complete, cycle, empty


@dataclass(frozen=True)
class Pattern:
    name: str
    model: Graph
    order: tuple[int, ...]  # role placement order used by the search
    # later[t][i]: must the role placed at step t be adjacent to the role
    # placed at step t + 1 + i
    later: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = self.order
        later = tuple(
            tuple(self.model.has_edge(r, s) for s in order[t + 1:]) for t, r in enumerate(order)
        )
        object.__setattr__(self, "later", later)


@dataclass(frozen=True)
class Witness:
    pattern: str
    vertices: tuple[int, ...]  # graph vertices in pattern-role order


def _search_order(model: Graph) -> tuple[int, ...]:
    # High-degree roles first: they constrain the candidate masks hardest.
    return tuple(sorted(range(model.n), key=lambda r: (-model.degree(r), r)))


def _pattern(name: str, model: Graph) -> Pattern:
    return Pattern(name, model, _search_order(model))


def _h1_model() -> Graph:
    # Six-vertex ring complement (i~j iff cyclic distance >= 2) plus a hub
    # vertex adjacent to roles 0, 1, 3, 4.
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i not in (1, 5)]
    edges += [(6, 0), (6, 1), (6, 3), (6, 4)]
    return Graph.from_edges(7, edges)


def _h2_model() -> Graph:
    # Five-cycle plus an apex adjacent to four consecutive cycle roles 1..4.
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 1), (5, 2), (5, 3), (5, 4)]
    return Graph.from_edges(6, edges)


def _w5_model() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    return Graph.from_edges(6, edges)


PATTERNS: dict[str, Pattern] = {
    p.name: p
    for p in (
        _pattern("2P2", Graph.from_edges(4, [(0, 1), (2, 3)])),
        _pattern("K4", complete(4)),
        _pattern("C4", cycle(4)),
        _pattern("C5", cycle(5)),
        _pattern("4P1", empty(4)),
        _pattern("W5", _w5_model()),
        _pattern("H1", _h1_model()),
        _pattern("H2", _h2_model()),
    )
}


def get_pattern(name: str | Pattern) -> Pattern:
    if isinstance(name, Pattern):
        return name
    key = name.strip().upper()
    if key not in PATTERNS:
        raise KeyError(f"unknown pattern {name!r}; choose from {sorted(PATTERNS)}")
    return PATTERNS[key]


def enumerate_induced(
    g: Graph, pattern: str | Pattern, containing: int | None = None
) -> Iterator[Witness]:
    """Yield every role-ordered induced occurrence of the pattern, exactly once.

    Deterministic order. With `containing`, only witnesses using that vertex
    are produced (each exactly once).
    """
    p = get_pattern(pattern)
    k = p.model.n
    if g.n < k:
        return
    full = (1 << g.n) - 1
    if containing is None:
        starts = [(full,) * k]
    else:
        # one search per step that may place the vertex, in step order
        vbit = 1 << containing
        starts = [tuple(full & (vbit if s == t else ~vbit) for s in range(k)) for t in range(k)]
    rows, name, order, later = g.rows, p.name, p.order, p.later
    last = k - 1
    assign = [0] * k
    left = [0] * k  # left[t]: candidates of step t not yet tried
    ahead = [()] * k  # ahead[t]: candidate masks of steps t+1.. given steps < t
    for start in starts:
        left[0], ahead[0] = start[0], start[1:]
        t = 0
        while t >= 0:
            cand = left[t]
            if not cand:
                t -= 1
                continue
            b = cand & -cand
            left[t] = cand ^ b
            v = b.bit_length() - 1
            assign[order[t]] = v
            if t == last:
                yield Witness(name, tuple(assign))
                continue
            row = rows[v]
            non = ~row ^ b  # neither a neighbor nor the vertex itself
            nxt = [m & row if adj else m & non for m, adj in zip(ahead[t], later[t])]
            if all(nxt):
                t += 1
                left[t], ahead[t] = nxt[0], nxt[1:]


def find_induced(g: Graph, pattern: str | Pattern, containing: int | None = None) -> Witness | None:
    """First induced occurrence, or None; None certifies freeness."""
    return next(enumerate_induced(g, pattern, containing), None)


def _false_twin_quotient(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the subgraph induced by the lowest vertex of each distinct
    row, with every other vertex left isolated (an isolated vertex is in no
    2P2 or K4)."""
    first: dict[int, int] = {}
    for v, r in enumerate(rows):
        first.setdefault(r, v)
    if len(first) == len(rows):
        return rows
    keep = 0
    for v in first.values():
        keep |= 1 << v
    return tuple(r & keep if (keep >> v) & 1 else 0 for v, r in enumerate(rows))


def _k4_through(rows: Sequence[int], nb: int) -> bool:
    """A vertex adjacent to exactly `nb` is in a K4: `nb` holds a triangle."""
    for v in bits(nb):
        common = nb & rows[v] >> (v + 1) << (v + 1)
        for x in bits(common):
            if rows[x] & common:
                return True
    return False


def _2p2_through(rows: Sequence[int], nb: int, mask: int) -> bool:
    """A vertex adjacent to exactly `nb`, added to the vertices of `mask`, is
    in a 2P2: some neighbor v has an edge inside the part of `mask` that
    sees neither v nor the new vertex."""
    for v in bits(nb):
        far = mask & ~nb & ~rows[v] & ~(1 << v)
        for x in bits(far):
            if rows[x] & far:
                return True
    return False


def _has_k4(rows: tuple[int, ...]) -> bool:
    """Some vertex's upper neighborhood holds a triangle: each 4-set is
    tested once, from its lowest vertex."""
    for u, ru in enumerate(rows):
        if _k4_through(rows, ru >> (u + 1) << (u + 1)):
            return True
    return False


def _has_2p2(rows: tuple[int, ...]) -> bool:
    """Some vertex u is in a 2P2 with vertices above u: each 4-set is tested
    once, from its lowest vertex. Only vertices with a neighbor can be in a
    2P2."""
    full = 0
    for r in rows:
        full |= r
    for u, ru in enumerate(rows):
        later = full >> (u + 1) << (u + 1)
        if _2p2_through(rows, ru & later, later):
            return True
    return False


# pattern -> (test runs on the complement, per-edge test)
_EDGE_TESTS = {
    PATTERNS["K4"]: (False, _has_k4),
    PATTERNS["2P2"]: (False, _has_2p2),
    PATTERNS["4P1"]: (True, _has_k4),
    PATTERNS["C4"]: (True, _has_2p2),
}


def certify_class(g: Graph, forbidden) -> Witness | None:
    """First witness of any forbidden pattern, or None if g avoids them all.

    2P2, K4, C4 and 4P1 are tested per edge on a twin quotient; the
    role-ordered search runs only on a pattern that is present, on the full
    graph, to produce its witness.
    """
    quotients: dict[bool, tuple[int, ...]] = {}
    for pattern in forbidden:
        p = get_pattern(pattern)
        if p in _EDGE_TESTS:
            on_complement, present = _EDGE_TESTS[p]
            if on_complement not in quotients:
                rows = complement(g).rows if on_complement else g.rows
                quotients[on_complement] = _false_twin_quotient(rows)
            if not present(quotients[on_complement]):
                continue
        w = find_induced(g, p)
        if w is not None:
            return w
    return None


def matches_pattern(g: Graph, witness: Witness) -> bool:
    """Check that the witness realizes its pattern role-for-role."""
    model = get_pattern(witness.pattern).model
    verts = witness.vertices
    if len(verts) != model.n or len(set(verts)) != model.n:
        return False
    if any(not 0 <= v < g.n for v in verts):
        return False
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if g.has_edge(verts[i], verts[j]) != model.has_edge(i, j):
                return False
    return True
