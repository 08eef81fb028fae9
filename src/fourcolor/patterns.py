"""Induced-occurrence detection for the fixed anchor and forbidden patterns.

The search is role-ordered: a witness records which graph vertex plays each
pattern vertex, so downstream decompositions know e.g. which cycle vertex is
"1" and which vertex is the apex. Absence of a witness certifies freeness
because the backtracking is exhaustive.

Class certification for the four-vertex patterns uses per-edge neighborhood
tests instead: a graph has an induced K4 iff the common neighborhood of some
edge holds an edge, and an induced 2P2 iff the common non-neighborhood of
some edge does; C4 and 4P1 are the same tests on the complement. The
role-ordered search then runs only to build the witness of a pattern the
tests found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, bits, complement, complete, cycle, empty


@dataclass(frozen=True)
class Pattern:
    name: str
    model: Graph
    order: tuple[int, ...]  # role placement order used by the search


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
    order = p.order
    mrows = p.model.rows
    # cons[t]: adjacency requirements of the role placed at step t against
    # the roles placed at earlier steps.
    cons = [
        tuple((order[s], (mrows[order[t]] >> order[s]) & 1) for s in range(t))
        for t in range(k)
    ]
    grows = g.rows
    full = (1 << g.n) - 1
    gnon = [full & ~grows[v] & ~(1 << v) for v in range(g.n)]
    assign = [0] * k

    def rec(t: int, used: int, pin: tuple[int, int] | None) -> Iterator[Witness]:
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


def find_induced(g: Graph, pattern: str | Pattern, containing: int | None = None) -> Witness | None:
    """First induced occurrence, or None; None certifies freeness."""
    return next(enumerate_induced(g, pattern, containing), None)


def _has_k4(rows: tuple[int, ...]) -> bool:
    """Some edge's common neighborhood holds an edge. Each 4-set is tested
    once, from the edge of its two lowest vertices."""
    for u, ru in enumerate(rows):
        above = ru >> (u + 1) << (u + 1)
        for v in bits(above):
            common = above & rows[v] >> (v + 1) << (v + 1)
            for x in bits(common):
                if rows[x] & common:
                    return True
    return False


def _has_2p2(rows: tuple[int, ...]) -> bool:
    """Some edge's common non-neighborhood holds an edge. Each 4-set is
    tested from its lowest vertex u, through the edges uv with v above u."""
    full = (1 << len(rows)) - 1
    for u, ru in enumerate(rows):
        later = full >> (u + 1) << (u + 1)
        for v in bits(ru & later):
            far = later & ~ru & ~rows[v] & ~(1 << v)
            for x in bits(far):
                if rows[x] & far:
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

    2P2, K4, C4 and 4P1 are tested per edge; the role-ordered search runs
    only on a pattern that is present, to produce its witness.
    """
    co_rows = None
    for pattern in forbidden:
        p = get_pattern(pattern)
        if p in _EDGE_TESTS:
            on_complement, present = _EDGE_TESTS[p]
            if on_complement and co_rows is None:
                co_rows = complement(g).rows
            if not present(co_rows if on_complement else g.rows):
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
