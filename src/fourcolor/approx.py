"""2-approximation coloring for graphs without induced 4P1 or C4.

The complement of such a graph has no induced 2P2 or K4, so the main
pipeline splits it into four independent sets; those are four cliques of the
input, any two of which induce a chordal graph (a C4-free union of two
cliques has no hole). Optimally coloring two clique pairs with disjoint
palettes costs at most twice the chromatic number.
"""

from __future__ import annotations

from dataclasses import dataclass

# four_color stays a name of this module: bench/spans.py wraps approx.four_color.
from .coloring import Coloring, _color_member, four_color, verify_coloring  # noqa: F401
from .errors import ChordalityViolation, InternalCaseFailure, NotInClass
from .graph import Graph, bits, complement, induced_subgraph
from .patterns import certify_class


def _mcs_visit_order(g: Graph) -> list[int]:
    """Maximum-cardinality search: repeatedly take the unvisited vertex with
    the most visited neighbors, lowest index on ties."""
    n = g.n
    weight = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not (visited >> v) & 1 and (best < 0 or weight[v] > weight[best]):
                best = v
        order.append(best)
        visited |= 1 << best
        for u in bits(g.rows[best] & ~visited):
            weight[u] += 1
    return order


def _order_violation(g: Graph, order: list[int]) -> tuple[int, tuple[int, int]] | None:
    """is_chordal's test along a given maximum-cardinality search order."""
    visited = 0
    for v in order:
        later = g.rows[v] & visited
        for x in bits(later):
            missing = later & ~g.rows[x] & ~((1 << (x + 1)) - 1)
            if missing:
                return v, (x, (missing & -missing).bit_length() - 1)
        visited |= 1 << v
    return None


def is_chordal(g: Graph) -> tuple[int, tuple[int, int]] | None:
    """None if chordal; otherwise a vertex whose later neighborhood along the
    elimination ordering is not a clique, plus the offending nonadjacent pair."""
    return _order_violation(g, _mcs_visit_order(g))


def peo(g: Graph) -> tuple[int, ...] | None:
    """A perfect elimination ordering, or None if the graph is not chordal."""
    order = _mcs_visit_order(g)
    if _order_violation(g, order) is not None:
        return None
    return tuple(reversed(order))


def chordal_color(g: Graph) -> Coloring:
    """Greedy coloring along the reverse perfect elimination ordering.

    Optimal for chordal graphs: the color count equals the clique number.
    Raises ChordalityViolation if the input is not chordal.
    """
    order = _mcs_visit_order(g)
    violation = _order_violation(g, order)
    if violation is not None:
        raise ChordalityViolation("chordal_color needs a chordal graph", violation)
    colors = [0] * g.n
    k = 0
    for v in order:
        used = 0
        for u in bits(g.rows[v]):
            if colors[u]:
                used |= 1 << (colors[u] - 1)
        c = 1
        while (used >> (c - 1)) & 1:
            c += 1
        colors[v] = c
        k = max(k, c)
    return Coloring(tuple(colors), k)


@dataclass(frozen=True)
class ApproxResult:
    coloring: Coloring
    cover: tuple[frozenset[int], ...]     # four disjoint cliques covering V
    breakdown: tuple[int, int]            # optimal counts of the two clique pairs
    pairing: tuple[tuple[int, int], tuple[int, int]]  # 1-indexed clique ids


_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def approx_color(g: Graph) -> ApproxResult:
    """Proper coloring with at most twice the optimal number of colors.

    Input must avoid induced 4P1 and C4 (witness error otherwise). All three
    ways of pairing the four cover cliques are tried; each pair-union is
    asserted chordal by its coloring, and the cheapest pairing is kept.
    """
    witness = certify_class(g, ("4P1", "C4"))
    if witness is not None:
        raise NotInClass(witness)
    # (4P1, C4)-free g has a (2P2, K4)-free complement: no second certification.
    cocol, _ = _color_member(complement(g))
    cover = tuple(
        frozenset(v for v in range(g.n) if cocol.colors[v] == c) for c in (1, 2, 3, 4)
    )
    best = None
    for pairing in _PAIRINGS:
        sides = []
        for a, b in pairing:
            sub, mapping = induced_subgraph(g, cover[a] | cover[b])
            try:
                col = chordal_color(sub)
            except ChordalityViolation as exc:
                v, (x, y) = exc.violation
                raise ChordalityViolation(
                    f"clique pair {(a + 1, b + 1)} is not chordal",
                    (mapping[v], (mapping[x], mapping[y])),
                ) from exc
            sides.append((sub, mapping, col))
        k = sides[0][2].k + sides[1][2].k
        if best is None or k < best[0]:
            best = (k, pairing, sides)
    k, pairing, sides = best
    colors = [0] * g.n
    offset = 0
    for sub, mapping, col in sides:
        for local, orig in enumerate(mapping):
            colors[orig] = col.colors[local] + offset
        offset += col.k
    coloring = Coloring(tuple(colors), k)
    bad = verify_coloring(g, coloring)
    if bad is not None:
        raise InternalCaseFailure("approx", "combined coloring is improper", bad)
    return ApproxResult(
        coloring=coloring,
        cover=cover,
        breakdown=(sides[0][2].k, sides[1][2].k),
        pairing=tuple((a + 1, b + 1) for a, b in pairing),
    )
