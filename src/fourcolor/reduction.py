"""Comparable-vertex elimination and color reinsertion.

Two nonadjacent vertices u, v with N(u) subseteq N(v) have the same chromatic
behavior: u can be deleted and later recolored with v's color. Iterating this
to a fixed point yields a core with the same chromatic number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReinsertionConflict
from .graph import Graph, bits, induced_subgraph, lowest


@dataclass(frozen=True)
class ReductionTrace:
    n_original: int
    steps: tuple[tuple[int, int], ...]  # (removed, dominator) original ids, removal order
    core_vertices: tuple[int, ...]      # core index -> original id


def _first_comparable(rows: tuple[int, ...], alive: int) -> tuple[int, int] | None:
    """Smallest u, then smallest v, among alive vertices of the subgraph the
    mask induces, with u, v nonadjacent and N(u) subseteq N(v)."""
    for u in bits(alive):
        ru = rows[u] & alive
        # v is adjacent to every neighbor of u iff N(u) subseteq N(v)
        cand = alive & ~ru & ~(1 << u)
        for x in bits(ru):
            cand &= rows[x]
        if cand:
            return u, (cand & -cand).bit_length() - 1
    return None


def find_comparable_pair(g: Graph) -> tuple[int, int] | None:
    """Nonadjacent (u, v) with N(u) subseteq N(v), smallest u then smallest v."""
    return _first_comparable(g.rows, (1 << g.n) - 1)


def reduce_to_core(g: Graph) -> tuple[Graph, ReductionTrace]:
    """Delete dominated vertices until no comparable pair remains.

    The deleted vertices leave an alive mask; the core is built once, at the
    end. Each step takes the first pair of the remaining subgraph, so the
    removal order is that of rebuilding the subgraph after every deletion.
    """
    alive = (1 << g.n) - 1
    steps: list[tuple[int, int]] = []
    while (pair := _first_comparable(g.rows, alive)) is not None:
        steps.append(pair)
        alive &= ~(1 << pair[0])
    core, to_orig = induced_subgraph(g, bits(alive))
    return core, ReductionTrace(g.n, tuple(steps), to_orig)


def reinsert_colors(g: Graph, core_coloring, trace: ReductionTrace):
    """Extend a proper coloring of the core to the original graph.

    Removals are replayed in reverse; each vertex takes its dominator's color,
    which is proper because the dominator's neighborhood covered its own at
    removal time. Raises ReinsertionConflict if the trace is corrupt.
    """
    from .coloring import Coloring  # local import to keep module layers acyclic

    if g.n != trace.n_original:
        raise ReinsertionConflict(
            f"trace is for n={trace.n_original}, graph has n={g.n}"
        )
    if len(core_coloring.colors) != len(trace.core_vertices):
        raise ReinsertionConflict(
            f"core coloring has {len(core_coloring.colors)} colors for "
            f"{len(trace.core_vertices)} core vertices"
        )
    n = g.n
    for v in (*trace.core_vertices, *(removed for removed, _ in trace.steps)):
        if not 0 <= v < n:
            raise ReinsertionConflict(f"trace vertex {v} out of range for n={n}")
    colors: list = [None] * n
    classes: dict[int, int] = {}  # color -> mask of the vertices holding it
    for ci, orig in enumerate(trace.core_vertices):
        colors[orig] = color = core_coloring.colors[ci]
        classes[color] = classes.get(color, 0) | 1 << orig
    for removed, dominator in reversed(trace.steps):
        color = colors[dominator] if 0 <= dominator < n else None
        if color is None:
            raise ReinsertionConflict(
                f"dominator {dominator} uncolored when reinserting {removed}"
            )
        clash = g.rows[removed] & classes[color]
        if clash:
            raise ReinsertionConflict(
                f"vertex {removed} would clash with neighbor {lowest(clash)} on color {color}"
            )
        colors[removed] = color
        classes[color] |= 1 << removed
    if None in colors:
        raise ReinsertionConflict(f"vertex {colors.index(None)} is not covered by the trace")
    return Coloring(tuple(colors), core_coloring.k)
