"""Comparable-vertex elimination and color reinsertion.

Two nonadjacent vertices u, v with N(u) subseteq N(v) have the same chromatic
behavior: u can be deleted and later recolored with v's color. Iterating this
to a fixed point yields a core with the same chromatic number.

The reduction scans a `pending` mask upward: the alive vertices not yet known
to be undominated. Deleting w leaves every non-neighbor u of w undominated if
it was: N(u) is unchanged and the candidates v only shrink. A neighbor u of w
may become dominated only if w was the last alive vertex of its false-twin
class (same row): while a twin w' lives, w' is in N(u) and misses exactly the
vertices w missed, so it rules out every v that w ruled out. So only then do
w's alive neighbors go back to `pending`.
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


def reduce_to_core(g: Graph) -> tuple[Graph, ReductionTrace]:
    """Delete dominated vertices until no comparable pair remains.

    Each step removes the smallest dominated u of the remaining subgraph for
    the smallest v dominating it, so the removal order is that of rebuilding
    the subgraph after every deletion. The core is built once, at the end.
    """
    rows = g.rows
    classes: dict[int, int] = {}  # row -> mask of the false twins sharing it
    for v, r in enumerate(rows):
        classes[r] = classes.get(r, 0) | 1 << v
    twins = [classes[r] for r in rows]
    alive = pending = (1 << g.n) - 1
    steps: list[tuple[int, int]] = []
    while pending:
        ubit = pending & -pending
        pending ^= ubit
        u = ubit.bit_length() - 1
        ru = rows[u] & alive
        # v is adjacent to every neighbor of u iff N(u) subseteq N(v); twins
        # have equal rows, so one member of each class is intersected
        cand = alive & ~ru & ~ubit
        rest = ru
        while rest and cand:
            x = (rest & -rest).bit_length() - 1
            cand &= rows[x]
            rest &= ~twins[x]
        if cand:
            steps.append((u, lowest(cand)))
            alive ^= ubit
            if not twins[u] & alive:
                pending |= ru
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
