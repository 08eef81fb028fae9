"""Comparable-vertex elimination and color reinsertion.

Two nonadjacent vertices u, v with N(u) subseteq N(v) have the same chromatic
behavior: u can be deleted and later recolored with v's color. Iterating this
to a fixed point yields a core with the same chromatic number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReinsertionConflict
from .graph import Graph, bits, induced_subgraph


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
    assigned: dict[int, int] = {
        orig: core_coloring.colors[ci] for ci, orig in enumerate(trace.core_vertices)
    }
    for removed, dominator in reversed(trace.steps):
        if dominator not in assigned:
            raise ReinsertionConflict(
                f"dominator {dominator} uncolored when reinserting {removed}"
            )
        color = assigned[dominator]
        for w in bits(g.rows[removed]):
            if assigned.get(w) == color:
                raise ReinsertionConflict(
                    f"vertex {removed} would clash with neighbor {w} on color {color}"
                )
        assigned[removed] = color
    colors = tuple(assigned[v] for v in range(g.n))
    return Coloring(colors, core_coloring.k)
