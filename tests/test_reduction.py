import random

import pytest
from hypothesis import given, settings

from conftest import all_labelled_graphs, graphs, large_graphs, naive_chromatic, random_graph
from fourcolor import (
    Graph,
    Coloring,
    ReductionTrace,
    ReinsertionConflict,
    certify_class,
    complete,
    connected_components,
    cycle,
    empty,
    find_comparable_pair,
    induced_subgraph,
    path,
    reduce_to_core,
    reinsert_colors,
    verify_coloring,
)
from fourcolor.lab import exact_chromatic


def test_p3_leaves_are_comparable():
    assert find_comparable_pair(path(3)) == (0, 2)


def test_c5_has_no_comparable_pair():
    assert find_comparable_pair(cycle(5)) is None


def test_star_leaf_pair():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_comparable_pair(star) == (1, 2)


def test_p3_reduces_to_edge():
    core, trace = reduce_to_core(path(3))
    assert core == complete(2)
    assert len(trace.steps) == 1
    # chromatic numbers agree (reference oracle)
    assert naive_chromatic(path(3)) == naive_chromatic(core) == 2


def test_c5_is_its_own_core():
    core, trace = reduce_to_core(cycle(5))
    assert core == cycle(5) and trace.steps == ()


def test_empty_graph_reduces_to_a_point():
    core, trace = reduce_to_core(empty(3))
    assert core.n == 1 and len(trace.steps) == 2
    colored = reinsert_colors(empty(3), Coloring((1,), 1), trace)
    assert colored.colors == (1, 1, 1) and colored.k == 1


def test_reinsert_on_p3():
    g = path(3)
    core, trace = reduce_to_core(g)
    back = reinsert_colors(g, Coloring((1, 2), 2), trace)
    assert verify_coloring(g, back) is None
    assert back.k == 2


def test_reinsert_empty_trace_is_identity():
    g = cycle(5)
    _, trace = reduce_to_core(g)
    col = Coloring((1, 2, 1, 2, 3), 3)
    assert reinsert_colors(g, col, trace).colors == col.colors


def test_reinsert_detects_corruption():
    g = path(3)
    _, trace = reduce_to_core(g)
    # core is the edge {1, 2}; a monochromatic core coloring must be rejected
    with pytest.raises(ReinsertionConflict):
        bad = reinsert_colors(g, Coloring((1, 1), 1), trace)
        verify_coloring(g, bad)


def test_reinsert_names_a_vertex_the_trace_leaves_uncovered():
    with pytest.raises(ReinsertionConflict, match="^vertex 1 is not covered by the trace$"):
        reinsert_colors(empty(3), Coloring((1,), 1), ReductionTrace(3, (), (0,)))


@pytest.mark.parametrize("steps, core", [((), (0, 1, 2, 3)), (((-1, 0),), (0, 1, 2))])
def test_reinsert_rejects_trace_vertices_out_of_range(steps, core):
    trace = ReductionTrace(3, steps, core)
    with pytest.raises(ReinsertionConflict, match="out of range for n=3"):
        reinsert_colors(empty(3), Coloring((1,) * len(core), 1), trace)


def test_reinsert_rejects_a_core_coloring_of_the_wrong_length():
    with pytest.raises(ReinsertionConflict, match="^core coloring has 0 colors for 2 core vertices$"):
        reinsert_colors(empty(2), Coloring((), 0), ReductionTrace(2, (), (0, 1)))


@pytest.mark.parametrize("dominator", [1, 3, -1])
def test_reinsert_rejects_an_uncolored_dominator(dominator):
    trace = ReductionTrace(3, ((2, dominator),), (0,))
    with pytest.raises(ReinsertionConflict) as exc:
        reinsert_colors(empty(3), Coloring((1,), 1), trace)
    assert str(exc.value) == f"dominator {dominator} uncolored when reinserting 2"


def test_reinsert_names_the_lowest_clashing_neighbor():
    # 2 takes 0's color, but 2 is adjacent to 1 and 3, which hold it too.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    trace = ReductionTrace(4, ((2, 0),), (0, 1, 3))
    with pytest.raises(ReinsertionConflict) as exc:
        reinsert_colors(g, Coloring((1, 1, 1), 1), trace)
    assert str(exc.value) == "vertex 2 would clash with neighbor 1 on color 1"


def test_reduction_is_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10), rng.random())
        core, _ = reduce_to_core(g)
        again, trace = reduce_to_core(core)
        assert again == core and trace.steps == ()


@given(graphs(max_n=9, min_n=1))
@settings(max_examples=60, deadline=None)
def test_core_preserves_chromatic_number(g):
    core, trace = reduce_to_core(g)
    chi_g, _ = exact_chromatic(g)
    chi_core, col = exact_chromatic(core)
    assert chi_core == chi_g
    back = reinsert_colors(g, col, trace)
    assert verify_coloring(g, back) is None
    assert back.k == chi_core
    assert max(back.colors, default=0) <= chi_core


def reference_reduce(g):
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


def test_reduce_to_core_matches_the_rebuild_loop_on_every_small_graph():
    for g in all_labelled_graphs(6):
        core, trace = reduce_to_core(g)
        ref_core, ref_trace = reference_reduce(g)
        assert core.rows == ref_core.rows and trace == ref_trace, g.rows


def test_the_core_of_a_2p2_free_graph_is_connected():
    # four_color colors the core in one piece: an isolated core vertex would be
    # dominated by any other, and two components with edges hold an induced 2P2.
    for g in all_labelled_graphs(6):
        if certify_class(g, ("2P2",)) is None:
            assert len(connected_components(reduce_to_core(g)[0])) <= 1, g.rows


@given(large_graphs(max_n=30))
@settings(max_examples=100, deadline=None)
def test_reduce_to_core_matches_the_rebuild_loop_on_larger_graphs(g):
    core, trace = reduce_to_core(g)
    ref_core, ref_trace = reference_reduce(g)
    assert core.rows == ref_core.rows
    assert trace == ref_trace
    assert find_comparable_pair(g) == (ref_trace.steps[0] if ref_trace.steps else None)
