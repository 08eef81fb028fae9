import random

import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import graphs, random_graph
from fourcolor import (
    Graph,
    GraphFormatError,
    complement,
    complete,
    connected_components,
    cycle,
    emit_edge_list,
    emit_graph6,
    empty,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path,
)
from fourcolor.errors import SizeGuardExceeded
from fourcolor.lab import petersen


def test_c5_is_self_complementary():
    g = cycle(5)
    h = complement(g)
    assert h.n == 5 and h.edge_count() == 5
    # relabeling i -> 2i mod 5 maps the complement back onto a 5-cycle
    assert all(h.has_edge(2 * i % 5, 2 * (i + 1) % 5) for i in range(5))


def test_complement_of_empty_is_complete():
    assert complement(empty(4)) == complete(4)


def test_complement_is_involution_on_petersen():
    g = petersen()
    assert complement(complement(g)) == g


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_induced_p5_endpoints_give_2p2():
    sub, relabel = induced_subgraph(path(5), [0, 1, 3, 4])
    assert relabel == (0, 1, 3, 4)
    assert sorted(sub.edges()) == [(0, 1), (2, 3)]


def test_induced_k4_minus_vertex_is_triangle():
    sub, _ = induced_subgraph(complete(4), [0, 2, 3])
    assert sub == complete(3)


def test_induced_wheel_rim_is_cycle():
    from fourcolor import PATTERNS

    w5 = PATTERNS["W5"].model
    sub, _ = induced_subgraph(w5, range(5))
    assert sub == cycle(5)


def test_induced_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path(3), [0, 5])


@given(graphs(max_n=8), graphs(max_n=0))
@settings(max_examples=40, deadline=None)
def test_induced_preserves_adjacency(g, _):
    import random

    rng = random.Random(g.n * 7919 + g.edge_count())
    keep = [v for v in range(g.n) if rng.random() < 0.6]
    sub, relabel = induced_subgraph(g, keep)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(relabel[i], relabel[j])


def test_components_of_2p2():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_components_of_c5_and_empty():
    assert connected_components(cycle(5)) == [frozenset(range(5))]
    assert connected_components(empty(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]


# -- graph6 ------------------------------------------------------------------


def test_graph6_empty_and_k4_round_trip():
    assert emit_graph6(empty(0)) == "?"
    assert parse_graph6(emit_graph6(complete(4))) == complete(4)


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<Dhc") == cycle(5)
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("D")  # length mismatch
    with pytest.raises(GraphFormatError):
        parse_graph6("D" + chr(200))  # non-printable payload


@given(graphs(max_n=12))
@settings(max_examples=80, deadline=None)
def test_graph6_round_trip_matches_reference(g):
    ours = emit_graph6(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    reference = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == reference
    assert parse_graph6(ours) == g
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.edges()) == {tuple(e) for e in g.edges()}


def test_graph6_large_n_header():
    g = empty(100)
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_reads_networkx_tokens_with_long_headers():
    # parse_graph6 decodes the body column by column; networkx encodes it
    rng = random.Random(6)
    for n in (63, 100, 257):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            assert parse_graph6(nx.to_graph6_bytes(nxg, header=False).decode()) == g


# -- edge list ----------------------------------------------------------------


def test_edge_list_round_trip():
    g = petersen()
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2 2\n0 1\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        parse_edge_list("2 1\n0 2\n")  # out of range
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 2\n0 1\n0 1\n")  # duplicate edge


def test_parsers_refuse_headers_above_the_cap():
    from fourcolor.graph import MAX_N, _g6_encode_size

    with pytest.raises(SizeGuardExceeded):
        parse_edge_list(f"{MAX_N + 1} 0\n")
    with pytest.raises(SizeGuardExceeded):
        parse_edge_list("10000000000 0\n")
    with pytest.raises(SizeGuardExceeded):
        parse_graph6(_g6_encode_size(MAX_N + 1))
    assert parse_edge_list(f"{MAX_N} 0\n").n == MAX_N
