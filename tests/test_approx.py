import random

import networkx as nx
import pytest
from hypothesis import given, settings

import fourcolor.approx
from conftest import large_graphs
from fourcolor import (
    ChordalityViolation,
    Coloring,
    Graph,
    NotInClass,
    approx_color,
    certify_class,
    chordal_color,
    complete,
    cycle,
    empty,
    induced_subgraph,
    is_chordal,
    path,
    peo,
    verify_coloring,
)
from fourcolor.approx import _PAIRINGS, _mcs_visit_order
from fourcolor.graph import bits, complement
from fourcolor.lab import (
    GeneratorConfig,
    c5_blowup,
    clique_number,
    exact_chromatic,
    generate,
    generate_chordal,
    generate_interval,
)


def test_is_chordal_examples():
    assert is_chordal(cycle(4)) is not None
    assert is_chordal(cycle(5)) is not None
    assert is_chordal(path(6)) is None  # trees are chordal
    k4_minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_chordal(k4_minus) is None
    assert is_chordal(complete(5)) is None
    assert is_chordal(empty(0)) is None


def test_is_chordal_witness_is_a_real_violation():
    violation = is_chordal(cycle(4))
    v, (x, y) = violation
    assert not cycle(4).has_edge(x, y) and x != y


def test_peo_is_a_perfect_elimination_ordering():
    for seed in range(20):
        g = generate_chordal(10, 0.6, seed)
        order = peo(g)
        assert order is not None
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
            for i in range(len(later)):
                for j in range(i + 1, len(later)):
                    assert g.has_edge(later[i], later[j])
    assert peo(cycle(5)) is None


def reference_mcs(g):
    """The per-vertex scan: each pick looks at every unvisited vertex and keeps
    the first with the most visited neighbors."""
    weight = [0] * g.n
    visited = 0
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not (visited >> v) & 1 and (best < 0 or weight[v] > weight[best]):
                best = v
        order.append(best)
        visited |= 1 << best
        for u in bits(g.rows[best] & ~visited):
            weight[u] += 1
    return order


@given(large_graphs(max_n=30))
@settings(max_examples=150, deadline=None)
def test_mcs_bucket_queue_matches_the_scan(g):
    assert _mcs_visit_order(g) == reference_mcs(g)


def test_chordal_color_examples():
    tree = path(5)
    col = chordal_color(tree)
    assert verify_coloring(tree, col) is None and col.k == 2
    col = chordal_color(complete(4))
    assert col.k == 4
    with pytest.raises(ChordalityViolation):
        chordal_color(cycle(4))


def test_chordal_color_is_optimal_on_random_interval_graphs():
    for seed in range(25):
        g = generate_interval(10, seed)
        assert is_chordal(g) is None
        col = chordal_color(g)
        assert verify_coloring(g, col) is None
        chi, _ = exact_chromatic(g)
        assert col.k == chi == clique_number(g)


def test_chordal_color_count_matches_elimination_width():
    for seed in range(15):
        g = generate_chordal(11, 0.5, seed + 100)
        order = peo(g)
        pos = {v: i for i, v in enumerate(order)}
        width = max(
            (sum(1 for u in g.neighbors(v) if pos[u] > pos[v]) for v in order), default=-1
        )
        assert chordal_color(g).k == width + 1 == clique_number(g)


def test_approx_rejects_non_members():
    with pytest.raises(NotInClass) as err:
        approx_color(empty(4))
    assert err.value.witness.pattern == "4P1"
    with pytest.raises(NotInClass) as err:
        approx_color(cycle(4))
    assert err.value.witness.pattern == "C4"
    # C4 on 0..3 plus four isolated vertices holds both patterns. Its complement
    # is rejected for a 2P2 first, but the error names g's own first witness.
    g = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)])
    with pytest.raises(NotInClass) as err:
        approx_color(g)
    assert certify_class(complement(g), ("2P2", "K4")).pattern == "2P2"
    assert err.value.witness == certify_class(g, ("4P1", "C4"))
    assert (err.value.witness.pattern, err.value.witness.vertices) == ("4P1", (0, 2, 4, 5))


def test_approx_on_complete_graph():
    res = approx_color(complete(5))
    assert res.coloring.k == 5
    assert verify_coloring(complete(5), res.coloring) is None


def test_approx_on_c5_and_p5():
    res = approx_color(cycle(5))
    assert verify_coloring(cycle(5), res.coloring) is None
    assert 3 <= res.coloring.k <= 6  # chi = 3, guaranteed within factor two
    res = approx_color(path(5))
    assert verify_coloring(path(5), res.coloring) is None
    assert 2 <= res.coloring.k <= 4


def test_approx_cover_and_breakdown_are_consistent():
    for seed in range(40):
        cfg = GeneratorConfig(n=5 + seed % 8, seed=seed, cls="4p1c4-free", method="auto")
        g = generate(cfg)
        res = approx_color(g)
        assert verify_coloring(g, res.coloring) is None
        # the cover is four disjoint cliques spanning the graph
        seen = set()
        for clique in res.cover:
            assert not (seen & clique)
            seen |= clique
            members = sorted(clique)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert g.has_edge(members[i], members[j])
        assert seen == set(range(g.n))
        assert res.coloring.k == sum(res.breakdown)
        # the chosen pairing induces chordal subgraphs
        (a, b), (c, d) = res.pairing
        left, _ = induced_subgraph(g, res.cover[a - 1] | res.cover[b - 1])
        right, _ = induced_subgraph(g, res.cover[c - 1] | res.cover[d - 1])
        assert is_chordal(left) is None and is_chordal(right) is None
        # factor-two guarantee against the oracle
        chi, _ = exact_chromatic(g)
        assert chi <= res.coloring.k <= 2 * chi


def test_approx_reports_a_non_chordal_pair_in_original_ids(monkeypatch):
    # A five-cycle on 2..6 plus two universal vertices 0 and 1 is (4P1, C4)-free.
    # The fake colourer puts the whole cycle in one class, so the union of
    # cliques 3 and 4 is the five-cycle, seen at local ids 0..4.
    g = Graph.from_edges(
        7, [(2 + i, 2 + (i + 1) % 5) for i in range(5)] + [(u, v) for u in (0, 1) for v in range(7) if v != u]
    )
    monkeypatch.setattr(
        fourcolor.approx, "four_color", lambda co: (Coloring((1, 2, 3, 3, 3, 3, 3), 3), None)
    )
    with pytest.raises(ChordalityViolation) as err:
        approx_color(g)
    with pytest.raises(ChordalityViolation) as local:
        chordal_color(cycle(5))
    v, (x, y) = local.value.violation
    assert err.value.violation == (v + 2, (x + 2, y + 2))
    assert str(err.value) == f"clique pair (3, 4) is not chordal: {err.value.violation}"
    assert not g.has_edge(x + 2, y + 2)


def _relabelled_half_graph(h, seed):
    """a_i ~ b_j iff i <= j, on a random labelling of its 2h vertices."""
    label = list(range(2 * h))
    random.Random(seed).shuffle(label)
    return Graph.from_edges(2 * h, [(label[i], label[h + j]) for i in range(h) for j in range(i, h)])


def _koenig_clique(g, first, second):
    """A largest clique of the union of cliques `first` and `second`: the
    vertices outside a least cover of the non-edges across them (König)."""
    nonedges = nx.Graph()
    nonedges.add_nodes_from(first | second)
    nonedges.add_edges_from((u, v) for u in first for v in second if not g.has_edge(u, v))
    matching = nx.bipartite.hopcroft_karp_matching(nonedges, top_nodes=first)
    return (first | second) - nx.bipartite.to_vertex_cover(nonedges, matching, top_nodes=first)


def test_clique_pair_color_count_is_the_koenig_clique_size_on_every_pairing():
    # A7's 200 instances, all three pairings: a color class of a union of two
    # cliques is one vertex or a nonadjacent pair across them, so the optimal
    # count is |A| + |B| minus a largest matching of those non-edges, which is
    # the size of the König clique.
    for seed in range(200):
        cfg = GeneratorConfig(n=4 + seed % 9, seed=50_000 + seed, p=0.3 + 0.05 * (seed % 6), cls="4p1c4-free")
        g = generate(cfg)
        cover = approx_color(g).cover
        for pairing in _PAIRINGS:
            for a, b in pairing:
                sub, _ = induced_subgraph(g, cover[a] | cover[b])
                assert chordal_color(sub).k == len(_koenig_clique(g, cover[a], cover[b]))


@pytest.mark.parametrize(
    "member",
    [("half", h) for h in (50, 75, 100, 150)] + [("blowup", s) for s in ((30,) * 5, (20, 30, 40, 50, 60), (60,) * 5)],
)
def test_approx_ratio_is_certified_by_a_clique_past_the_oracle_guard(member):
    # Complements of members with n = 100..300, far past exact_chromatic's n <= 24.
    kind, size = member
    g = complement(_relabelled_half_graph(size, seed=size) if kind == "half" else c5_blowup(size))
    res = approx_color(g)
    assert verify_coloring(g, res.coloring) is None
    cliques = [_koenig_clique(g, res.cover[a - 1], res.cover[b - 1]) for a, b in res.pairing]
    for clique, count in zip(cliques, res.breakdown):
        vertices = sorted(clique)
        assert all(g.has_edge(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:])
        assert len(clique) == count
    assert res.coloring.k <= 2 * max(len(c) for c in cliques)
