import pytest

import fourcolor.approx
from fourcolor import (
    ChordalityViolation,
    Coloring,
    Graph,
    NotInClass,
    approx_color,
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
from fourcolor.lab import (
    GeneratorConfig,
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
        fourcolor.approx, "_color_member", lambda co: (Coloring((1, 2, 3, 3, 3, 3, 3), 3), None)
    )
    with pytest.raises(ChordalityViolation) as err:
        approx_color(g)
    with pytest.raises(ChordalityViolation) as local:
        chordal_color(cycle(5))
    v, (x, y) = local.value.violation
    assert err.value.violation == (v + 2, (x + 2, y + 2))
    assert str(err.value) == f"clique pair (3, 4) is not chordal: {err.value.violation}"
    assert not g.has_edge(x + 2, y + 2)
