import random

import pytest
from hypothesis import given, settings

from conftest import all_labelled_graphs, graphs, large_graphs, naive_find_induced, random_graph
from fourcolor import (
    PATTERNS,
    certify_class,
    complement,
    complete,
    cycle,
    enumerate_induced,
    find_induced,
    induced_subgraph,
    matches_pattern,
    path,
)
from fourcolor.lab import construction


def test_pattern_models_match_their_definitions():
    h1 = PATTERNS["H1"].model
    # ring roles adjacent iff cyclic distance >= 2; hub sees 0, 1, 3, 4
    for i in range(6):
        for j in range(i + 1, 6):
            dist = min(j - i, 6 - (j - i))
            assert h1.has_edge(i, j) == (dist >= 2)
    assert sorted(h1.neighbors(6)) == [0, 1, 3, 4]

    h2 = PATTERNS["H2"].model
    assert sorted(h2.neighbors(5)) == [1, 2, 3, 4]
    for i in range(5):
        assert h2.has_edge(i, (i + 1) % 5)


def test_find_2p2_in_p5():
    w = find_induced(path(5), "2P2")
    assert w.vertices == (0, 1, 3, 4)
    assert matches_pattern(path(5), w)


def test_c5_is_k4_free():
    assert find_induced(cycle(5), "K4") is None


def test_c7_complement_has_no_c5():
    g = complement(cycle(7))
    assert naive_find_induced(g, "C5") is None  # independent brute force
    assert find_induced(g, "C5") is None


def test_h1_model_contains_itself_identically():
    h1 = PATTERNS["H1"].model
    w = find_induced(h1, "H1")
    assert w is not None and sorted(w.vertices) == list(range(7))
    assert matches_pattern(h1, w)


def test_enumeration_counts_match_automorphisms():
    assert sum(1 for _ in enumerate_induced(cycle(5), "C5")) == 10
    two_p2 = PATTERNS["2P2"].model
    assert sum(1 for _ in enumerate_induced(two_p2, "2P2")) == 8
    w5 = PATTERNS["W5"].model
    rims = list(enumerate_induced(w5, "C5"))
    assert len(rims) == 10
    assert all(5 not in w.vertices for w in rims)  # hub lies on no induced C5


def test_enumerate_containing_restricts_and_covers():
    g = path(5)
    all_wits = set(w.vertices for w in enumerate_induced(g, "2P2"))
    with_zero = set(w.vertices for w in enumerate_induced(g, "2P2", containing=0))
    assert with_zero == {w for w in all_wits if 0 in w}
    assert len(with_zero) == len(list(enumerate_induced(g, "2P2", containing=0)))


def test_certify_class_examples():
    assert certify_class(PATTERNS["W5"].model, ("2P2", "K4")) is None
    w = certify_class(path(5), ("2P2", "K4"))
    assert w.pattern == "2P2" and w.vertices == (0, 1, 3, 4)
    w = certify_class(complete(4), ("2P2", "K4"))
    assert w.pattern == "K4" and sorted(w.vertices) == [0, 1, 2, 3]


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_detection_agrees_with_naive_search(pattern):
    rng = random.Random(99)
    sizes = [4, 5, 6, 6, 7, 7, 8]
    for trial, n in enumerate(sizes):
        g = random_graph(rng, n, 0.3 + 0.08 * trial)
        ours = find_induced(g, pattern)
        naive = naive_find_induced(g, pattern)
        assert (ours is None) == (naive is None)
        if ours is not None:
            assert matches_pattern(g, ours)


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_every_witness_is_sound(g):
    for pattern in PATTERNS:
        for w in enumerate_induced(g, pattern):
            assert matches_pattern(g, w)
            break  # first witness per pattern keeps the property test quick


def test_freeness_is_hereditary():
    rng = random.Random(5)
    g = construction("C5-blowup(2,2,2,2,2)")
    assert certify_class(g, ("2P2", "K4")) is None
    for _ in range(10):
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        sub, _ = induced_subgraph(g, keep)
        assert certify_class(sub, ("2P2", "K4")) is None


def test_enumeration_is_deterministic():
    rng = random.Random(11)
    g = random_graph(rng, 8, 0.5)
    first = [w.vertices for w in enumerate_induced(g, "C4")]
    second = [w.vertices for w in enumerate_induced(g, "C4")]
    assert first == second


EDGE_TESTED = ("2P2", "K4", "4P1", "C4")
FORBIDDEN_SETS = [("2P2", "K4"), ("K4", "2P2"), ("4P1", "C4"), ("C4", "4P1")] + [
    (p,) for p in EDGE_TESTED
]


def reference_certify(g, forbidden):
    """The plain loop over the role-ordered search that certify_class must match."""
    for pattern in forbidden:
        w = find_induced(g, pattern)
        if w is not None:
            return w
    return None


def test_certify_class_matches_the_search_on_every_small_graph():
    for g in all_labelled_graphs(6):
        first = {p: find_induced(g, p) for p in EDGE_TESTED}
        for forbidden in FORBIDDEN_SETS:
            want = next((first[p] for p in forbidden if first[p] is not None), None)
            assert certify_class(g, forbidden) == want, (g.rows, forbidden)


@given(large_graphs(max_n=30))
@settings(max_examples=150, deadline=None)
def test_certify_class_matches_the_search_on_larger_graphs(g):
    for forbidden in FORBIDDEN_SETS:
        assert certify_class(g, forbidden) == reference_certify(g, forbidden)


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_certify_class_keeps_the_search_for_other_patterns(g):
    for pattern in sorted(set(PATTERNS) - set(EDGE_TESTED)):
        assert certify_class(g, (pattern,)) == find_induced(g, pattern)
