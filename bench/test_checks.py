"""Self-tests for the benchmark's generators and checkers.

    python3 -m pytest bench/test_checks.py

They use no fourcolor code, so a fault in the program cannot hide a fault
in the checks that are meant to catch it.
"""

import os
import random
import sys
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import graphs as G  # noqa: E402
import worker  # noqa: E402

MODELS = {
    "2P2": G.from_edges(4, [(0, 1), (2, 3)]),
    "K4": G.from_edges(4, list(combinations(range(4), 2))),
    "C4": G.cycle(4),
    "4P1": G.from_edges(4, []),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_class_checker_rejects_each_forbidden_model(name):
    assert G.quad_kind(MODELS[name], (0, 1, 2, 3)) == name
    forbidden = G.MEMBER if name in G.MEMBER else G.CO_MEMBER
    assert G.forbidden_quad(MODELS[name], forbidden) == (0, 1, 2, 3)


@pytest.mark.parametrize("name", ["W5", "C7-complement"])
def test_class_checker_accepts_the_tight_examples(name):
    base = gen.BASES[name]
    assert G.forbidden_quad(base, G.MEMBER) is None
    assert G.forbidden_quad(G.complement(base), G.CO_MEMBER) is None
    assert G.chromatic_number(base) == 4


def test_incremental_test_agrees_with_the_full_test():
    rng = random.Random(0)
    for _ in range(200):
        rows = G.from_edges(6, [p for p in combinations(range(6), 2) if rng.random() < 0.5])
        prefix_ok = G.forbidden_quad(G.induced(rows, list(range(5))), G.MEMBER) is None
        if prefix_ok:
            whole = G.forbidden_quad(rows, G.MEMBER) is None
            assert (G.forbidden_quad(rows, G.MEMBER, new=5) is None) == whole


def test_blowups_of_members_are_members():
    rng = random.Random(1)
    for base in [*gen.BASES.values(), gen.random_base(rng)]:
        g = gen.blowup(base, [rng.randint(1, 3) for _ in base])
        assert G.forbidden_quad(g, G.MEMBER) is None
        assert G.forbidden_quad(G.complement(g), G.CO_MEMBER) is None


def test_graph6_matches_networkx():
    rng = random.Random(2)
    for n in (1, 5, 13, 70):
        rows = G.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < 0.3])
        ref = nx.to_graph6_bytes(_nx(rows), header=False)
        assert G.to_graph6(rows) == ref.decode().strip()
        assert G.from_graph6(G.to_graph6(rows)) == rows


def _nx(rows):
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from(G.edges(rows))
    return g


def test_colouring_check_rejects_improper_and_partial_colourings():
    c5 = G.cycle(5)
    assert checks.proper(c5, (1, 2, 1, 2, 3), 3) is None
    assert "monochromatic" in checks.proper(c5, (1, 2, 1, 2, 1), 3)
    assert checks.proper(c5, (1, 2, 1, 2), 3) is not None
    assert checks.proper(c5, (1, 2, 1, 2, 5), 3) is not None
    assert checks.four_coloring(c5, (1, 2, 1, 2, 3), 3, chi=3) is None
    assert checks.four_coloring(c5, (1, 2, 1, 2, 3), 4, chi=3) is not None  # k overstated
    w5 = gen.BASES["W5"]
    assert checks.four_coloring(w5, (1, 2, 1, 2, 3, 4), 4, chi=4) is None
    assert checks.four_coloring(w5, (1, 2, 1, 2, 3, 3), 3, chi=4) is not None


def test_approx_check():
    c5 = G.cycle(5)  # complement of C5: (4P1, C4)-free, chi = 3
    cover = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4}), frozenset())
    assert checks.approx_coloring(c5, (1, 2, 3, 1, 2), 3, cover, ((1, 2), (3, 4)), chi=3) is None
    assert checks.approx_coloring(c5, (1, 2, 3, 1, 1), 3, cover, ((1, 2), (3, 4)), chi=3) is not None
    bad_cover = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}), frozenset())
    assert "clique" in checks.approx_coloring(c5, (1, 2, 1, 2, 3), 3, bad_cover, ((1, 2), (3, 4)), chi=3)
    assert "twice" in checks.approx_coloring(c5, (1, 2, 3, 1, 2), 3, cover, ((1, 2), (3, 4)), chi=1)
    c4 = G.cycle(4)  # a clique pair whose union is a hole
    cover4 = (frozenset({0, 1}), frozenset({2, 3}), frozenset(), frozenset())
    assert "chordal" in checks.approx_coloring(c4, (1, 2, 1, 2), 2, cover4, ((1, 2), (3, 4)), chi=2)


@pytest.mark.parametrize("n", range(1, 6))
def test_labelled_members_matches_a_direct_filter(n):
    pairs = list(combinations(range(n), 2))
    direct = set()
    for mask in range(1 << len(pairs)):
        rows = G.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if G.forbidden_quad(rows, G.MEMBER) is None:
            direct.add(G.to_graph6(rows))
    assert checks.labelled_members(n) == direct


def test_chi_oracles():
    assert G.chromatic_number(G.cycle(5)) == 3
    assert G.chromatic_number(MODELS["K4"]) == 4
    for s in (1, 2, 3):
        # C5 with each vertex replaced by a clique of size s: chi = ceil(5s/2)
        sizes = [s] * 5
        assert G.coloured_chi_lower_bound(G.cycle(5), sizes) == -(-5 * s // 2)
        g = G.complement(gen.blowup(G.cycle(5), sizes))  # complement(C5) is C5
        assert G.chromatic_number(g) == -(-5 * s // 2)
        assert G.dsatur_count(g) >= G.chromatic_number(g)
    rng = random.Random(3)
    for _ in range(5):
        base = gen.random_base(rng)
        sizes = [rng.randint(1, 2) for _ in base]
        co = G.complement(gen.blowup(base, sizes))
        assert G.coloured_chi_lower_bound(G.complement(base), sizes) <= G.chromatic_number(co)


def test_cores_have_no_comparable_pair():
    rng = random.Random(4)
    rows = gen.grow_member(rng, 12, gen.CORE_STARTS["W5"])
    core = G.induced(rows, gen.core_of(rows))
    assert not gen.has_comparable_pair(core)


def _loop(call):
    c5 = G.cycle(5)
    return worker.closed_loop(call, ["c5"], [c5], [{"label": "C5", "chi": 3}], False, 0.01, checks)


def test_closed_loop_passes_a_right_colouring():
    result = _loop(lambda g: (SimpleNamespace(colors=(1, 2, 1, 2, 3), k=3), None))
    assert result["correct"] and result["failed"] == 0
    assert result["colors_total"] == 3 and result["latencies"][0]


def test_closed_loop_fails_a_call_that_raises():
    def call(g):
        raise RuntimeError("boom")
    result = _loop(call)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["latencies"] == [[]] and result["colors_total"] == 0
    assert "raised RuntimeError" in result["errors"][0]


def test_closed_loop_fails_an_improper_colouring():
    result = _loop(lambda g: (SimpleNamespace(colors=(1, 2, 1, 2, 1), k=2), None))
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["latencies"] == [[]]


def test_cores_corpus_fills_the_quota():
    corpus = gen.cores_corpus(random.Random("cores:test"))
    counts = {}
    for r in corpus:
        rows = G.from_graph6(r["g6"])
        assert G.connected(rows) and not gen.has_comparable_pair(rows)
        key = (len(rows), gen.anchor_kind(rows))
        counts[key] = counts.get(key, 0) + 1
    assert counts == gen.CORE_QUOTA
