import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourcolor.coloring
import fourcolor.structure
from conftest import large_graphs, naive_chromatic, random_graph
from fourcolor import (
    PATTERNS,
    Coloring,
    Graph,
    InternalCaseFailure,
    NotInClass,
    certify_class,
    color_c5_case,
    color_fallback,
    color_h1_case,
    color_h2_case,
    color_w5_case,
    complement,
    complete,
    c5_partition,
    cycle,
    emit_graph6,
    enumerate_induced,
    four_color,
    find_induced,
    parse_graph6,
    path,
    reduce_to_core,
    select_best_h1,
    select_best_h2,
    verify_coloring,
)
from fourcolor.lab import GeneratorConfig, c5_blowup, construction, enumerate_class_members, generate
from test_structure import h1_with_plants

# -- plant helper around a five-cycle anchor -----------------------------------

_C5_RING = {
    "R": lambda i: {(i - 1) % 5, (i + 1) % 5},
    "Y": lambda i: {(i - 2) % 5, i % 5, (i + 2) % 5},
    "F": lambda i: set(range(5)) - {i},
    "U": lambda i: set(range(5)),
    "Z": lambda i: set(),
}


def _c5_plants_complete(k1, i1, k2, i2) -> bool:
    pair = tuple(sorted(((k1, i1), (k2, i2))))
    (k1, i1), (k2, i2) = pair
    dist = min((i1 - i2) % 5, (i2 - i1) % 5)
    if (k1, k2) in (("R", "R"), ("Y", "Y")):
        return dist == 1
    if (k1, k2) == ("R", "Y"):
        return i1 == i2
    if (k1, k2) == ("F", "Y"):
        return dist == 2
    if (k1, k2) == ("F", "R"):
        return dist == 1
    if (k1, k2) == ("R", "U"):
        return True
    return False


def c5_with_plants(plants, extra_edges=()):
    """Five-cycle plus one vertex per requested strip, wired per the class."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for offset, (kind, idx) in enumerate(plants):
        v = 5 + offset
        edges.extend((v, r) for r in _C5_RING[kind](idx))
    for a in range(len(plants)):
        for b in range(a + 1, len(plants)):
            if _c5_plants_complete(*plants[a], *plants[b]):
                edges.append((5 + a, 5 + b))
    edges.extend(extra_edges)
    return Graph.from_edges(5 + len(plants), edges)


def _assert_proper(g, coloring, max_k=4):
    assert verify_coloring(g, coloring) is None
    assert coloring.k <= max_k
    assert len(coloring.colors) == g.n and all(c >= 1 for c in coloring.colors)


def _run_h1(plants, extra_edges=()):
    # Pin the identity anchor so each planted strip lands in a known slot;
    # anchor re-selection has its own tests.
    from fourcolor import h1_partition

    g = h1_with_plants(plants, extra_edges)
    assert certify_class(g, ("2P2", "K4")) is None, "planted graph left the class"
    part = h1_partition(g, tuple(range(7)))
    col, rec = color_h1_case(g, part)
    _assert_proper(g, col)
    return rec.case


def _run_h2(plants, extra_edges=()):
    # Pin the anchor: the apex plant must sit at ("F", 4) so the base cycle is
    # already in apex-misses-role-4 position.
    from fourcolor import Witness, matches_pattern

    assert plants[0] == ("F", 4)
    g = c5_with_plants(plants, extra_edges)
    assert certify_class(g, ("2P2", "K4")) is None, "planted graph left the class"
    assert find_induced(g, "H1") is None, "planted graph contains the ring anchor"
    witness = Witness("H2", (4, 0, 1, 2, 3, 5))
    assert matches_pattern(g, witness)
    part = c5_partition(g, tuple(range(5)))
    col, rec = color_h2_case(g, witness, part)
    _assert_proper(g, col)
    return rec.case


# -- pipeline basics ---------------------------------------------------------------


def test_four_color_on_the_two_extremal_graphs():
    w5 = construction("W5")
    col, _ = four_color(w5)
    _assert_proper(w5, col)
    assert col.k == 4
    c7bar = construction("C7-complement")
    col, _ = four_color(c7bar)
    _assert_proper(c7bar, col)
    assert col.k == 4


def test_four_color_rejects_non_members():
    with pytest.raises(NotInClass) as err:
        four_color(path(5))
    assert err.value.witness.pattern == "2P2"
    assert err.value.witness.vertices == (0, 1, 3, 4)
    with pytest.raises(NotInClass) as err:
        four_color(complete(5))
    assert err.value.witness.pattern == "K4"


def test_four_color_small_graphs():
    for g, expect in ((cycle(5), 3), (complete(3), 3), (Graph.from_edges(1), 1), (Graph.from_edges(0), 0)):
        col, _ = four_color(g)
        _assert_proper(g, col)
        assert col.k <= max(expect, 4)


def test_four_color_disconnected_input():
    # only one component may carry edges: two disjoint edges would be a 2P2
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0)])
    col, _ = four_color(g)
    _assert_proper(g, col)
    assert col.k == 3


def test_four_color_blowup_reduces_and_reinserts():
    g = c5_blowup((2, 2, 2, 2, 2))
    col, _ = four_color(g)
    _assert_proper(g, col)
    assert naive_chromatic(g) == 3  # using four colors here is allowed, three is not required


def test_four_color_traces_exactly_one_case_per_member():
    for n in range(1, 7):
        for g in enumerate_class_members(n):
            _, trace = four_color(g)
            assert len(trace.records) == 1, g.rows


def test_dispatch_exclusivity():
    w5 = construction("W5")
    _, trace = four_color(w5)
    assert [r.lemma for r in trace.records] == ["w5"]
    c5 = cycle(5)
    _, trace = four_color(c5)
    assert [r.lemma for r in trace.records] == ["c5"]
    h1 = construction("H1")
    _, trace = four_color(h1)
    assert [r.lemma for r in trace.records] == ["h1"]
    # the apex path runs only on ring-anchor-free graphs
    h2core = construction("H2-core")
    assert find_induced(h2core, "H1") is None
    _, trace = four_color(h2core)
    assert [r.lemma for r in trace.records] == ["h2"]


def test_verify_coloring_examples():
    k2 = complete(2)
    assert verify_coloring(k2, Coloring((1, 1), 1)) == (0, 1)
    assert verify_coloring(cycle(5), Coloring((1, 2, 1, 2, 3), 3)) is None
    g = random_graph(random.Random(0), 6, 0.5)
    assert verify_coloring(g, Coloring(tuple(range(1, 7)), 6)) is None


def reference_verify(g, coloring):
    """The edge loop: first monochromatic edge in g.edges() order."""
    for u, v in g.edges():
        if coloring.colors[u] == coloring.colors[v]:
            return u, v
    return None


@given(large_graphs(max_n=30), st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_verify_coloring_matches_the_edge_loop(g, k, rng):
    coloring = Coloring(tuple(rng.randint(0, k) for _ in range(g.n)), k)
    assert verify_coloring(g, coloring) == reference_verify(g, coloring)


# -- fallback ---------------------------------------------------------------------


def test_fallback_small_cases():
    k3 = complete(3)
    col, rec = color_fallback(k3)
    _assert_proper(k3, col)
    assert col.k == 3
    assert rec.line() == "lemma=fallback case=fallback/search anchor="
    one = Graph.from_edges(1)
    assert color_fallback(one)[0].k == 1
    c7bar = construction("C7-complement")
    col, _ = color_fallback(c7bar)
    _assert_proper(c7bar, col)
    assert col.k == 4
    # No five-cycle-free class member with n <= 7 makes the search dead-end.
    # This 4-chromatic non-member does, 21 times, and is still 4-colored.
    g = parse_graph6("FkKxw")
    assert certify_class(g, ("2P2", "K4")) is not None
    col, _ = color_fallback(g)
    _assert_proper(g, col)
    assert col.k == 4
    with pytest.raises(InternalCaseFailure, match="4-color search exhausted"):
        color_fallback(parse_graph6("D~{"))  # K5


def test_fallback_search_is_not_bounded_by_recursion_depth():
    from fourcolor import empty

    assert color_fallback(empty(1100))[0].k == 1


def test_fallback_colors_five_cycles_and_wheels():
    # The search is complete, so it needs no five-cycle-free input.
    c5 = cycle(5)
    col, _ = color_fallback(c5)
    _assert_proper(c5, col)
    assert col.k == 3
    w5 = construction("W5")
    col, _ = color_fallback(w5)
    _assert_proper(w5, col)
    assert col.k == 4


def test_every_anchor_holds_an_induced_five_cycle():
    # The dispatch searches for a five-cycle first and sends a core without
    # one to the fallback; that skips no anchor only because each holds one.
    for p in ("H1", "H2", "W5"):
        assert find_induced(PATTERNS[p].model, "C5") is not None


def test_pipeline_searches_a_fallback_component_for_five_cycles_once(monkeypatch):
    searched, enumerated = [], []

    def counting(g, pattern, containing=None):
        searched.append(pattern)
        return find_induced(g, pattern, containing)

    def enumerating(g, pattern, containing=None):
        enumerated.append(pattern)
        return enumerate_induced(g, pattern, containing)

    monkeypatch.setattr(fourcolor.coloring, "find_induced", counting)
    monkeypatch.setattr(fourcolor.structure, "enumerate_induced", enumerating)
    _, trace = four_color(construction("C7-complement"))
    assert [r.lemma for r in trace.records] == ["fallback"]
    assert searched == ["C5"]
    assert "H1" not in enumerated and "H2" not in enumerated


# -- ring-anchor case coverage -------------------------------------------------------


def test_h1_bare_anchor_uses_the_empty_case():
    case = _run_h1([])
    assert case == "h1/neither/f61empty/a"


def test_h1_case_both_strips():
    assert _run_h1([("F", 0), ("F", 3)]) == "h1/both/f23"
    assert _run_h1([("F", 0), ("F", 3), ("F", 1)]) == "h1/both/f23"
    assert _run_h1([("F", 0), ("F", 3), ("F", 5)]) == "h1/both/f61/plain"
    assert _run_h1([("F", 0), ("F", 3), ("F", 5), ("D", 4)]) == "h1/both/f61/sided"
    assert _run_h1([("F", 0), ("F", 3), ("F", 2)]) == "h1/both/f34"
    assert _run_h1([("F", 0), ("F", 3), ("F", 4)]) == "h1/both/f56"
    # attached/detached split of the near D strip; the D vertex must attach to
    # exactly one of the two F strips or a 2P2 appears
    assert _run_h1([("F", 0), ("F", 3), ("F", 2), ("D", 0)], extra_edges=[(10, 7)]) == "h1/both/f34"
    assert (
        _run_h1([("F", 0), ("F", 3), ("F", 2), ("D", 0)], extra_edges=[(10, 9)])
        == "h1/both/f34"
    )


def test_h1_case_neither_strip():
    assert _run_h1([("F", 1), ("F", 2), ("F", 4)]) == "h1/neither/f61empty/a"
    # an attached side strip forces the middle outer strip empty (a K4 would
    # close through their shared ring vertex otherwise)
    assert (
        _run_h1([("F", 1), ("F", 4), ("D", 4)], extra_edges=[(9, 8)])
        == "h1/neither/f61empty/b"
    )
    assert _run_h1([("F", 5), ("F", 2), ("D", 4)], extra_edges=[(9, 7)]) == "h1/neither/f23empty/a"
    assert _run_h1([("F", 5), ("F", 2)]) == "h1/neither/f23empty/b"
    assert _run_h1([("F", 5)]) == "h1/neither/f23empty/b"
    assert (
        _run_h1([("F", 5), ("F", 2), ("D", 2)], extra_edges=[(9, 8)])
        == "h1/neither/f23empty/c"
    )
    assert _run_h1([("F", 5), ("F", 1), ("F", 2)]) == "h1/neither/f56empty"
    assert _run_h1([("F", 5), ("F", 1), ("F", 4), ("D", 4)]) == "h1/neither/f34empty/a"
    assert _run_h1([("F", 5), ("F", 1), ("F", 4)]) == "h1/neither/f34empty/b"


def test_h1_case_one_side_f45():
    assert _run_h1([("F", 3), ("F", 1), ("F", 2)]) == "h1/f45/f56empty/a"
    assert (
        _run_h1([("F", 3), ("F", 5), ("D", 5)], extra_edges=[(9, 8)])
        == "h1/f45/f56empty/b"
    )
    assert _run_h1([("F", 3), ("F", 4), ("D", 4)]) == "h1/f45/f34empty/a"
    assert _run_h1([("F", 3), ("F", 4)]) == "h1/f45/f34empty/b"
    assert (
        _run_h1([("F", 3), ("F", 4), ("F", 1), ("D", 1)], extra_edges=[(10, 9)])
        == "h1/f45/f34empty/c"
    )


def test_h1_case_one_side_f12():
    assert _run_h1([("F", 0), ("F", 2), ("F", 4)]) == "h1/f12/f61empty/a"
    assert (
        _run_h1([("F", 0), ("F", 2), ("F", 4), ("D", 1), ("D", 5)], extra_edges=[(10, 8)])
        == "h1/f12/f61empty/b"
    )
    assert _run_h1([("F", 0), ("F", 2)]) == "h1/f12/f61empty/c"
    assert _run_h1([("F", 0)]) == "h1/f12/f61empty/c"
    assert _run_h1([("F", 0), ("F", 4)]) == "h1/f12/f61empty/d"
    assert _run_h1([("F", 0), ("F", 5), ("F", 2), ("F", 4)]) == "h1/f12/f23empty/a"
    assert (
        _run_h1([("F", 0), ("F", 5), ("F", 2), ("F", 4), ("D", 1), ("D", 5)], extra_edges=[(11, 9)])
        == "h1/f12/f23empty/b"
    )
    assert _run_h1([("F", 0), ("F", 5), ("F", 4)]) == "h1/f12/f23empty/c"
    assert _run_h1([("F", 0), ("F", 5), ("D", 4)]) == "h1/f12/f23empty/d"
    assert _run_h1([("F", 0), ("F", 5)]) == "h1/f12/f23empty/e"
    assert _run_h1([("F", 0), ("F", 5), ("F", 2)]) == "h1/f12/f23empty/e"


def test_h1_normalization_flips():
    # opposite near strip forces the half-turn
    assert _run_h1([("D", 3), ("F", 1), ("F", 4)]).startswith("h1/")
    # planted far T strips force the reflection
    assert _run_h1([("T", 0), ("T", 4)]).startswith("h1/")
    assert _run_h1([("D", 3)]).startswith("h1/")


def test_h1_with_t_and_w_strips():
    assert _run_h1([("W", 0)]).startswith("h1/")
    assert _run_h1([("T", 1)]).startswith("h1/")
    assert _run_h1([("F", 0), ("F", 3), ("T", 1), ("W", 0)]) == "h1/both/f23"
    assert _run_h1([("F", 1), ("F", 2), ("F", 4), ("T", 2)]) == "h1/neither/f61empty/a"


# -- apex-anchor case coverage ---------------------------------------------------------


def test_h2_bare_model_case():
    h2 = PATTERNS["H2"].model
    witness, part = select_best_h2(h2)
    col, rec = color_h2_case(h2, witness, part)
    _assert_proper(h2, col)
    assert rec.case == "h2/apexfree"


def test_h2_hubbed_cases():
    # apex strip plant plus a full hub
    assert _run_h2([("F", 4), ("U", 0)]) == "h2/hubbed/a"
    assert (
        _run_h2([("F", 4), ("U", 0), ("Y", 2), ("R", 1)], extra_edges=[(7, 8)])
        in ("h2/hubbed/a", "h2/hubbed/b")
    )


def test_h2_apexfree_extensions():
    # far R strip with and without apex attachment
    assert _run_h2([("F", 4), ("R", 2)]) == "h2/apexfree"
    assert _run_h2([("F", 4), ("R", 2)], extra_edges=[(5, 6)]) == "h2/apexfree"
    assert _run_h2([("F", 4), ("Z", 0)], extra_edges=[(5, 6)]) == "h2/apexfree"


def test_h2_apexed_cases():
    # apex sees its own R strip
    assert _run_h2([("F", 4), ("R", 4)], extra_edges=[(5, 6)]) == "h2/apexed/detached"
    assert (
        _run_h2(
            [("F", 4), ("R", 4), ("R", 1), ("Y", 2)],
            extra_edges=[(5, 6), (7, 8), (6, 7)],
        )
        == "h2/apexed/attached"
    )


def test_h2_apexfree_three_way_z_fit():
    # z sticks to one Y strip only, so the first-fit extension covers it
    assert (
        _run_h2([("F", 4), ("Y", 2), ("Z", 0)], extra_edges=[(7, 6), (7, 5)])
        == "h2/apexfree"
    )


def test_h2_apexfree_rebuilt_mechanics():
    # The full rebuilt path, driven directly: the instance carries a ring
    # anchor (so the pipeline would route elsewhere), but the apex-case
    # machinery must still emit a proper coloring from its own anchor.
    plants = [("F", 4), ("Y", 2), ("Y", 3), ("Y", 4), ("Z", 0)]
    extra = [(9, 6), (9, 7), (9, 8), (5, 9)]
    g = c5_with_plants(plants, extra)
    assert certify_class(g, ("2P2", "K4")) is None
    from fourcolor import Witness, matches_pattern

    witness = Witness("H2", (4, 0, 1, 2, 3, 5))
    assert matches_pattern(g, witness)
    col, rec = color_h2_case(g, witness, c5_partition(g, tuple(range(5))))
    _assert_proper(g, col)
    assert rec.case == "h2/apexfree/rebuilt"
    # the same graph routes through a different anchor in the pipeline
    col2, _ = four_color(g)
    _assert_proper(g, col2)


def test_h2_case_partitions_only_to_mirror(monkeypatch):
    import fourcolor.coloring as coloring
    from fourcolor import Witness

    real = coloring.c5_partition
    calls = []
    monkeypatch.setattr(coloring, "c5_partition", lambda g, cyc: calls.append(cyc) or real(g, cyc))
    witness = Witness("H2", (4, 0, 1, 2, 3, 5))
    for plants, case, mirrors in (
        ([("F", 4), ("U", 0)], "h2/hubbed/a", 0),
        ([("F", 4), ("R", 1)], "h2/apexfree", 1),
    ):
        calls.clear()
        g = c5_with_plants(plants)
        col, rec = color_h2_case(g, witness, real(g, tuple(range(5))))
        _assert_proper(g, col)
        assert rec.case == case
        assert len(calls) == mirrors


# -- hub and bare-cycle case coverage --------------------------------------------------


def test_w5_with_satellites():
    w5 = construction("W5")
    col, rec = color_w5_case(w5, c5_partition(w5, tuple(range(5))))
    _assert_proper(w5, col)
    assert rec.line() == "lemma=w5 case=w5/hub anchor=0,1,2,3,4,5"
    assert col.k == 4
    assert sorted(col.colors).count(col.colors[5]) == 1  # hub gets its own class here

    g = c5_with_plants([("U", 0), ("R", 0)])
    assert certify_class(g, ("2P2", "K4")) is None
    col, trace = four_color(g)
    _assert_proper(g, col)


def test_c5_case_spread_and_blowup():
    c5 = cycle(5)
    col, rec = color_c5_case(c5, c5_partition(c5, tuple(range(5))))
    _assert_proper(c5, col)
    assert rec.case == "c5/spread"

    # four_color reduces the blow-up to a five-cycle core and takes the same leaf
    g = c5_blowup((3, 2, 2, 1, 1))
    _, rtrace = reduce_to_core(g)
    assert rtrace.steps == ((0, 1), (1, 2), (3, 4), (5, 6))
    col, trace = four_color(g)
    _assert_proper(g, col)
    assert [r.case for r in trace.records] == ["c5/spread"]

    # z = 7 sees both Y[2] and Y[4], so it joins the class of cycle vertex 4
    g = c5_with_plants([("Y", 2), ("Y", 4), ("Z", 0)], [(7, 5), (7, 6)])
    assert emit_graph6(g) == "GhejOK"
    assert certify_class(g, ("2P2", "K4")) is None
    assert all(find_induced(g, p) is None for p in ("W5", "H1", "H2"))
    col, rec = color_c5_case(g, c5_partition(g, tuple(range(5))))
    _assert_proper(g, col)
    assert rec.case == "c5/spread"
    assert col.colors[7] == col.colors[4]


def test_no_wheel_free_member_has_a_z_vertex_on_three_consecutive_y_strips():
    # color_c5_case runs only on cores without an induced W5. The five-cycle
    # is 0..4, z = 5 sees no cycle vertex, and 6, 7, 8 lie in Y[i], Y[i+1],
    # Y[i+2] and see z. Whichever of the three y-y pairs are edges, the graph
    # holds a 2P2, a K4 or a W5, so no such z reaches the bare-cycle case.
    ys = (6, 7, 8)
    pairs = ((6, 7), (7, 8), (6, 8))
    for i in range(5):
        fixed = [(j, (j + 1) % 5) for j in range(5)] + [(5, y) for y in ys]
        for y, strip in zip(ys, (i, i + 1, i + 2)):
            fixed += [(y, r) for r in _C5_RING["Y"](strip)]
        for chosen in range(8):
            edges = fixed + [pair for bit, pair in enumerate(pairs) if chosen >> bit & 1]
            g = Graph.from_edges(9, edges)
            assert any(find_induced(g, p) is not None for p in ("2P2", "K4", "W5")), (i, chosen)


# -- leaves reached on real graphs -----------------------------------------------------

# Relabellings of suite.SEED_CORES entries (IUxuvK}{G for the first two,
# JUxrC~qrLk_ for the others) whose tie-breaks reach ring-anchor leaves that
# the A2 mix does not.
RELABELLED_CORE_LEAVES = [
    ("IFvfZYTMw", "h1/both/f34"),
    ("ItjZetmV_", "h1/both/f56"),
    ("JbdFzylyTg_", "h1/f45/f34empty/c"),
    ("JHztGvpsmy_", "h1/f45/f56empty/b"),
]


@pytest.mark.parametrize("token,leaf", RELABELLED_CORE_LEAVES)
def test_four_color_reaches_ring_leaves_on_relabelled_cores(token, leaf):
    g = parse_graph6(token)
    col, trace = four_color(g)
    _assert_proper(g, col)
    assert [r.case for r in trace.records] == [leaf]


# -- randomized agreement ------------------------------------------------------------


def test_four_color_on_arbitrary_small_members():
    from hypothesis import assume, given, settings
    from conftest import graphs
    from fourcolor.lab import exact_chromatic

    @given(graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def run(g):
        assume(certify_class(g, ("2P2", "K4")) is None)
        col, _ = four_color(g)
        _assert_proper(g, col)
        assert col.k >= exact_chromatic(g)[0]

    run()


def test_four_color_agrees_with_oracle_on_generated_members():
    from fourcolor.lab import exact_chromatic

    for seed in range(150):
        method = ("incremental", "incremental:C5", "incremental:H1", "planted:W5", "planted:H2")[
            seed % 5
        ]
        cfg = GeneratorConfig(n=8 + seed % 7, seed=seed, p=0.25 + 0.05 * (seed % 7), method=method)
        g = generate(cfg)
        col, _ = four_color(g)
        _assert_proper(g, col)
        chi, _ = exact_chromatic(g)
        assert chi <= 4 and col.k >= chi
