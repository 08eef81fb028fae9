import pytest

from conftest import random_graph
from fourcolor import (
    PATTERNS,
    Graph,
    UnclassifiableVertex,
    Witness,
    c5_partition,
    certify_class,
    check_c5_properties,
    check_h1_properties,
    check_h2_properties,
    cycle,
    enumerate_induced,
    find_induced,
    h1_partition,
    matches_pattern,
    reduce_to_core,
    select_best_h1,
    select_best_h2,
)
from fourcolor.lab import GeneratorConfig, generate
from fourcolor.structure import (
    H1_AUTOMORPHISMS,
    H2_APEX_CYCLE,
    H2_CYCLE_REFLECTION,
    permute,
)

# Ring neighborhoods for planted vertices, per strip kind and index (mod 6).
_H1_RING = {
    "D": lambda i: {i % 6, (i + 1) % 6},
    "T": lambda i: {(i - 1) % 6, i % 6, (i + 1) % 6},
    "F": lambda i: {(i - 1) % 6, i % 6, (i + 1) % 6, (i + 2) % 6},
    "W": lambda i: {0, 1, 3, 4},
}
_H1_HUB_ADJ = {"D": {1, 2, 4, 5}, "T": {0, 1, 3, 4}, "F": {0, 3}, "W": set()}


def _h1_plants_complete(k1, i1, k2, i2) -> bool:
    """Whether two planted strip vertices must be adjacent."""
    key = frozenset(((k1, i1), (k2, i2)))
    if k1 == k2 == "W":
        return False
    if k1 == "W" or k2 == "W":
        kind, idx = (k2, i2) if k1 == "W" else (k1, i1)
        return idx in _H1_HUB_ADJ[kind]
    if k1 == k2 and k1 in ("D", "F"):
        d = abs(i1 - i2)
        return min(d, 6 - d) == 2
    if k1 == k2 == "T":
        if (i1 - i2) % 6 == 3:
            return True
        return key in (
            frozenset((("T", 2), ("T", 0))),
            frozenset((("T", 2), ("T", 4))),
            frozenset((("T", 5), ("T", 1))),
            frozenset((("T", 5), ("T", 3))),
        )
    if {k1, k2} == {"D", "T"}:
        (di, ti) = (i1, i2) if k1 == "D" else (i2, i1)
        return (ti - di) % 6 in (3, 4)
    if {k1, k2} == {"F", "T"}:
        (fi, ti) = (i1, i2) if k1 == "F" else (i2, i1)
        if (ti - fi) % 6 in (3, 4):
            return True
        return (fi, ti) in ((1, 0), (4, 3), (2, 4), (5, 1))
    if {k1, k2} == {"D", "F"}:
        (di, fi) = (i1, i2) if k1 == "D" else (i2, i1)
        return (di, fi) in (
            (0, 3), (3, 0),
            (1, 4), (1, 5), (2, 4), (2, 5),
            (5, 1), (5, 2), (4, 1), (4, 2),
        )
    return False


def h1_with_plants(plants, extra_edges=()):
    """The seven-vertex ring anchor plus one vertex per requested strip."""
    base = PATTERNS["H1"].model
    edges = list(base.edges())
    for offset, (kind, idx) in enumerate(plants):
        v = 7 + offset
        edges.extend((v, r) for r in _H1_RING[kind](idx))
        if idx in _H1_HUB_ADJ[kind] and kind != "W":
            edges.append((v, 6))
    for a in range(len(plants)):
        for b in range(a + 1, len(plants)):
            if _h1_plants_complete(*plants[a], *plants[b]):
                edges.append((7 + a, 7 + b))
    edges.extend(extra_edges)
    return Graph.from_edges(7 + len(plants), edges)


# -- five-cycle partition --------------------------------------------------------


def test_bare_cycle_partition_is_empty():
    part = c5_partition(cycle(5), tuple(range(5)))
    assert not part.Z and not part.U
    assert all(not s for s in part.R + part.Y + part.F)


def test_wheel_partition_has_only_the_hub():
    w5 = PATTERNS["W5"].model
    part = c5_partition(w5, tuple(range(5)))
    assert part.U == 1 << 5
    assert all(not s for s in part.R + part.Y + part.F) and not part.Z


def test_apex_lands_in_the_missed_slot():
    h2 = PATTERNS["H2"].model  # apex misses cycle role 0
    part = c5_partition(h2, tuple(range(5)))
    assert part.F[0] == 1 << 5


def test_unclassifiable_vertex_is_reported():
    # a pendant vertex has one cycle neighbor: no class fits
    g = cycle(5).add_vertex(0b00001)
    with pytest.raises(UnclassifiableVertex) as err:
        c5_partition(g, tuple(range(5)))
    assert err.value.vertex == 5


def test_partition_rejects_non_cycle():
    with pytest.raises(ValueError):
        c5_partition(cycle(5), (0, 1, 2, 4, 3))


# -- ring-anchor partition ----------------------------------------------------------


def test_h1_model_partition():
    h1 = PATTERNS["H1"].model
    part = h1_partition(h1, tuple(range(7)))
    assert part.W == 1 << 6  # the hub classifies into W
    assert not part.Z and all(not s for s in part.D + part.T + part.F)


def test_h1_planted_strips_classify():
    g = h1_with_plants([("T", 0), ("W", 0), ("F", 2)])
    assert certify_class(g, ("2P2", "K4")) is None
    part = h1_partition(g, tuple(range(7)))
    assert part.T[0] == 1 << 7
    assert part.W == 1 << 6 | 1 << 8
    assert part.F[2] == 1 << 9


def test_h1_automorphisms_are_automorphisms():
    h1 = PATTERNS["H1"].model
    for perm in H1_AUTOMORPHISMS:
        assert matches_pattern(h1, Witness("H1", permute(tuple(range(7)), perm)))
    base = cycle(5)
    assert matches_pattern(base, Witness("C5", permute(tuple(range(5)), H2_CYCLE_REFLECTION)))
    # the apex of the H2 model sees exactly roles 0..3 of its apex cycle
    apex_cycle = permute(tuple(range(5)), H2_APEX_CYCLE)
    assert [PATTERNS["H2"].model.has_edge(5, v) for v in apex_cycle] == [True] * 4 + [False]


# -- extremal anchor selection ----------------------------------------------------


def test_select_best_h1_trivial_and_absent():
    h1 = PATTERNS["H1"].model
    best = select_best_h1(h1)
    assert best is not None
    witness, part = best
    assert sorted(witness.vertices) == list(range(7))
    assert select_best_h1(cycle(5)) is None


def test_select_best_h1_prefers_heavier_anchor():
    g = h1_with_plants([("T", 0)])
    witness, part = select_best_h1(g)
    got = sum(s.bit_count() for s in part.T) + sum(s.bit_count() for s in part.F)
    assert got == 1
    # independent check: no anchor scores above 1, and the chosen one hits it
    def score(w):
        ring = w.vertices[:6]
        total = 0
        for v in range(g.n):
            if v in w.vertices:
                continue
            hits = frozenset(r for r in range(6) if g.has_edge(v, ring[r]))
            run = len(hits)
            consecutive = any(
                hits == frozenset(((s + d) % 6) for d in range(run)) for s in range(6)
            )
            if run in (3, 4) and consecutive:
                total += 1
        return total

    scores = [score(w) for w in enumerate_induced(g, "H1")]
    assert max(scores) == 1 and score(witness) == 1


def test_select_best_h2_on_the_model():
    h2 = PATTERNS["H2"].model
    witness, part = select_best_h2(h2)
    assert witness.vertices == (0, 1, 2, 3, 4, 5)
    assert part.cycle == (1, 2, 3, 4, 0)
    assert part.F[4] == 1 << 5 and not part.U


def test_select_best_h2_absent_on_wheel_and_cycle():
    from conftest import naive_find_induced

    # independent exhaustive check that the wheel has no apex anchor
    assert naive_find_induced(PATTERNS["W5"].model, "H2") is None
    assert select_best_h2(PATTERNS["W5"].model) is None
    assert select_best_h2(cycle(5)) is None


def test_partitions_are_partitions():
    import random

    from conftest import random_graph

    rng = random.Random(99)
    found = 0
    while found < 15:
        g = random_graph(rng, 9, 0.35)
        if certify_class(g, ("2P2", "K4")) is not None:
            continue
        w = find_induced(g, "C5")
        if w is None:
            continue
        part = c5_partition(g, w)
        groups = [part.Z, part.U] + list(part.R + part.Y + part.F)
        union = sum(1 << v for v in part.cycle)
        total = len(part.cycle)
        for s in groups:
            assert not (union & s)  # pairwise disjoint, and disjoint from the anchor
            union |= s
            total += s.bit_count()
        assert union == (1 << g.n) - 1 and total == g.n
        found += 1


def test_select_best_h2_minimizes_hub_count():
    # join a hub to the apex model: the hub becomes a U vertex for the old
    # anchor, so the choice must re-anchor to keep |U| minimal at zero
    h2 = PATTERNS["H2"].model
    g = h2.add_vertex(0b011111)  # adjacent to the whole cycle, not the apex
    assert certify_class(g, ("2P2", "K4")) is None
    if find_induced(g, "H1") is None:
        witness, part = select_best_h2(g)
        assert part.U.bit_count() == min(
            c5_partition(g, (w.vertices[1], w.vertices[2], w.vertices[3], w.vertices[4], w.vertices[0])).U.bit_count()
            for w in enumerate_induced(g, "H2")
        )


# -- property reports ---------------------------------------------------------------


def test_c5_properties_hold_on_small_members():
    w5 = PATTERNS["W5"].model
    report = check_c5_properties(w5, c5_partition(w5, tuple(range(5))))
    assert report.ok, report.failures()
    h2 = PATTERNS["H2"].model
    report = check_c5_properties(h2, c5_partition(h2, tuple(range(5))))
    assert report.ok, report.failures()


def test_c5_properties_flag_manufactured_violation():
    # two hub vertices joined by an edge: the hub strip is no longer independent
    w5 = PATTERNS["W5"].model
    g = w5.add_vertex(0b111111)
    part = c5_partition(g, tuple(range(5)))
    report = check_c5_properties(g, part)
    failed = {c.prop for c in report.failures()}
    assert "u_y_f_independent" in failed


def _c5_strip_graph(strips, edges_between=()):
    # cycle plus raw strip vertices, no required wiring: for negative tests
    ring = {
        "R": lambda i: {(i - 1) % 5, (i + 1) % 5},
        "Y": lambda i: {(i - 2) % 5, i % 5, (i + 2) % 5},
        "F": lambda i: set(range(5)) - {i},
    }
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for off, (kind, idx) in enumerate(strips):
        edges.extend((5 + off, r) for r in ring[kind](idx))
    edges.extend(edges_between)
    return Graph.from_edges(5 + len(strips), edges)


def test_c5_property_checks_catch_missing_required_edges():
    # adjacent R strips must be complete: omit the edge and the check flags it
    g = _c5_strip_graph([("R", 0), ("R", 1)])
    report = check_c5_properties(g, c5_partition(g, tuple(range(5))))
    assert "r_next_complete" in {c.prop for c in report.failures()}
    # apex strips must reach the two far Y strips
    g = _c5_strip_graph([("F", 0), ("Y", 2)])
    report = check_c5_properties(g, c5_partition(g, tuple(range(5))))
    assert "f_y_adjacency" in {c.prop for c in report.failures()}


def test_h1_property_checks_catch_violations():
    # a D strip vertex must reach its opposite F strip
    g = h1_with_plants([("D", 0), ("F", 3)])
    bad = Graph.from_edges(
        g.n, [e for e in g.edges() if e != (7, 8)]
    )
    report = check_h1_properties(bad, h1_partition(bad, tuple(range(7))))
    assert "d_f_adjacency" in {c.prop for c in report.failures()}
    # three consecutive outer strips may not all be populated
    g = h1_with_plants([("F", 5), ("F", 0), ("F", 1)])
    report = check_h1_properties(g, h1_partition(g, tuple(range(7))))
    assert "claim_f_run_empty" in {c.prop for c in report.failures()}


def test_h1_properties_hold_on_planted_strips():
    g = h1_with_plants([("T", 0), ("F", 2), ("D", 4)])
    assert certify_class(g, ("2P2", "K4")) is None
    best = select_best_h1(g)
    _, part = best
    report = check_h1_properties(g, part)
    assert report.ok, report.failures()


def test_h2_properties_hold_on_the_model():
    h2 = PATTERNS["H2"].model
    witness, part = select_best_h2(h2)
    report = check_h2_properties(h2, part, witness.vertices[5])
    failed = {c.prop for c in report.failures()}
    # the bare model keeps its comparable pair, so only the far-strip
    # emptiness claim may fail here
    assert failed <= {"y5_nonempty"}


def test_generated_members_pass_structural_checks():
    done_c5 = done_h1 = 0
    for seed in range(60):
        cfg = GeneratorConfig(n=10 + seed % 8, seed=seed, p=0.45, method="incremental:C5")
        g = generate(cfg)
        w = find_induced(g, "C5")
        if w is not None:
            report = check_c5_properties(g, c5_partition(g, w))
            assert report.ok, (seed, report.failures())
            done_c5 += 1
    for seed in range(40):
        cfg = GeneratorConfig(n=11 + seed % 6, seed=1000 + seed, p=0.3, method="incremental:H1")
        g = generate(cfg)
        core, _ = reduce_to_core(g)
        if find_induced(core, "H1") is None:
            continue
        _, part = select_best_h1(core)
        report = check_h1_properties(core, part)
        assert report.ok, (seed, report.failures())
        assert not part.Z
        done_h1 += 1
    assert done_c5 >= 30 and done_h1 >= 20
