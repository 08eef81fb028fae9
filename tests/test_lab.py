import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import fourcolor
from conftest import (
    first_comparable,
    naive_chromatic,
    naive_find_induced,
    naive_is_k_colorable,
    random_graph,
)
from fourcolor import (
    GenerationError,
    Graph,
    GraphFormatError,
    NotInClass,
    SizeGuardExceeded,
    bits,
    certify_class,
    complement,
    complete,
    connected_components,
    cycle,
    empty,
    induced_subgraph,
    parse_graph6,
    reduce_to_core,
    verify_coloring,
)
from fourcolor.lab import (
    GeneratorConfig,
    c5_blowup,
    clique_number,
    construction,
    enumerate_class_members,
    exact_chromatic,
    generate,
    manifest_line,
    parse_manifest,
    petersen,
    wagon_bound_check,
)
from fourcolor.suite import SEED_CORES


def test_exact_chromatic_known_values():
    assert exact_chromatic(cycle(5))[0] == 3
    assert exact_chromatic(complement(cycle(7)))[0] == 4
    assert exact_chromatic(complete(4))[0] == 4
    assert exact_chromatic(empty(3))[0] == 1
    assert exact_chromatic(empty(0))[0] == 0


def test_exact_chromatic_petersen_cross_checked():
    g = petersen()
    chi, col = exact_chromatic(g)
    assert chi == 3
    assert verify_coloring(g, col) is None and col.k == 3
    # second, independent search: brute-force k-colorability
    assert not naive_is_k_colorable(g, 2)
    assert naive_is_k_colorable(g, 3)


def test_exact_chromatic_returns_optimal_coloring():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        chi, col = exact_chromatic(g)
        assert verify_coloring(g, col) is None
        assert col.k == chi == naive_chromatic(g)


def test_clique_number_examples():
    assert clique_number(complete(4)) == 4
    assert clique_number(cycle(5)) == 2
    assert clique_number(construction("W5")) == 3
    assert clique_number(empty(5)) == 1
    assert clique_number(empty(0)) == 0


def test_clique_search_is_not_bounded_by_recursion_depth():
    assert clique_number(complete(1100), limit=1100) == 1100


def test_chromatic_at_least_clique():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        assert exact_chromatic(g)[0] >= clique_number(g)


def test_size_guards():
    with pytest.raises(SizeGuardExceeded):
        exact_chromatic(empty(25))
    with pytest.raises(SizeGuardExceeded):
        clique_number(empty(41))
    with pytest.raises(SizeGuardExceeded):
        wagon_bound_check(empty(15))
    assert exact_chromatic(empty(25), limit=30)[0] == 1


def test_wagon_bound_examples():
    res = wagon_bound_check(cycle(5))
    assert res.ok and (res.chi, res.omega, res.bound) == (3, 2, 3)  # tight
    res = wagon_bound_check(construction("W5"))
    assert res.ok and (res.chi, res.omega, res.bound) == (4, 3, 6)
    res = wagon_bound_check(complement(cycle(7)))
    assert res.ok and (res.chi, res.omega, res.bound) == (4, 3, 6)
    with pytest.raises(NotInClass):
        wagon_bound_check(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_constructions_are_certified_members():
    for name in ("W5", "C7-complement", "C5", "H1", "H2"):
        g = construction(name)
        assert certify_class(g, ("2P2", "K4")) is None
    blow = c5_blowup((2, 2, 2, 2, 2))
    assert blow.n == 10
    assert certify_class(blow, ("2P2", "K4")) is None
    with pytest.raises(ValueError):
        construction("mystery")


def test_generate_is_deterministic_and_certified():
    for cls in ("2p2k4-free", "2p2-free", "4p1c4-free", "unconstrained"):
        cfg = GeneratorConfig(n=9, seed=42, p=0.4, cls=cls)
        a, b = generate(cfg), generate(cfg)
        assert a == b
    cfg = GeneratorConfig(n=18, seed=7, p=0.45, cls="2p2k4-free", method="incremental")
    g = generate(cfg)
    assert g.n == 18
    assert certify_class(g, ("2P2", "K4")) is None


def test_generate_complement_route():
    cfg = GeneratorConfig(n=10, seed=3, cls="(4P1,C4)-free")
    g = generate(cfg)
    assert certify_class(g, ("4P1", "C4")) is None
    assert certify_class(complement(g), ("2P2", "K4")) is None


def test_generate_rejects_unknown_class():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(n=5, seed=0, cls="planar"))


def test_enumerate_class_members_matches_naive_filter():
    # The naive filter taken in edge-mask order, bit i for the i-th pair.
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        expected = []
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in bits(mask)])
            if naive_find_induced(g, "2P2") is None and naive_find_induced(g, "K4") is None:
                expected.append(g.rows)
        assert [g.rows for g in enumerate_class_members(n)] == expected


def test_enumerate_class_members_rejects_a_negative_order():
    with pytest.raises(ValueError):
        list(enumerate_class_members(-1))


def test_enumeration_and_generation_do_not_import_numpy():
    script = (
        "import sys\n"
        "from fourcolor.lab import GeneratorConfig, enumerate_class_members, generate\n"
        "for n in range(7):\n"
        "    for g in enumerate_class_members(n):\n"
        "        pass\n"
        "generate(GeneratorConfig(n=40, seed=1, method='planted:HCrfdxz'))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    # The package has no dependency, so its own source directory is the whole path it needs.
    env = dict(os.environ, PYTHONPATH=str(Path(fourcolor.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_enumerated_members_are_4_colorable():
    count = 0
    for g in enumerate_class_members(6):
        chi, _ = exact_chromatic(g)
        assert chi <= 4
        count += 1
    assert count > 0


def test_manifest_round_trip():
    cfg = GeneratorConfig(n=8, seed=5, p=0.5)
    g = generate(cfg)
    line = manifest_line(cfg, g)
    records = parse_manifest(line + "\n\n")
    assert records == [(5, 8, "2p2k4free", g)]


def test_exact_chromatic_search_is_not_bounded_by_recursion_depth():
    # Largest-degree-first greedy needs 4 colors on this 8-vertex graph while
    # its clique number and chromatic number are 3, so the k-coloring search
    # runs, and it must color all 1108 vertices, one level per vertex.
    edges = [(0, 1), (0, 7), (1, 3), (1, 5), (1, 6), (2, 7), (3, 4), (3, 6), (4, 6), (4, 7), (5, 6), (6, 7)]
    g = Graph.from_edges(1108, edges)
    chi, col = exact_chromatic(g, limit=g.n)
    assert chi == 3 and col.k == 3
    assert verify_coloring(g, col) is None


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def test_seed_cores_are_connected_members_without_comparable_pairs():
    for token in SEED_CORES:
        g = parse_graph6(token)
        assert certify_class(g, ("2P2", "K4")) is None, token
        assert len(connected_components(g)) == 1, token
        assert first_comparable(g) is None, token


@pytest.mark.parametrize("method", ["planted", "incremental"])
def test_growth_from_a_graph6_start(method):
    for i, token in enumerate(SEED_CORES):
        start = parse_graph6(token)
        for n in (20, 40):
            cfg = GeneratorConfig(n=n, seed=i, p=0.2 + 0.05 * (i % 8), method=f"{method}:{token}")
            g = generate(cfg)
            assert g == generate(cfg) and g.n == n
            assert certify_class(g, ("2P2", "K4")) is None
            assert induced_subgraph(g, range(start.n))[0] == start
            if method == "planted":
                # every addition is dominated, so the start survives as the core
                core, _ = reduce_to_core(g)
                assert nx.is_isomorphic(_nx(core), _nx(start)), (token, n)


def test_construction_methods_must_match_the_requested_size():
    for cls in ("2p2k4-free", "4p1c4-free"):
        with pytest.raises(GenerationError, match="construction W5 has 6 vertices, target n=40"):
            generate(GeneratorConfig(n=40, seed=1, cls=cls, method="W5"))
        assert generate(GeneratorConfig(n=6, seed=1, cls=cls, method="W5")).n == 6


@pytest.mark.parametrize("method", ["planted", "incremental"])
def test_bad_growth_starts_fail_cleanly(method):
    def grow(start, n=10):
        return generate(GeneratorConfig(n=n, seed=0, method=f"{method}:{start}"))

    with pytest.raises(GenerationError, match="outside the class"):
        grow("C~")  # K4
    with pytest.raises(GenerationError, match="0 vertices"):
        grow("?")
    with pytest.raises(GenerationError, match="6 vertices, target n=5"):
        grow("W5", n=5)
    with pytest.raises(GraphFormatError):
        grow("Bww")
