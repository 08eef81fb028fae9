"""Seeded corpora for blowup, cores and approx, built without fourcolor code.

Class membership is never taken on trust:

* every base graph and every random member passes a brute-force 2P2/K4 test
  over vertex 4-sets (random members are grown one vertex at a time and each
  new vertex is tested against all 3-sets of the old ones);
* a blow-up replaces each base vertex by an independent set. Such nonadjacent
  twins never create an induced 2P2 or K4 (see README.md), so blow-ups of
  members are members;
* the complement of a member is (4P1, C4)-free by definition.

Corpora are cached under bench/.cache per workload, seed and hash of this
file and graphs.py. Regenerate every workload's corpus for some seeds with

    python3 bench/gen.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random

import networkx as nx
from networkx.algorithms import isomorphism

import graphs as G

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".cache")

BASES = {
    "C5": G.cycle(5),
    "W5": G.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]),
    "C7-complement": G.complement(G.cycle(7)),
}
TIGHT = ("W5", "C7-complement")  # the paper's tight examples: chi = 4

# (base, n) per corpus slot; the seed picks the random bases, the blow-up
# sizes and the vertex labels, never the slot list, so every seed does the
# same amount of work of the same kinds. The random bases, whose cost varies
# most from seed to seed, take the smallest and the largest n, so the median
# input is a blow-up of a fixed base whatever the seed.
BLOWUP_SLOTS = [("random", 30), ("C5", 35), ("W5", 35), ("C7-complement", 40),
                ("C5", 45), ("W5", 50), ("C7-complement", 50), ("random", 55)]
APPROX_SLOTS = [("random", 20), ("W5", 30), ("C7-complement", 35), ("C5", 40),
                ("C5", 45), ("W5", 50), ("C7-complement", 55), ("random", 60)]
# Each slot is filled this many times. The cost of a call depends on the
# vertex labels as well as the graph (the same blow-up, relabelled, varies by
# a third), so the median and the sum rest on more than one labelling.
SLOT_COPIES = 3
RANDOM_BASE_N = 8         # vertices of a random base before blow-up
APPROX_SMALL = 4          # plus this many complements of small random members
# Anchor models the cores workload grows its members around (role order as
# in the paper: H1 is the complement of C6 plus a hub on ring roles 0, 1, 3, 4;
# H2 is C5 plus an apex on roles 1..4).
CORE_STARTS = {
    "C5": G.cycle(5),
    "W5": BASES["W5"],
    "C7-complement": BASES["C7-complement"],
    "H1": G.from_edges(7, [(i, j) for i in range(6) for j in range(i + 2, 6) if j - i != 5]
                       + [(6, 0), (6, 1), (6, 3), (6, 4)]),
    "H2": G.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, 1), (5, 2), (5, 3), (5, 4)]),
}
# Cores per (vertex count, anchor kind): 60 in all, split over the anchors
# by the shares of the paper's method on this kind of input (w5 33, h2 12,
# h1 7, fallback 7, c5 1; 55/20/12/12/2%) and within an anchor by how often
# the growth below yields each size (see README.md for the measured
# frequencies). Call time depends on both, in a few distinct classes; fixed
# counts keep the median and p75 of the per-input times inside one class
# whatever the seed.
CORE_QUOTA = {(5, "c5"): 1, (6, "w5"): 32, (8, "w5"): 1, (7, "h1"): 6, (9, "h1"): 1,
              (8, "h2"): 11, (9, "h2"): 1, (7, "fallback"): 7}
ANCHORS = [(kind, nx.Graph(G.edges(CORE_STARTS[name]))) for kind, name in
           (("h1", "H1"), ("h2", "H2"), ("w5", "W5"), ("c5", "C5"))]


def grow_member(rng: random.Random, n: int, start: list[int] = ()) -> list[int]:
    """Random (2P2, K4)-free graph grown from `start` one brute-force-checked
    vertex at a time."""
    rows = list(start)
    while len(rows) < n:
        p = rng.uniform(0.3, 0.7)
        mask = sum(1 << v for v in range(len(rows)) if rng.random() < p)
        trial = [r | (mask >> v & 1) << len(rows) for v, r in enumerate(rows)] + [mask]
        if G.forbidden_quad(trial, G.MEMBER, new=len(rows)) is None:
            rows = trial
    return rows


def random_base(rng: random.Random) -> list[int]:
    while True:
        rows = grow_member(rng, RANDOM_BASE_N)
        if G.connected(rows):
            return rows


def split_sizes(rng: random.Random, n: int, parts: int) -> list[int]:
    """n split into `parts` positive sizes within about 25% of each other."""
    weights = [rng.uniform(0.75, 1.25) for _ in range(parts)]
    sizes = [max(1, int(n * w / sum(weights))) for w in weights]
    for i in range(n - sum(sizes)):
        sizes[i % parts] += 1
    return sizes


def blowup(base: list[int], sizes: list[int]) -> list[int]:
    """Each base vertex v becomes an independent set of sizes[v] vertices."""
    group = [v for v, s in enumerate(sizes) for _ in range(s)]
    n = len(group)
    return G.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if base[group[a]] >> group[b] & 1])


def shuffled(rng: random.Random, rows: list[int]) -> list[int]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return G.relabel(rows, perm)


def checked_base(rng: random.Random, name: str) -> list[int]:
    base = random_base(rng) if name == "random" else BASES[name]
    if G.forbidden_quad(base, G.MEMBER) is not None:
        raise AssertionError(f"base {name} is not (2P2, K4)-free")
    if name in TIGHT and G.chromatic_number(base) != 4:
        raise AssertionError(f"base {name} is not 4-chromatic")
    return base


def facts(rows: list[int]) -> dict:
    """What a four_color result is checked against: chi of the graph, which
    is at least its clique number."""
    return {"chi": G.chromatic_number(rows)}


def blowup_corpus(rng: random.Random) -> list[dict]:
    out = []
    for name, n in BLOWUP_SLOTS * SLOT_COPIES:
        base = checked_base(rng, name)
        sizes = split_sizes(rng, n, len(base))
        out.append({
            "label": f"{name}-blowup{tuple(sizes)}",
            "g6": G.to_graph6(shuffled(rng, blowup(base, sizes))),
            # The base is an induced subgraph of its blow-up, and a colouring
            # of the base extends to the blow-up, so chi is the base's.
            **facts(base),
        })
    return out


def approx_corpus(rng: random.Random) -> list[dict]:
    """Complements of blow-ups and of small random members, with their chi.

    The complement of a blow-up is the complement of its base with every
    vertex replaced by a clique. For the C5, C7 and W5 bases (complements
    C5, C7 and C5 plus an isolated vertex) chi is the subset bound of
    graphs.coloured_chi_lower_bound. A random base is kept only when a greedy
    colouring meets that bound, which proves chi; small members get exact chi.
    """
    out = []
    for name, n in APPROX_SLOTS * SLOT_COPIES:
        while True:
            base = checked_base(rng, name)
            sizes = split_sizes(rng, n, len(base))
            co = G.complement(blowup(base, sizes))
            chi = G.coloured_chi_lower_bound(G.complement(base), sizes)
            if name != "random" or G.dsatur_count(co) == chi:
                break
        out.append({"label": f"complement of {name}-blowup{tuple(sizes)}",
                    "g6": G.to_graph6(shuffled(rng, co)), "chi": chi})
    for _ in range(APPROX_SMALL):
        co = G.complement(grow_member(rng, rng.randint(12, 14)))
        out.append({"label": f"complement of a random member, n={len(co)}",
                    "g6": G.to_graph6(co), "chi": G.chromatic_number(co)})
    return out


def core_of(rows: list[int]) -> list[int]:
    """Vertices left after deleting u while some nonadjacent v has N(u) within N(v)."""
    alive = set(range(len(rows)))
    changed = True
    while changed:
        changed = False
        for u in sorted(alive):
            nu = rows[u] & sum(1 << w for w in alive)
            if any(v != u and not rows[u] >> v & 1 and nu & ~rows[v] == 0 for v in alive):
                alive.discard(u)
                changed = True
                break
    return sorted(alive)


def has_comparable_pair(rows: list[int]) -> bool:
    return any(
        u != v and not rows[u] >> v & 1 and rows[u] & ~rows[v] == 0
        for u in range(len(rows)) for v in range(len(rows))
    )


def anchor_kind(rows: list[int]) -> str:
    """The first of H1, H2, W5 and C5 the graph contains as an induced
    subgraph (networkx's matcher), the order in which the paper's method
    looks for anchors; "fallback" if none."""
    g = nx.Graph(G.edges(rows))
    g.add_nodes_from(range(len(rows)))
    for kind, model in ANCHORS:
        if isomorphism.GraphMatcher(g, model).subgraph_is_isomorphic():
            return kind
    return "fallback"


def core_candidates(rng: random.Random):
    """C5 itself, then the connected cores of members grown around the anchor
    models in turn. The growth yields C5 as its only c5 core, but from about
    one draw in 700, so it is offered first."""
    yield "C5", G.cycle(5)
    starts = list(CORE_STARTS.items())
    for draw in itertools.count():
        name, start = starts[draw % len(starts)]
        rows = grow_member(rng, rng.randint(8, 12), start)
        core = G.induced(rows, core_of(rows))
        if G.connected(core):
            yield name, core


def cores_corpus(rng: random.Random) -> list[dict]:
    """Connected comparable-pair-free members, CORE_QUOTA of each size and anchor."""
    want = dict(CORE_QUOTA)
    out = []
    for name, core in core_candidates(rng):
        if not any(n == len(core) and left for (n, _), left in want.items()):
            continue
        key = (len(core), anchor_kind(core))
        if not want.get(key):
            continue
        if has_comparable_pair(core) or G.forbidden_quad(core, G.MEMBER) is not None:
            raise AssertionError("core is not a comparable-pair-free member")
        want[key] -= 1
        out.append({"label": f"core of a {name}-grown member, n={len(core)}, {key[1]} anchor",
                    "g6": G.to_graph6(shuffled(rng, core)), **facts(core)})
        if not any(want.values()):
            return out


BUILDERS = {"blowup": blowup_corpus, "approx": approx_corpus, "cores": cores_corpus}


def source_digest() -> str:
    """Hash of the generator's source: a changed generator gets new cache files."""
    h = hashlib.sha256()
    for name in ("gen.py", "graphs.py"):
        with open(os.path.join(HERE, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def cache_path(workload: str, seed: int) -> str:
    return os.path.join(CACHE_DIR, f"{workload}-seed{seed}-{source_digest()}.json")


def corpus(workload: str, seed: int, force: bool = False) -> list[dict]:
    """The cached corpus for (workload, seed), built first if absent or forced."""
    path = cache_path(workload, seed)
    if not force and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    records = BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(records, f)
    os.replace(tmp, path)
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    for seed in args.seeds:
        for w in sorted(BUILDERS):
            print(f"{w} seed {seed}: {len(corpus(w, seed, force=True))} inputs")


if __name__ == "__main__":
    main()
