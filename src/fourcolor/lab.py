"""Ground-truth oracles, instance generators, and the Wagon-bound check.

The chromatic-number oracle here shares no code with the constructive
pipeline, so agreement between the two is meaningful evidence. All
generators are pure functions of their configuration.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Iterator

from .coloring import Coloring
from .errors import GenerationError, NotInClass, SizeGuardExceeded
from .graph import Graph, bits, complement, cycle, empty, emit_graph6, parse_graph6
from .patterns import PATTERNS, certify_class, find_induced
from .structure import (
    C5_STRIPS,
    H1_D_F,
    H1_STRIPS,
    H1_W_COMPLETE,
    c5_partition,
    h1_partition,
    mask_of,
)

CHI_GUARD = 24
OMEGA_GUARD = 40
WAGON_GUARD = 14


# -- exact oracles ------------------------------------------------------------


def _max_clique(g: Graph) -> list[int]:
    best: list[int] = []
    rows = g.rows
    stack: list[int] = []

    def expand(pmask: int) -> None:
        nonlocal best
        while pmask:
            if len(stack) + pmask.bit_count() <= len(best):
                return
            v = (pmask & -pmask).bit_length() - 1
            stack.append(v)
            sub = pmask & rows[v]
            if sub:
                expand(sub)
            elif len(stack) > len(best):
                best = stack[:]
            stack.pop()
            pmask &= ~(1 << v)

    expand((1 << g.n) - 1)
    return best


def clique_number(g: Graph, limit: int = OMEGA_GUARD) -> int:
    """Exact clique number via branch and bound; guarded at `limit` vertices."""
    if g.n > limit:
        raise SizeGuardExceeded(f"clique_number guarded at n<={limit}, got n={g.n}")
    return len(_max_clique(g))


def _greedy_coloring(g: Graph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [0] * g.n
    for v in order:
        used = 0
        for u in bits(g.rows[v]):
            if colors[u]:
                used |= 1 << (colors[u] - 1)
        c = 1
        while (used >> (c - 1)) & 1:
            c += 1
        colors[v] = c
    return colors


def _try_k_coloring(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """Backtracking k-coloring with saturation ordering; clique precolored."""
    if len(clique) > k:
        return None
    n, rows = g.n, g.rows
    colors = [0] * n
    nearby = [0] * n  # colors (as bits) used by each vertex's neighbors
    for i, v in enumerate(clique):
        colors[v] = i + 1
        for u in bits(rows[v]):
            nearby[u] |= 1 << i
    fullk = (1 << k) - 1

    def pick() -> int:
        best, sat = -1, -1
        for v in range(n):
            if colors[v]:
                continue
            s = nearby[v].bit_count()
            if s > sat:
                best, sat = v, s
        return best

    if len(clique) == n:
        return colors
    # Depth-first search with an explicit stack, one frame per colored vertex:
    # [vertex, colors not yet tried, color in use (-1 for none), neighbors it
    # newly forbade that color to].
    first = pick()
    stack = [[first, fullk & ~nearby[first], -1, ()]]
    while stack:
        frame = stack[-1]
        v, untried, cbit, touched = frame
        if cbit >= 0:
            colors[v] = 0
            for u in touched:
                nearby[u] &= ~(1 << cbit)
        if not untried:
            stack.pop()
            continue
        cbit = (untried & -untried).bit_length() - 1
        touched = [u for u in bits(rows[v]) if not colors[u] and not (nearby[u] >> cbit) & 1]
        colors[v] = cbit + 1
        for u in touched:
            nearby[u] |= 1 << cbit
        frame[1:] = untried & (untried - 1), cbit, touched
        if len(stack) + len(clique) == n:
            return colors
        nxt = pick()
        stack.append([nxt, fullk & ~nearby[nxt], -1, ()])
    return None


def exact_chromatic(g: Graph, limit: int = CHI_GUARD) -> tuple[int, Coloring]:
    """Exact chromatic number and an optimal coloring; guarded at `limit`."""
    if g.n > limit:
        raise SizeGuardExceeded(f"exact_chromatic guarded at n<={limit}, got n={g.n}")
    if g.n == 0:
        return 0, Coloring((), 0)
    clique = _max_clique(g)
    greedy = _greedy_coloring(g)
    ub = max(greedy)
    lb = len(clique)
    for k in range(lb, ub):
        found = _try_k_coloring(g, k, clique)
        if found is not None:
            return k, Coloring(tuple(found), k)
    return ub, Coloring(tuple(greedy), ub)


@dataclass(frozen=True)
class WagonResult:
    ok: bool
    chi: int
    omega: int
    bound: int


def wagon_bound_check(g: Graph, limit: int = WAGON_GUARD) -> WagonResult:
    """Check chi <= (omega+1 choose 2) on a graph without induced 2P2."""
    if g.n > limit:
        raise SizeGuardExceeded(f"wagon_bound_check guarded at n<={limit}, got n={g.n}")
    witness = certify_class(g, ("2P2",))
    if witness is not None:
        raise NotInClass(witness)
    chi, _ = exact_chromatic(g, limit=limit)
    omega = clique_number(g, limit=max(limit, OMEGA_GUARD))
    bound = (omega + 1) * omega // 2
    return WagonResult(chi <= bound, chi, omega, bound)


# -- named constructions ---------------------------------------------------------


def c5_blowup(sizes: tuple[int, int, int, int, int]) -> Graph:
    """Replace each five-cycle vertex by an independent set of the given size."""
    offsets = []
    total = 0
    for s in sizes:
        if s < 0:
            raise ValueError("blow-up sizes must be non-negative")
        offsets.append(total)
        total += s
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        for a in range(sizes[i]):
            for b in range(sizes[j]):
                edges.append((offsets[i] + a, offsets[j] + b))
    return Graph.from_edges(total, edges)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def h2_core() -> Graph:
    """Apex anchor plus one far-strip vertex: the smallest reduced carrier.

    The extra vertex stops the apex from dominating the fifth cycle vertex,
    so comparable-vertex elimination leaves the anchor intact.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, 0), (5, 1), (5, 2), (5, 3)]
    edges += [(6, 1), (6, 2), (6, 4)]
    return Graph.from_edges(7, edges)


_BLOWUP_RE = re.compile(r"^C5-blowup\((\d+(?:,\d+){4})\)$", re.IGNORECASE)


def construction(name: str) -> Graph:
    """Build a named fixed graph ("W5", "C7-complement", "C5-blowup(a,b,c,d,e)", ...)."""
    key = name.strip()
    fixed = {
        "W5": lambda: PATTERNS["W5"].model,
        "H1": lambda: PATTERNS["H1"].model,
        "H2": lambda: PATTERNS["H2"].model,
        "H2-core": h2_core,
        "C5": lambda: cycle(5),
        "K4": lambda: PATTERNS["K4"].model,
        "C7-complement": lambda: complement(cycle(7)),
        "petersen": petersen,
    }
    lookup = {k.lower(): v for k, v in fixed.items()}
    if key.lower() in lookup:
        return lookup[key.lower()]()
    m = _BLOWUP_RE.match(key)
    if m:
        sizes = tuple(int(t) for t in m.group(1).split(","))
        return c5_blowup(sizes)
    raise ValueError(f"unknown construction {name!r}")


# -- random generation ------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic recipe for one instance; equal configs give equal graphs."""

    n: int
    seed: int
    p: float = 0.5
    cls: str = "2p2k4-free"
    method: str = "auto"  # rejection | incremental[:start] | construction name

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("edge probability must lie in [0, 1]")
        if self.n < 0:
            raise ValueError("n must be non-negative")


_CLASS_FORBIDDEN = {
    "2p2k4free": ("2P2", "K4"),
    "4p1c4free": ("4P1", "C4"),
    "2p2free": ("2P2",),
    "unconstrained": (),
}


def normalize_class(name: str) -> str:
    key = re.sub(r"[^0-9a-z]", "", name.lower())
    if key not in _CLASS_FORBIDDEN:
        raise ValueError(f"unknown class {name!r}; choose from {sorted(_CLASS_FORBIDDEN)}")
    return key


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


_REJECTION_BUDGET = 5000


def _rejection(rng: random.Random, n: int, p: float, forbidden) -> Graph:
    # Acceptance collapses fast with n (about 2% at n=10 and p=0.2, near zero
    # by n=12), so the effective density backs off hard above ten vertices.
    p_eff = p if n <= 10 else min(p, 1.6 / n)
    for attempt in range(_REJECTION_BUDGET):
        g = _gnp(rng, n, p_eff)
        if certify_class(g, forbidden) is None:
            return g
    raise GenerationError(
        f"rejection sampling exhausted {_REJECTION_BUDGET} tries (n={n}, p={p_eff:.3f})",
        attempts=_REJECTION_BUDGET,
    )


_INCREMENTAL_TRIES = 40


def _incremental(rng: random.Random, n: int, p: float, forbidden, start: str | None) -> Graph:
    g = construction(start) if start else empty(min(n, 1))
    if g.n > n:
        raise GenerationError(f"start construction has {g.n} vertices, target n={n}")
    while g.n < n:
        placed = False
        for _ in range(_INCREMENTAL_TRIES):
            mask = 0
            for u in range(g.n):
                if rng.random() < p:
                    mask |= 1 << u
            cand = g.add_vertex(mask)
            if all(find_induced(cand, pat, containing=g.n) is None for pat in forbidden):
                g = cand
                placed = True
                break
        if not placed:
            # Duplicating a vertex as a nonadjacent twin never creates a new
            # induced 2P2 or K4, so progress is always possible.
            g = g.add_vertex(g.rows[rng.randrange(g.n)])
    return g


# Strip-template growth around an anchor. Each planted vertex copies one of
# the strip neighborhoods of structure's strip tables; adjacency to already-
# classified vertices is forced where the class requires completeness or anti-
# completeness and coin-flipped where it is genuinely free. Additions creating a forbidden pattern
# or a comparable pair are rejected, so cores stay rich under reduction.

def _c5_relation(k1: str, i1: int, k2: str, i2: int) -> str:
    """'c' complete, 'a' anti-complete, 'f' free, for five-cycle strips."""
    if (k1, i1) == (k2, i2):
        return "a"
    if k1 > k2 or (k1 == k2 and i1 > i2):
        k1, i1, k2, i2 = k2, i2, k1, i1
    pair = (k1, k2)
    dist = min((i1 - i2) % 5, (i2 - i1) % 5)
    if pair == ("R", "R") or pair == ("Y", "Y"):
        return "c" if dist == 1 else "f"
    if pair == ("R", "Y"):
        return "c" if i1 == i2 else "f"
    if pair == ("F", "Y"):
        return "c" if dist == 2 else "a"
    if pair == ("F", "R"):
        return "c" if dist == 1 else "f"
    if pair == ("F", "F"):
        return "f"
    if "U" in pair:
        other = k1 if k2 == "U" else k2
        return {"R": "f", "Y": "a", "F": "a", "U": "a", "Z": "f"}[other]
    if "Z" in pair:
        other = k1 if k2 == "Z" else k2
        return {"R": "a", "Y": "f", "F": "f", "Z": "a"}[other]
    return "f"


def _h1_relation(k1: str, i1: int, k2: str, i2: int) -> str:
    if (k1, i1) == (k2, i2):
        return "a"
    if k1 > k2 or (k1 == k2 and i1 > i2):
        k1, i1, k2, i2 = k2, i2, k1, i1
    pair = (k1, k2)
    dist = min((i1 - i2) % 6, (i2 - i1) % 6)
    if pair in (("D", "D"), ("F", "F")):
        return "c" if dist == 2 else "a"
    if pair == ("T", "T"):
        if dist == 3:
            return "c"
        if frozenset((i1, i2)) in (
            frozenset((2, 0)), frozenset((2, 4)), frozenset((5, 1)), frozenset((5, 3)),
        ):
            return "c"
        if frozenset((i1, i2)) in (frozenset((0, 1)), frozenset((3, 4))):
            return "a"
        return "f"
    if pair == ("D", "T"):
        return "c" if (i2 - i1) % 6 in (3, 4) else "a"
    if pair == ("F", "T"):
        if (i2 - i1) % 6 in (3, 4) or (i1, i2) in ((1, 0), (4, 3), (2, 4), (5, 1)):
            return "c"
        if (i2 - i1) % 6 in (0, 1):
            return "a"
        return "f"
    if pair == ("D", "F"):
        anti, comp = H1_D_F[i1]
        return "a" if i2 in anti else "c" if i2 in comp else "f"
    if "W" in pair:
        other, idx = ((k1, i1) if k2 == "W" else (k2, i2))
        if other == "W":
            return "a"
        return "c" if idx in H1_W_COMPLETE[other] else "a"
    return "f"


def _menu(strips, kinds: str) -> list[tuple[str, int]]:
    return [(kind, i) for kind in kinds for i in range(len(strips[kind]))]


_PLANT_MENUS = {
    "C5": _menu(C5_STRIPS, "RYZ"),
    "H2": _menu(C5_STRIPS, "RYZ"),
    "W5": _menu(C5_STRIPS, "RYZU"),
    "H1": _menu(H1_STRIPS, "DTFW"),
}


def _planted(rng: random.Random, n: int, p: float, forbidden, anchor_name: str) -> Graph:
    key = anchor_name.upper()
    if key not in _PLANT_MENUS:
        raise GenerationError(f"no plant menu for anchor {anchor_name!r}")
    g = construction(key)
    strips = H1_STRIPS if key == "H1" else C5_STRIPS
    relation = _h1_relation if key == "H1" else _c5_relation
    gate = tuple(forbidden) + (("H1",) if key in ("H2", "W5") and "H1" not in forbidden else ())

    def classify(graph: Graph) -> dict[int, tuple[str, int]]:
        if key == "H1":
            part = h1_partition(graph, tuple(range(7)))
            strips = [("D", part.D), ("T", part.T), ("F", part.F), ("W", (part.W,)), ("Z", (part.Z,))]
        else:
            part = c5_partition(graph, tuple(range(5)))
            strips = [("R", part.R), ("Y", part.Y), ("F", part.F), ("U", (part.U,)), ("Z", (part.Z,))]
        # The coin flips below follow where's order, which is each strip's
        # iteration order as a frozenset built through a set; keeping that
        # order keeps every planted graph as it was.
        where = {}
        for kind, groups in strips:
            for idx, mask in enumerate(groups):
                for v in frozenset(set(bits(mask))):
                    where[v] = (kind, idx)
        return where

    where = classify(g)
    menu = _PLANT_MENUS[key]
    while g.n < n:
        placed = False
        for _ in range(_INCREMENTAL_TRIES):
            kind, idx = menu[rng.randrange(len(menu))]
            mask = mask_of(strips[kind][idx])
            for v, (k2, i2) in where.items():
                rel = relation(kind, idx, k2, i2)
                if rel == "c" or (rel == "f" and rng.random() < p):
                    mask |= 1 << v
            cand = g.add_vertex(mask)
            if any(find_induced(cand, pat, containing=g.n) is not None for pat in gate):
                continue
            g = cand
            where = classify(g)
            placed = True
            break
        if not placed:
            # pad with a twin; it disappears again under reduction
            g = g.add_vertex(g.rows[rng.randrange(g.n)])
            where = classify(g)
    return g


def generate(config: GeneratorConfig) -> Graph:
    """Produce a graph certified to lie in the requested class."""
    cls = normalize_class(config.cls)
    forbidden = _CLASS_FORBIDDEN[cls]
    if cls == "4p1c4free":
        inner = replace(config, cls="2p2k4-free")
        g = complement(generate(inner))
    else:
        rng = random.Random(config.seed)
        method = config.method
        # Measured acceptance makes rejection unusable past ten vertices.
        if method == "auto":
            method = "rejection" if config.n <= 9 else "incremental"
        if method == "rejection":
            g = _rejection(rng, config.n, config.p, forbidden)
        elif method == "incremental" or method.startswith("incremental:"):
            start = method.partition(":")[2] or None
            g = _incremental(rng, config.n, config.p, forbidden, start)
        elif method.startswith("planted:"):
            g = _planted(rng, config.n, config.p, forbidden, method.partition(":")[2])
        else:
            g = construction(method)
    witness = certify_class(g, forbidden)
    if witness is not None:
        raise GenerationError(
            f"generated graph violates class {config.cls}: induced {witness.pattern}"
        )
    return g


# -- exhaustive labeled enumeration ------------------------------------------------


def _labeled_variants(pattern_name: str) -> set[frozenset[tuple[int, int]]]:
    model = PATTERNS[pattern_name].model
    base = list(model.edges())
    variants = set()
    for perm in permutations(range(model.n)):
        variants.add(
            frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in base)
        )
    return variants


def enumerate_class_members(n: int, forbidden=("2P2", "K4")) -> Iterator[Graph]:
    """All labeled graphs on n vertices avoiding the forbidden patterns.

    Vectorized subset filtering; guarded at n <= 8 (2^28 edge sets, chunked).
    """
    if n > 8:
        raise SizeGuardExceeded(f"exhaustive enumeration guarded at n<=8, got n={n}")
    import numpy as np

    pairs = list(combinations(range(n), 2))
    pos = {pair: i for i, pair in enumerate(pairs)}
    tests: list[tuple[int, int]] = []
    for pname in forbidden:
        model = PATTERNS[pname].model
        k = model.n
        if k > n:
            continue
        variants = sorted(_labeled_variants(pname), key=sorted)
        for sub in combinations(range(n), k):
            submask = 0
            for i in range(k):
                for j in range(i + 1, k):
                    submask |= 1 << pos[(sub[i], sub[j])]
            for variant in variants:
                patmask = 0
                for i, j in variant:
                    a, b = sorted((sub[i], sub[j]))
                    patmask |= 1 << pos[(a, b)]
                tests.append((submask, patmask))
    total = 1 << len(pairs)
    chunk = 1 << 22
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        arr = np.arange(lo, hi, dtype=np.int64)
        ok = np.ones(hi - lo, dtype=bool)
        for submask, patmask in tests:
            ok &= (arr & submask) != patmask
        for m in arr[ok]:
            mask = int(m)
            edges = [pairs[i] for i in bits(mask)]
            yield Graph.from_edges(n, edges)


# -- structured random families -----------------------------------------------------


def generate_chordal(n: int, p: float, seed: int) -> Graph:
    """Random chordal graph: each new vertex attaches to a random clique."""
    rng = random.Random(seed)
    g = empty(min(n, 1))
    while g.n < n:
        w = rng.randrange(g.n)
        members = [w]
        candidates = g.rows[w]
        while candidates and rng.random() < p:
            choices = list(bits(candidates))
            c = choices[rng.randrange(len(choices))]
            members.append(c)
            candidates &= g.rows[c]
        mask = 0
        for v in members:
            mask |= 1 << v
        g = g.add_vertex(mask)
    return g


def generate_interval(n: int, seed: int) -> Graph:
    """Random interval graph on n intervals with seeded endpoints."""
    rng = random.Random(seed)
    spans = []
    for _ in range(n):
        a, b = rng.random(), rng.random()
        spans.append((min(a, b), max(a, b)))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return Graph.from_edges(n, edges)


# -- batch manifests ------------------------------------------------------------------


def manifest_line(config: GeneratorConfig, g: Graph) -> str:
    return f"{config.seed},{config.n},{normalize_class(config.cls)},{emit_graph6(g)}"


def parse_manifest(text: str) -> list[tuple[int, int, str, Graph]]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        seed, n, cls, g6 = line.split(",", 3)
        records.append((int(seed), int(n), cls, parse_graph6(g6)))
    return records
