"""Ground-truth oracles, instance generators, and the Wagon-bound check.

The chromatic-number oracle here shares no code with the constructive
pipeline, so agreement between the two is meaningful evidence. All
generators are pure functions of their configuration.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Iterator

from .coloring import Coloring
from .errors import GenerationError, GraphFormatError, NotInClass, SizeGuardExceeded
from .graph import Graph, bits, complement, cycle, empty, emit_graph6, parse_graph6
from .patterns import PATTERNS, _2p2_through, _k4_through, certify_class

CHI_GUARD = 24
OMEGA_GUARD = 40
WAGON_GUARD = 14


# -- exact oracles ------------------------------------------------------------


def _max_clique(g: Graph) -> list[int]:
    """Branch and bound, lowest candidate first, with an explicit stack:
    cands[d] holds the candidates still open at depth d and clique[d] the
    vertex tried there, so the depth is not bounded by recursion."""
    best: list[int] = []
    rows = g.rows
    clique: list[int] = []
    cands = [(1 << g.n) - 1]
    while True:
        pmask = cands[-1]
        if pmask and len(clique) + pmask.bit_count() > len(best):
            v = (pmask & -pmask).bit_length() - 1
            clique.append(v)
            sub = pmask & rows[v]
            if sub:
                cands.append(sub)
                continue
            if len(clique) > len(best):
                best = clique[:]
        else:
            cands.pop()
            if not cands:
                return best
        cands[-1] &= ~(1 << clique.pop())


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
    # auto | rejection | incremental[:start] | planted:start | a construction name,
    # where start is a construction name or a graph6 token
    method: str = "auto"

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
    raise GenerationError(f"rejection sampling exhausted {_REJECTION_BUDGET} tries (n={n}, p={p_eff:.3f})")


_GROWTH_TRIES = 40


def _start_graph(start: str, n: int, forbidden) -> Graph:
    """The graph that growth starts from, given as a construction name or graph6."""
    try:
        g = construction(start)
    except ValueError:
        try:
            g = parse_graph6(start)
        except GraphFormatError as exc:
            raise GraphFormatError(f"start {start!r} is neither a construction nor graph6: {exc}") from exc
    if not 0 < g.n <= n:
        raise GenerationError(f"start graph has {g.n} vertices, target n={n}")
    witness = certify_class(g, forbidden)
    if witness is not None:
        raise GenerationError(f"start graph is outside the class: induced {witness.pattern}")
    return g


def _coin_mask(rng: random.Random, vertices, p: float) -> int:
    """Keep each of the vertices, in the order given, with probability p."""
    return sum(1 << v for v in vertices if rng.random() < p)


def _grow(rng: random.Random, g: Graph, n: int, forbidden, draw) -> Graph:
    """Add vertices until g has n, each with neighborhood `draw(g)` if one of
    `_GROWTH_TRIES` draws keeps g in the class, else as a twin."""
    k4, two_p2 = "K4" in forbidden, "2P2" in forbidden
    while g.n < n:
        for _ in range(_GROWTH_TRIES):
            nb = draw(g)
            if not (k4 and _k4_through(g.rows, nb) or two_p2 and _2p2_through(g.rows, nb, (1 << g.n) - 1)):
                g = g.add_vertex(nb)
                break
        else:
            # Duplicating a vertex as a nonadjacent twin never creates a new
            # induced 2P2 or K4, so progress is always possible.
            g = g.add_vertex(g.rows[rng.randrange(g.n)])
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
            start = method.partition(":")[2]
            g = _start_graph(start, config.n, forbidden) if start else empty(min(config.n, 1))
            g = _grow(rng, g, config.n, forbidden, lambda h: _coin_mask(rng, range(h.n), config.p))
        elif method.startswith("planted:"):
            # Each addition takes part of a random vertex u's neighborhood, so u
            # dominates it. Undoing the additions in reverse order removes a
            # dominated vertex at each step, and every such removal order ends
            # in the same graph up to isomorphism, so the core is the start.
            g = _start_graph(method.partition(":")[2], config.n, forbidden)
            g = _grow(
                rng, g, config.n, forbidden,
                lambda h: _coin_mask(rng, bits(h.rows[rng.randrange(h.n)]), config.p),
            )
        else:
            g = construction(method)
            if g.n != config.n:
                raise GenerationError(f"construction {method} has {g.n} vertices, target n={config.n}")
    witness = certify_class(g, forbidden)
    if witness is not None:
        raise GenerationError(
            f"generated graph violates class {config.cls}: induced {witness.pattern}"
        )
    return g


# -- exhaustive labeled enumeration ------------------------------------------------


def enumerate_class_members(n: int) -> Iterator[Graph]:
    """All labeled (2P2, K4)-free graphs on n vertices, in increasing order of
    their edge mask, whose bit i is the i-th pair of combinations(range(n), 2).

    Vertices are added n-1, n-2, ..., 0, each with its neighborhood among the
    higher vertices in increasing order; those pairs hold the high bits of the
    edge mask. A branch stops when the new vertex is in a 2P2 or K4, which
    loses no member because the class is hereditary. Guarded at n <= 8.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > 8:
        raise SizeGuardExceeded(f"exhaustive enumeration guarded at n<=8, got n={n}")
    rows = [0] * n

    def extend(u: int) -> Iterator[Graph]:
        if u < 0:
            yield Graph(n, tuple(rows))
            return
        higher = ((1 << n) - 1) >> (u + 1) << (u + 1)
        for nb in range(0, higher + 1, 1 << (u + 1)):
            if _k4_through(rows, nb) or _2p2_through(rows, nb, higher):
                continue
            rows[u] = nb
            for v in bits(nb):
                rows[v] |= 1 << u
            yield from extend(u - 1)
            for v in bits(nb):
                rows[v] ^= 1 << u

    yield from extend(n - 1)


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
