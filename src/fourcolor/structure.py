"""Anchor decompositions around an induced five-cycle or seven-vertex anchor.

Every vertex outside an anchor is classified by its neighborhood pattern on
the anchor; in the target hereditary class the classification is total, and a
battery of adjacency properties between the classes holds. Index arithmetic
is modulo 5 for cycle anchors and modulo 6 for ring anchors throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UnclassifiableVertex
from .graph import Graph, bits, lowest
from .patterns import Witness, enumerate_induced, find_induced, matches_pattern


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def first_internal_edge(g: Graph, mask: int) -> tuple[int, int] | None:
    for u in bits(mask):
        hit = g.rows[u] & mask & ~((1 << (u + 1)) - 1)
        if hit:
            return u, lowest(hit)
    return None


def first_cross_edge(g: Graph, amask: int, bmask: int) -> tuple[int, int] | None:
    """First adjacent (a, b) pair across two disjoint masked sets."""
    for a in bits(amask):
        hit = g.rows[a] & bmask
        if hit:
            return a, lowest(hit)
    return None


def first_missing_cross(g: Graph, amask: int, bmask: int) -> tuple[int, int] | None:
    """First nonadjacent (a, b) pair across two disjoint masked sets."""
    for a in bits(amask):
        missing = bmask & ~g.rows[a]
        if missing:
            return a, lowest(missing)
    return None


# -- partitions ----------------------------------------------------------------
#
# Every strip is a vertex bitmask, the same form as Graph.rows.


@dataclass(frozen=True)
class C5Partition:
    """Decomposition of a graph around a distinguished induced five-cycle."""

    cycle: tuple[int, ...]
    Z: int
    R: tuple[int, ...]  # R[i]: cycle neighborhood {i-1, i+1}
    Y: tuple[int, ...]  # Y[i]: cycle neighborhood {i-2, i, i+2}
    F: tuple[int, ...]  # F[i]: all cycle vertices except i
    U: int              # complete to the cycle


@dataclass(frozen=True)
class H1Partition:
    """Decomposition around a seven-vertex anchor (ring complement plus hub).

    The hub vertex itself lands in W, which collects every vertex sharing its
    ring neighborhood.
    """

    anchor: tuple[int, ...]  # ring roles 0..5 then the hub
    Z: int
    D: tuple[int, ...]       # D[i]: ring neighborhood {i, i+1}
    T: tuple[int, ...]       # T[i]: {i-1, i, i+1}
    F: tuple[int, ...]       # F[i]: {i-1, i, i+1, i+2}
    W: int                   # ring neighborhood {0, 1, 3, 4}


# Each strip is defined by the anchor roles its vertices see: kind -> one tuple
# of roles per index. Kinds are listed in partition-field order, and a kind
# with a single strip (Z, U, W) is a plain mask in the partition.
C5_STRIPS: dict[str, tuple[tuple[int, ...], ...]] = {
    "Z": ((),),
    "R": tuple(((i - 1) % 5, (i + 1) % 5) for i in range(5)),
    "Y": tuple(((i - 2) % 5, i, (i + 2) % 5) for i in range(5)),
    "F": tuple(tuple(j for j in range(5) if j != i) for i in range(5)),
    "U": (tuple(range(5)),),
}

H1_STRIPS: dict[str, tuple[tuple[int, ...], ...]] = {
    "Z": ((),),
    "D": tuple((i, (i + 1) % 6) for i in range(6)),
    "T": tuple(((i - 1) % 6, i, (i + 1) % 6) for i in range(6)),
    "F": tuple(((i - 1) % 6, i, (i + 1) % 6, (i + 2) % 6) for i in range(6)),
    "W": ((0, 1, 3, 4),),
}

# Indices of the H1 strips complete to W; W is anti-complete to the others.
H1_W_COMPLETE = {"D": (1, 2, 4, 5), "T": (0, 1, 3, 4), "F": (0, 3)}

# D[i] -> (indices j with D[i] anti-complete to F[j], those with it complete).
H1_D_F = {
    0: ((5, 1), (3,)),
    1: ((0,), (4, 5)),
    2: ((3,), (4, 5)),
    3: ((2, 4), (0,)),
    4: ((3,), (1, 2)),
    5: ((0,), (1, 2)),
}


def _slot_layout(strips) -> tuple[dict[int, int], tuple[tuple[int, int], ...]]:
    """(anchor profile -> flat slot, each kind's slot range)."""
    table: dict[int, int] = {}
    spans = []
    for groups in strips.values():
        start = len(table)
        for roles in groups:
            table[mask_of(roles)] = len(table)
        spans.append((start, len(table)))
    return table, tuple(spans)


_C5_LAYOUT = _slot_layout(C5_STRIPS)
_H1_LAYOUT = _slot_layout(H1_STRIPS)


def _classify(g: Graph, anchor: tuple[int, ...], layout) -> list:
    """The partition fields after the anchor, in strip-kind order."""
    table, spans = layout
    slots = [0] * len(table)
    anchor_mask = mask_of(anchor)
    for v in range(g.n):
        if (anchor_mask >> v) & 1:
            continue
        profile = 0
        row = g.rows[v]
        for r, a in enumerate(anchor):
            if (row >> a) & 1:
                profile |= 1 << r
        slot = table.get(profile)
        if slot is None:
            raise UnclassifiableVertex(v, [anchor[r] for r in bits(profile)])
        slots[slot] |= 1 << v
    return [slots[a] if b - a == 1 else tuple(slots[a:b]) for a, b in spans]


def c5_partition(g: Graph, cycle: Witness | tuple[int, ...]) -> C5Partition:
    """Classify every vertex outside an induced five-cycle.

    Raises UnclassifiableVertex if some neighborhood matches no class, which
    certifies the graph is outside the class.
    """
    cyc = tuple(cycle.vertices if isinstance(cycle, Witness) else cycle)
    if not matches_pattern(g, Witness("C5", cyc)):
        raise ValueError(f"{cyc} is not an induced five-cycle in role order")
    return C5Partition(cyc, *_classify(g, cyc[:5], _C5_LAYOUT))


def apex_split(g: Graph, part: C5Partition, apex: int) -> tuple[list[int], list[int]]:
    """(R', R''): the R strips split into the vertices that see the apex and
    those that miss it."""
    frow = g.rows[apex]
    return [r & frow for r in part.R], [r & ~frow for r in part.R]


def h1_partition(g: Graph, anchor: Witness | tuple[int, ...]) -> H1Partition:
    """Classify every vertex outside the six-vertex ring of the anchor."""
    anc = tuple(anchor.vertices if isinstance(anchor, Witness) else anchor)
    if not matches_pattern(g, Witness("H1", anc)):
        raise ValueError(f"{anc} is not an induced H1 in role order")
    return H1Partition(anc, *_classify(g, anc[:6], _H1_LAYOUT))


# -- anchor symmetries ---------------------------------------------------------
#
# Each permutation below relabels an anchor, recorded as a witness-position
# table: relabeled[i] = witness[perm[i]]. All but H2_APEX_CYCLE, which reads an
# H2 witness's cycle as the anchor of its C5Partition, are automorphisms.

H1_AUTOMORPHISMS: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3, 4, 5, 6),
    (3, 4, 5, 0, 1, 2, 6),  # half-turn of the ring (fixes the hub neighborhood)
    (1, 0, 5, 4, 3, 2, 6),  # reflection fixing the pairs {0,1} and {3,4}
    (4, 3, 2, 1, 0, 5, 6),  # their composition
)

H2_CYCLE_REFLECTION: tuple[int, ...] = (3, 2, 1, 0, 4)  # swaps roles 0/3 and 1/2
H2_APEX_CYCLE: tuple[int, ...] = (1, 2, 3, 4, 0)  # the cycle from role 1: the apex misses role 4


def permute(vertices: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(vertices[p] for p in perm)


# -- extremal anchor selection ---------------------------------------------------

_H1_TF_PROFILES = tuple(mask_of(roles) for roles in H1_STRIPS["T"] + H1_STRIPS["F"])
_H2_KEY_PROFILES = (mask_of(C5_STRIPS["U"][0]), mask_of(C5_STRIPS["F"][4]))


def _strip_counts(g: Graph, anchor: tuple[int, ...], profiles: tuple[int, ...]) -> tuple[int, ...]:
    """Per role profile (bit r set iff a vertex sees anchor[r]), the number of
    vertices outside the anchor with that neighborhood on it."""
    rows = [g.rows[a] for a in anchor]
    outside = ((1 << g.n) - 1) & ~mask_of(anchor)
    counts = []
    for profile in profiles:
        m = outside
        for r, row in enumerate(rows):
            m &= row if (profile >> r) & 1 else ~row
        counts.append(m.bit_count())
    return tuple(counts)


def select_best_h1(g: Graph) -> tuple[Witness, H1Partition] | None:
    """Anchor maximizing |T|+|F|, ties by lexicographically smallest witness."""
    best = min(
        enumerate_induced(g, "H1"),
        key=lambda w: (-sum(_strip_counts(g, w.vertices[:6], _H1_TF_PROFILES)), w.vertices),
        default=None,
    )
    return None if best is None else (best, h1_partition(g, best))


def select_best_h2(g: Graph) -> tuple[Witness, C5Partition] | None:
    """Anchor lexicographically minimizing (|U|, |F[4]|), first witness on ties.

    The returned partition is anchored on the witness cycle permuted by
    H2_APEX_CYCLE, so that the apex sits in F[4].
    """
    best = min(
        enumerate_induced(g, "H2"),
        key=lambda w: _strip_counts(g, permute(w.vertices, H2_APEX_CYCLE), _H2_KEY_PROFILES),
        default=None,
    )
    return None if best is None else (best, c5_partition(g, permute(best.vertices, H2_APEX_CYCLE)))


# -- property reports ------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    prop: str
    holds: bool
    counterexample: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if not c.holds)


class _Report:
    def __init__(self):
        self.checks: list[PropertyCheck] = []

    def add(self, prop: str, counterexample: tuple[int, ...] | None) -> None:
        self.checks.append(PropertyCheck(prop, counterexample is None, counterexample))

    def done(self) -> PropertyReport:
        return PropertyReport(tuple(self.checks))


def _first_failure(count: int, fn):
    """First fn(i) over i = 0..count-1 that is not None, else None."""
    for i in range(count):
        bad = fn(i)
        if bad is not None:
            return bad
    return None


def check_c5_properties(g: Graph, part: C5Partition) -> PropertyReport:
    """Evaluate the thirteen structural properties of a five-cycle partition."""
    rep = _Report()
    Z, U, R, Y, F = part.Z, part.U, part.R, part.Y, part.F
    rep.add("z_r_independent", _first_failure(5, lambda i: first_internal_edge(g, Z | R[i])))
    rep.add(
        "u_y_f_independent",
        _first_failure(5, lambda i: first_internal_edge(g, U | Y[i]) or first_internal_edge(g, U | F[i])),
    )
    rep.add("r_next_complete", _first_failure(5, lambda i: first_missing_cross(g, R[i], R[(i + 1) % 5])))
    rep.add("y_next_complete", _first_failure(5, lambda i: first_missing_cross(g, Y[i], Y[(i + 1) % 5])))
    rep.add("r_y_same_complete", _first_failure(5, lambda i: first_missing_cross(g, R[i], Y[i])))

    def cross_exclusion(i):
        e1 = first_cross_edge(g, R[i], Y[(i + 1) % 5])
        e2 = first_cross_edge(g, R[(i + 1) % 5], Y[i])
        return e1 + e2 if e1 and e2 else None

    rep.add("r_y_cross_exclusion", _first_failure(5, cross_exclusion))

    def y_far_choice(i):
        for y in bits(Y[i]):
            a = g.rows[y] & Y[(i - 2) % 5]
            b = g.rows[y] & Y[(i + 2) % 5]
            if a and b:
                return (y, lowest(a), lowest(b))
        return None

    rep.add("y_vertex_far_choice", _first_failure(5, y_far_choice))
    rep.add(
        "f_y_adjacency",
        _first_failure(
            5,
            lambda i: first_missing_cross(g, F[i], Y[(i - 2) % 5] | Y[(i + 2) % 5])
            or first_cross_edge(g, F[i], Y[(i - 1) % 5] | Y[i] | Y[(i + 1) % 5])
        ),
    )
    rep.add(
        "f_r_complete",
        _first_failure(5, lambda i: first_missing_cross(g, F[i], R[(i - 1) % 5] | R[(i + 1) % 5])),
    )
    if U:
        rep.add(
            "u_forces_y_far_anticomplete",
            _first_failure(5, lambda i: first_cross_edge(g, Y[i], Y[(i + 2) % 5])),
        )
    else:
        rep.add("u_forces_y_far_anticomplete", None)

    def f_far(i):
        a, b = F[i], F[(i + 2) % 5]
        return (lowest(a), lowest(b)) if a and b else None

    rep.add("f_far_exclusion", _first_failure(5, f_far))
    if find_induced(g, "H1") is None:

        def f_forces(i):
            if not F[i]:
                return None
            return first_cross_edge(g, R[(i + 1) % 5], Y[(i + 2) % 5] | Y[i]) or first_cross_edge(
                g, R[(i - 1) % 5], Y[(i - 2) % 5] | Y[i]
            )

        rep.add("f_forces_r_y_anticomplete", _first_failure(5, f_forces))
    else:
        rep.add("f_forces_r_y_anticomplete", None)

    def r_y_choice(i):
        for r in bits(R[i]):
            row = g.rows[r]
            up1, up2 = row & Y[(i + 1) % 5], row & Y[(i + 2) % 5]
            if up1 and up2:
                return (r, lowest(up1), lowest(up2))
            dn1, dn2 = row & Y[(i - 1) % 5], row & Y[(i - 2) % 5]
            if dn1 and dn2:
                return (r, lowest(dn1), lowest(dn2))
        return None

    rep.add("r_vertex_y_choice", _first_failure(5, r_y_choice))
    return rep.done()


def check_h1_properties(g: Graph, part: H1Partition) -> PropertyReport:
    """Evaluate the ring-anchor adjacency properties and emptiness claims.

    The existence/emptiness claims presume the anchor came from
    select_best_h1 on a connected core with no comparable pair.
    """
    rep = _Report()
    Z, W, D, T, F = part.Z, part.W, part.D, part.T, part.F
    rep.add("w_z_anticomplete", first_cross_edge(g, W, Z))

    for kind, masks in (("D", D), ("T", T), ("F", F)):
        complete = H1_W_COMPLETE[kind]
        rep.add(
            f"w_{kind.lower()}_adjacency",
            _first_failure(
                6,
                lambda i: (first_missing_cross if i in complete else first_cross_edge)(g, W, masks[i]),
            ),
        )
    attached = 0
    for m in D + T + F[1:3] + F[4:]:
        attached |= m
    rep.add("z_attachment", first_cross_edge(g, Z, attached))
    rep.add("z_empty", (lowest(Z),) if Z else None)
    rep.add(
        "d_d_adjacency",
        _first_failure(
            6,
            lambda i: first_cross_edge(g, D[i], D[(i + 1) % 6])
            or first_missing_cross(g, D[i], D[(i + 2) % 6])
            or first_cross_edge(g, D[i], D[(i + 3) % 6])
        ),
    )
    rep.add(
        "f_f_adjacency",
        _first_failure(
            6,
            lambda i: first_cross_edge(g, F[i], F[(i + 1) % 6])
            or first_missing_cross(g, F[i], F[(i + 2) % 6])
            or first_cross_edge(g, F[i], F[(i + 3) % 6])
        ),
    )
    rep.add(
        "t_adjacent_pairs_anticomplete",
        first_cross_edge(g, T[0], T[1]) or first_cross_edge(g, T[3], T[4]),
    )
    rep.add(
        "t_hub_sides_complete",
        first_missing_cross(g, T[2], T[0] | T[4]) or first_missing_cross(g, T[5], T[1] | T[3]),
    )
    rep.add(
        "t_opposite_complete",
        _first_failure(3, lambda i: first_missing_cross(g, T[i], T[(i + 3) % 6])),
    )

    def d_t(i):
        return first_cross_edge(
            g, D[i], T[(i - 1) % 6] | T[i] | T[(i + 1) % 6] | T[(i + 2) % 6]
        ) or first_missing_cross(g, D[i], T[(i + 3) % 6] | T[(i + 4) % 6])

    rep.add("d_t_adjacency", _first_failure(6, d_t))

    def f_t(i):
        return first_cross_edge(g, F[i], T[i] | T[(i + 1) % 6]) or first_missing_cross(
            g, F[i], T[(i + 3) % 6] | T[(i + 4) % 6]
        )

    rep.add("f_t_adjacency", _first_failure(6, f_t))
    rep.add(
        "f_t_extra_complete",
        first_missing_cross(g, F[1], T[0])
        or first_missing_cross(g, F[4], T[3])
        or first_missing_cross(g, F[2], T[4])
        or first_missing_cross(g, F[5], T[1]),
    )

    def d_f(i):
        anti, comp = H1_D_F[i]
        for j in anti:
            e = first_cross_edge(g, D[i], F[j])
            if e:
                return e
        for j in comp:
            e = first_missing_cross(g, D[i], F[j])
            if e:
                return e
        return None

    rep.add("d_f_adjacency", _first_failure(6, d_f))

    # Emptiness / exchange claims tied to the extremal anchor choice.
    rep.add(
        "claim_d_opposite_empty",
        (lowest(D[0]), lowest(D[3])) if D[0] and D[3] else None,
    )

    def nonneighbor_exchange():
        for a, b in ((0, 4), (4, 0), (1, 3), (3, 1)):
            for t in bits(T[a]):
                if T[b] and T[b] & ~g.rows[t] == 0:
                    return (t,)
        return None

    rep.add("claim_t_nonneighbor_exchange", nonneighbor_exchange())

    def neighbor_exists():
        for t in bits(T[5]):
            if g.rows[t] & (T[0] | T[4]) == 0:
                return (t,)
        for t in bits(T[2]):
            if g.rows[t] & (T[1] | T[3]) == 0:
                return (t,)
        return None

    rep.add("claim_t_neighbor_exists", neighbor_exists())

    def d_forces_t_complete():
        if D[4] | D[5]:
            e = first_missing_cross(g, T[1], T[3])
            if e:
                return e
        if D[1] | D[2]:
            e = first_missing_cross(g, T[0], T[4])
            if e:
                return e
        return None

    rep.add("claim_d_forces_t_complete", d_forces_t_complete())

    def f_run_empty():
        if F[5] and F[0] and F[1]:
            return (lowest(F[5]), lowest(F[0]), lowest(F[1]))
        if F[2] and F[3] and F[4]:
            return (lowest(F[2]), lowest(F[3]), lowest(F[4]))
        return None

    rep.add("claim_f_run_empty", f_run_empty())
    return rep.done()


def check_h2_properties(g: Graph, part: C5Partition, apex: int) -> PropertyReport:
    """Evaluate the apex-anchor properties; apex must sit in part.F[4].

    Properties tied to the apex split are evaluated only when U is empty, as
    they are stated in that regime.
    """
    rep = _Report()
    Z, U, R, Y, F5 = part.Z, part.U, part.R, part.Y, part.F[4]
    rep.add("u_r_complete", _first_failure(5, lambda i: first_missing_cross(g, U, R[i])))
    if U:
        rep.add(
            "u_forces_r_far_anticomplete",
            _first_failure(5, lambda i: first_cross_edge(g, R[i], R[(i + 2) % 5])),
        )
        return rep.done()
    rep.add("u_forces_r_far_anticomplete", None)

    def f5_clean():
        for r in bits(R[1] | R[2]):
            hit = g.rows[r] & F5
            if hit and hit != F5:
                miss = F5 & ~g.rows[r]
                return (r, lowest(miss))
        return None

    rep.add("r_f5_all_or_nothing", f5_clean())
    rep.add("f5_singleton", None if F5 == 1 << apex else tuple(bits(F5)))
    rep.add("y5_nonempty", None if Y[4] else (part.cycle[4],))

    Rp, Rpp = apex_split(g, part, apex)
    rep.add("r2pp_or_r3pp_empty", (lowest(Rpp[1]), lowest(Rpp[2])) if Rpp[1] and Rpp[2] else None)
    rep.add("rp5_rp_anticomplete", first_cross_edge(g, Rp[4], Rp[1] | Rp[2]))
    rep.add("rp5_y_anticomplete", first_cross_edge(g, Rp[4], Y[1] | Y[2]))
    rep.add(
        "rp_far_r_anticomplete",
        first_cross_edge(g, Rp[1], R[3]) or first_cross_edge(g, Rp[2], R[0]),
    )
    rep.add("rpp5_rpp_anticomplete", first_cross_edge(g, Rpp[4], Rpp[1] | Rpp[2]))
    rep.add("y5_rpp_anticomplete", first_cross_edge(g, Y[4], Rpp[1] | Rpp[2]))
    rep.add("rpp5_y_anticomplete", first_cross_edge(g, Rpp[4], Y[0] | Y[3]))
    rep.add(
        "rpp_near_y_anticomplete",
        first_cross_edge(g, Rpp[1], Y[0]) or first_cross_edge(g, Rpp[2], Y[3]),
    )
    rep.add(
        "rp_far_y_anticomplete",
        first_cross_edge(g, Rp[1], Y[2]) or first_cross_edge(g, Rp[2], Y[1]),
    )
    rep.add("y5_rp_complete", first_missing_cross(g, Y[4], Rp[1] | Rp[2]))

    def z_y_choice():
        for z in bits(Z):
            if g.rows[z] & Y[1] and g.rows[z] & Y[2]:
                return (z,)
        return None

    rep.add("z_y_choice", z_y_choice())

    def z_nonneighbor_y_complete():
        for z in bits(Z):
            reach = g.rows[z]
            for i in range(5):
                for y in bits(Y[i] & ~reach):
                    missing = reach & ~Y[i] & ~g.rows[y] & ~(1 << y)
                    if missing:
                        return (z, y, lowest(missing))
        return None

    rep.add("z_nonneighbor_y_complete", z_nonneighbor_y_complete())

    def z_forces_y_empty():
        for i in (1, 2):
            if not Y[i]:
                continue
            for z in bits(Z):
                if g.rows[z] & Y[i] == 0:
                    return (z, lowest(Y[i]))
        return None

    rep.add("z_anticomplete_forces_y_empty", z_forces_y_empty())
    return rep.done()
