"""The constructive 4-coloring pipeline.

Pipeline: validate class membership, strip comparable vertices, then color
the core by structural case analysis around an anchor (seven-vertex ring
anchor, apex anchor, hub anchor, bare five-cycle), falling back to bounded
backtracking when no five-cycle exists. The core is one connected graph: an
isolated core vertex would be dominated by any other, and two components with
edges would hold an induced 2P2. So one dispatch colors it, and each case
colorer returns its coloring with the one TraceRecord that names its leaf.
Every color class a case emits is asserted independent before it is accepted,
so a transcription error in a case table surfaces as InternalCaseFailure
rather than as a bad coloring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import InternalCaseFailure, NotInClass
# connected_components and induced_subgraph stay names of this module:
# bench/spans.py wraps coloring.connected_components and coloring.induced_subgraph.
from .graph import Graph, bits, connected_components, induced_subgraph, lowest  # noqa: F401
from .patterns import Witness, certify_class, find_induced
from .reduction import reduce_to_core, reinsert_colors
from .structure import (
    C5Partition,
    H1Partition,
    H1_AUTOMORPHISMS,
    H2_CYCLE_REFLECTION,
    c5_partition,
    first_cross_edge,
    first_internal_edge,
    first_missing_cross,
    h1_partition,
    permute,
    rotate_cycle,
    select_best_h1,
    select_best_h2,
)


@dataclass(frozen=True)
class Coloring:
    """Total proper color assignment; colors are 1..k."""

    colors: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class TraceRecord:
    case: str
    predicates: tuple[tuple[str, bool], ...]
    anchor: tuple[int, ...]

    @property
    def lemma(self) -> str:
        """The case's first path segment: h1, h2, w5, c5 or fallback."""
        return self.case.split("/", 1)[0]

    def line(self) -> str:
        preds = " ".join(f"predicate={name}:{str(val).lower()}" for name, val in self.predicates)
        anchor = ",".join(map(str, self.anchor))
        parts = [f"lemma={self.lemma}", f"case={self.case}"]
        if preds:
            parts.append(preds)
        parts.append(f"anchor={anchor}")
        return " ".join(parts)


@dataclass
class CaseTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]


def verify_coloring(g: Graph, coloring: Coloring) -> tuple[int, int] | None:
    """First monochromatic edge, or None if the coloring is proper and total."""
    colors = coloring.colors
    if len(colors) != g.n:
        raise ValueError("coloring does not cover the vertex set")
    classes: dict = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    # First in g.edges() order: lowest u, then its lowest same-colored v above u.
    for u, c in enumerate(colors):
        clash = g.rows[u] & classes[c] >> (u + 1) << (u + 1)
        if clash:
            return u, lowest(clash)
    return None


# -- class assembly helpers ------------------------------------------------------


class _Classes:
    """Four color classes under construction, as vertex masks, with guarded
    insertion."""

    def __init__(self, g: Graph, case: str, masks: Iterable[int]):
        self.g = g
        self.case = case
        self.masks = list(masks)
        if len(self.masks) != 4:
            raise InternalCaseFailure(case, f"{len(self.masks)} classes emitted")

    def place(self, v: int, targets: Iterable[int]) -> None:
        """Put v into the first target class it is anti-complete to."""
        row = self.g.rows[v]
        for t in targets:
            if row & self.masks[t] == 0:
                self.masks[t] |= 1 << v
                return
        raise InternalCaseFailure(self.case, f"vertex {v} fits none of classes {tuple(targets)}", (v,))

    def place_all(self, mask: int, targets: Iterable[int]) -> None:
        for v in bits(mask):
            self.place(v, targets)

    def finish(self) -> Coloring:
        g, case = self.g, self.case
        union = 0
        for i, m in enumerate(self.masks):
            if union & m:
                dup = union & m
                raise InternalCaseFailure(case, "classes overlap", (lowest(dup),))
            union |= m
            edge = first_internal_edge(g, m)
            if edge is not None:
                raise InternalCaseFailure(case, f"class {i + 1} is not independent", edge)
        if union != (1 << g.n) - 1:
            missing = ~union & ((1 << g.n) - 1)
            raise InternalCaseFailure(case, "classes do not cover the graph", (lowest(missing),))
        colors = [0] * g.n
        k = 0
        for m in self.masks:
            if not m:
                continue
            k += 1
            for v in bits(m):
                colors[v] = k
        return Coloring(tuple(colors), k)


def _emit(g: Graph, case: str, parts) -> Coloring:
    return _Classes(g, case, parts).finish()


def _anti(g: Graph, amask: int, bmask: int) -> bool:
    return first_cross_edge(g, amask, bmask) is None


def _split_by_attachment(g: Graph, vertices: int, bmask: int) -> tuple[int, int]:
    """(anti-complete part, attached part) of the masked vertices w.r.t. bmask."""
    clean = 0
    for v in bits(vertices):
        if g.rows[v] & bmask == 0:
            clean |= 1 << v
    return clean, vertices & ~clean


def _singletons(vertices) -> list[int]:
    """Each vertex as a one-bit mask, so anchor roles join strips with |."""
    return [1 << v for v in vertices]


# -- seven-vertex ring anchor ------------------------------------------------------


def _h1_normalize(g: Graph, part: H1Partition, preds: list) -> H1Partition:
    """Relabel the anchor so D[3] is empty and T[0]-T[4] is complete."""
    if part.D[3]:
        if part.D[0]:
            raise InternalCaseFailure("h1/normalize", "both opposite D strips nonempty")
        part = h1_partition(g, permute(part.anchor, H1_AUTOMORPHISMS[1]))
    t15 = first_missing_cross(g, part.T[0], part.T[4]) is None
    t24 = first_missing_cross(g, part.T[1], part.T[3]) is None
    preds.append(("t15_complete", t15))
    preds.append(("t24_complete", t24))
    if not t15:
        if not t24:
            raise InternalCaseFailure("h1/normalize", "neither opposite T pair is complete")
        part = h1_partition(g, permute(part.anchor, H1_AUTOMORPHISMS[2]))
    for name, bad in (
        ("Z", part.Z),
        ("T[0]", part.T[0]),
        ("T[4]", part.T[4]),
        ("T[5]", part.T[5]),
    ):
        if bad:
            raise InternalCaseFailure("h1/normalize", f"{name} not empty", (lowest(bad),))
    if (part.D[4] or part.D[5]) and (part.T[1] or part.T[2] or part.T[3]):
        raise InternalCaseFailure("h1/normalize", "side D strips nonempty but middle T strips survive")
    return part


def color_h1_case(g: Graph, part: H1Partition) -> tuple[Coloring, TraceRecord]:
    """4-coloring when a best ring anchor exists.

    Expects a connected graph with no comparable pair, free of induced 2P2
    and K4, and the partition from select_best_h1.
    """
    preds: list[tuple[str, bool]] = []
    part = _h1_normalize(g, part, preds)
    F = part.F
    f12, f45 = bool(F[0]), bool(F[3])
    preds += [("f12_nonempty", f12), ("f45_nonempty", f45)]
    side_d = bool(part.D[4] or part.D[5])

    if f12 and f45:
        case, parts = _h1_case_both(g, part, preds, side_d)
    elif not f12 and not f45:
        case, parts = _h1_case_neither(g, part, preds, side_d)
    elif f45:
        case, parts = _h1_case_f45_only(g, part, preds, side_d)
    else:
        case, parts = _h1_case_f12_only(g, part, preds, side_d)
    return _emit(g, case, parts), TraceRecord(case, tuple(preds), part.anchor)


def _h1_case_both(g, part, preds, side_d):
    c, D, T, F, W = _singletons(part.anchor), part.D, part.T, part.F, part.W
    if F[1] or not (F[5] or F[2] or F[4]):
        return "h1/both/f23", [
            F[3] | D[1] | D[2] | c[0] | T[3],
            F[1] | D[0] | W | c[5] | T[2],
            F[0] | c[3] | c[4] | T[1],
            D[4] | D[5] | c[1] | c[2],
        ]
    if F[5]:
        preds.append(("side_d_nonempty", side_d))
        if side_d:
            return "h1/both/f61/sided", [
                F[3] | D[4] | D[5] | c[1],
                F[5] | D[0] | W | c[2],
                F[0] | c[3] | c[4],
                D[1] | D[2] | c[0] | c[5],
            ]
        return "h1/both/f61/plain", [
            F[3] | c[0] | c[1] | T[3],
            F[5] | D[0] | W | c[2],
            F[0] | c[3] | c[4] | T[1],
            D[1] | D[2] | c[5] | T[2],
        ]
    if F[2]:
        clean, attached = _split_by_attachment(g, D[0], F[2])
        return "h1/both/f34", [
            F[3] | D[1] | D[2] | c[0] | T[3],
            F[2] | clean | W | c[5] | T[2],
            F[0] | attached | c[3] | c[4] | T[1],
            D[4] | D[5] | c[1] | c[2],
        ]
    clean, attached = _split_by_attachment(g, D[0], F[4])
    return "h1/both/f56", [
        F[3] | D[4] | D[5] | c[1],
        F[4] | clean | W | c[2],
        F[0] | attached | c[3] | c[4] | T[1],
        D[1] | D[2] | c[0] | c[5] | T[2] | T[3],
    ]


def _h1_case_neither(g, part, preds, side_d):
    c, D, T, F, W = _singletons(part.anchor), part.D, part.T, part.F, part.W
    if not F[5]:
        d56_clean = _anti(g, D[4], F[4])
        preds.append(("d56_f56_anticomplete", d56_clean))
        if d56_clean:
            return "h1/neither/f61empty/a", [
                F[1] | F[2] | W | c[5] | T[2],
                F[4] | D[4] | c[1] | c[2],
                D[0] | D[5] | c[3] | c[4] | T[1],
                D[1] | D[2] | c[0] | T[3],
            ]
        if not _anti(g, D[2], F[2]):
            raise InternalCaseFailure("h1/neither/f61empty", "neither D/F side is anti-complete")
        preds.append(("side_d_nonempty", side_d))
        if side_d:
            return "h1/neither/f61empty/b", [
                F[1] | F[4] | W,
                F[2] | D[2] | c[5] | c[0],
                D[0] | D[1] | c[3] | c[4],
                D[4] | D[5] | c[1] | c[2],
            ]
        return "h1/neither/f61empty/c", [
            F[1] | D[0] | W | c[5] | T[2],
            F[2] | D[2] | c[0] | T[3],
            F[4] | c[1] | c[2],
            D[1] | c[3] | c[4] | T[1],
        ]
    if not F[1]:
        d34_clean = _anti(g, D[2], F[2])
        preds.append(("d34_f34_anticomplete", d34_clean))
        if d34_clean:
            preds.append(("side_d_nonempty", side_d))
            if side_d:
                return "h1/neither/f23empty/a", [
                    F[5] | F[4] | W | c[2],
                    F[2] | D[2] | c[5] | c[0],
                    D[0] | D[1] | c[3] | c[4],
                    D[5] | D[4] | c[1],
                ]
            return "h1/neither/f23empty/b", [
                F[5] | F[4] | W | c[2],
                F[2] | D[2] | c[5] | T[2],
                D[0] | D[1] | c[3] | c[4] | T[1],
                c[0] | c[1] | T[3],
            ]
        if not _anti(g, D[4], F[4]):
            raise InternalCaseFailure("h1/neither/f23empty", "neither D/F side is anti-complete")
        return "h1/neither/f23empty/c", [
            F[5] | F[2] | W,
            F[4] | D[4] | c[1] | c[2],
            D[0] | D[5] | c[3] | c[4] | T[1],
            D[1] | D[2] | c[5] | c[0] | T[2] | T[3],
        ]
    if not F[4]:
        return "h1/neither/f56empty", [
            F[2] | F[5] | W,
            F[1] | D[0] | D[1] | c[4] | c[5] | T[1] | T[2],
            D[2] | c[0] | c[1] | T[3],
            D[4] | D[5] | c[2] | c[3],
        ]
    if not F[2]:
        preds.append(("side_d_nonempty", side_d))
        if side_d:
            return "h1/neither/f34empty/a", [
                F[4] | F[1] | W,
                F[5] | D[0] | D[5] | c[2] | c[3],
                D[4] | c[0] | c[1],
                D[2] | D[1] | c[4] | c[5],
            ]
        return "h1/neither/f34empty/b", [
            F[4] | F[5] | W | c[2],
            F[1] | D[0] | c[5] | T[2],
            D[1] | c[3] | c[4] | T[1],
            D[2] | c[0] | c[1] | T[3],
        ]
    raise InternalCaseFailure("h1/neither", "all four outer F strips nonempty")


def _h1_case_f45_only(g, part, preds, side_d):
    c, D, T, F, W = _singletons(part.anchor), part.D, part.T, part.F, part.W
    if not F[4]:
        d61_clean = _anti(g, D[5], F[5])
        preds.append(("d61_f61_anticomplete", d61_clean))
        if d61_clean:
            return "h1/f45/f56empty/a", [
                F[1] | F[2] | W | c[5] | T[2],
                F[5] | D[0] | D[5] | c[2] | c[3],
                F[3] | D[4] | c[0] | c[1] | T[3],
                D[1] | D[2] | c[4] | T[1],
            ]
        if not _anti(g, D[1], F[1]):
            raise InternalCaseFailure("h1/f45/f56empty", "neither D/F side is anti-complete")
        preds.append(("side_d_nonempty", side_d))
        if side_d:
            return "h1/f45/f56empty/b", [
                F[2] | F[5] | W,
                F[1] | D[0] | D[1] | c[4] | c[5],
                F[3] | D[2] | c[0] | c[1],
                D[4] | D[5] | c[2] | c[3],
            ]
        return "h1/f45/f56empty/c", [
            F[2] | W | c[5] | T[2],
            F[1] | D[0] | D[1] | c[4] | T[1],
            F[3] | D[2] | c[0] | c[1] | T[3],
            F[5] | c[2] | c[3],
        ]
    if not F[2]:
        d23_clean = _anti(g, D[1], F[1])
        preds.append(("d23_f23_anticomplete", d23_clean))
        if d23_clean:
            preds.append(("side_d_nonempty", side_d))
            if side_d:
                return "h1/f45/f34empty/a", [
                    F[4] | F[5] | W | c[2],
                    F[1] | D[0] | D[1] | c[4] | c[5],
                    F[3] | D[2] | c[0] | c[1],
                    D[4] | D[5] | c[3],
                ]
            return "h1/f45/f34empty/b", [
                F[4] | F[5] | W | c[2],
                F[1] | D[0] | D[1] | c[5] | T[2],
                F[3] | D[2] | c[0] | c[1] | T[3],
                c[3] | c[4] | T[1],
            ]
        if not _anti(g, D[5], F[5]):
            raise InternalCaseFailure("h1/f45/f34empty", "neither D/F side is anti-complete")
        return "h1/f45/f34empty/c", [
            F[4] | F[1] | W,
            F[5] | D[0] | D[5] | c[2] | c[3],
            F[3] | D[4] | c[0] | c[1] | T[3],
            D[1] | D[2] | c[4] | c[5] | T[1] | T[2],
        ]
    raise InternalCaseFailure("h1/f45", "neither adjacent outer F strip is empty")


def _h1_case_f12_only(g, part, preds, side_d):
    c, D, T, F, W = _singletons(part.anchor), part.D, part.T, part.F, part.W
    if not F[5]:
        f34 = bool(F[2])
        f56 = bool(F[4])
        preds += [("f34_nonempty", f34), ("f56_nonempty", f56)]
        if f34 and f56:
            base = [
                F[1] | D[0] | W | c[5] | T[2],
                F[2] | D[2] | c[0] | T[3],
                F[4] | D[4] | c[1] | c[2],
                F[0] | c[3] | c[4] | T[1],
            ]
            if _anti(g, D[1], F[2]):
                base[1] |= D[1]
                base[3] |= D[5]
                return "h1/f12/f61empty/a", base
            if _anti(g, D[5], F[4]):
                base[2] |= D[5]
                base[3] |= D[1]
                return "h1/f12/f61empty/b", base
            raise InternalCaseFailure("h1/f12/f61empty", "no D strip detaches from its F strip")
        clean, attached = _split_by_attachment(g, D[0], F[0])
        if not f56:
            return "h1/f12/f61empty/c", [
                F[0] | clean | c[3] | c[4] | T[1],
                F[1] | F[2] | attached | W | c[5] | T[2],
                D[1] | D[2] | c[0] | T[3],
                D[4] | D[5] | c[1] | c[2],
            ]
        return "h1/f12/f61empty/d", [
            F[0] | D[1] | clean | c[3] | c[4] | T[1],
            F[1] | F[4] | attached | W,
            D[2] | c[5] | c[0] | T[2] | T[3],
            D[4] | D[5] | c[1] | c[2],
        ]
    if not F[1]:
        f34 = bool(F[2])
        f56 = bool(F[4])
        preds += [("f34_nonempty", f34), ("f56_nonempty", f56)]
        if f34 and f56:
            base = [
                F[5] | D[0] | W | c[2],
                F[4] | D[4] | c[1],
                F[2] | D[2] | c[5] | c[0] | T[2] | T[3],
                F[0] | c[3] | c[4] | T[1],
            ]
            if _anti(g, D[1], F[2]):
                base[2] |= D[1]
                base[3] |= D[5]
                return "h1/f12/f23empty/a", base
            if _anti(g, D[5], F[4]):
                base[1] |= D[5]
                base[3] |= D[1]
                return "h1/f12/f23empty/b", base
            raise InternalCaseFailure("h1/f12/f23empty", "no D strip detaches from its F strip")
        clean, attached = _split_by_attachment(g, D[0], F[0])
        if f56:
            return "h1/f12/f23empty/c", [
                F[0] | clean | c[3] | c[4] | T[1],
                F[5] | F[4] | attached | W | c[2],
                D[5] | D[4] | c[1],
                D[1] | D[2] | c[5] | c[0] | T[2] | T[3],
            ]
        preds.append(("side_d_nonempty", side_d))
        if side_d:
            return "h1/f12/f23empty/d", [
                F[0] | D[5] | clean | c[3] | c[4],
                F[5] | F[2] | attached | W,
                D[4] | c[1] | c[2],
                D[1] | D[2] | c[5] | c[0],
            ]
        return "h1/f12/f23empty/e", [
            F[0] | D[1] | clean | c[3] | c[4] | T[1],
            F[2] | attached | W | c[5] | T[2],
            F[5] | c[2],
            D[2] | c[0] | c[1] | T[3],
        ]
    raise InternalCaseFailure("h1/f12", "neither adjacent outer F strip is empty")


# -- apex anchor ---------------------------------------------------------------------


def _h2_strips(g: Graph, part: C5Partition, apex: int):
    """(part, R', R''): part with its R strips split by the apex."""
    frow = g.rows[apex]
    return part, [r & frow for r in part.R], [r & ~frow for r in part.R]


def _h2_mirrored(g: Graph, part: C5Partition, apex: int):
    """_h2_strips on the reflected cycle, which swaps the two near R strips."""
    return _h2_strips(g, c5_partition(g, permute(part.cycle, H2_CYCLE_REFLECTION)), apex)


def _h2_body(g: Graph, part: C5Partition, apex: int, preds: list) -> _Classes:
    part, Rp, Rpp = _h2_strips(g, part, apex)
    c, R, Y, F, Z, U = _singletons(part.cycle), part.R, part.Y, part.F, part.Z, part.U
    for i in range(4):
        if F[i]:
            raise InternalCaseFailure("h2/setup", f"side apex strip F[{i}] not empty", (lowest(F[i]),))
    if U:
        preds.append(("u_nonempty", True))
        if _anti(g, Y[2], R[1]):
            preds.append(("y3_r2_anticomplete", True))
            return _Classes(
                g,
                "h2/hubbed/a",
                [
                    Y[0] | Y[3] | U | F[4],
                    Y[1] | Y[4] | R[0] | c[0],
                    Y[2] | R[1] | R[3] | c[1] | c[3],
                    R[2] | R[4] | Z | c[2] | c[4],
                ],
            )
        preds.append(("y3_r2_anticomplete", False))
        if not _anti(g, Y[1], R[2]):
            raise InternalCaseFailure("h2/hubbed", "neither Y/R side is anti-complete")
        return _Classes(
            g,
            "h2/hubbed/b",
            [
                Y[0] | Y[3] | U | F[4],
                Y[2] | Y[4] | R[3] | c[3],
                Y[1] | R[0] | R[2] | c[0] | c[2],
                R[1] | R[4] | Z | c[1] | c[4],
            ],
        )
    preds.append(("u_nonempty", False))
    if F[4] != 1 << apex:
        raise InternalCaseFailure("h2/setup", "apex strip is not a singleton", tuple(bits(F[4])))
    if Rpp[1] and Rpp[2]:
        raise InternalCaseFailure("h2/setup", "both detached R strips nonempty")

    if not Rp[4]:
        return _h2_case_no_apex_r5(g, part, apex, Rp, Rpp, preds)
    return _h2_case_apex_r5(g, part, apex, Rp, Rpp, preds)


def color_h2_case(g: Graph, witness: Witness, part: C5Partition) -> tuple[Coloring, TraceRecord]:
    """4-coloring when a best apex anchor exists (ring-anchor-free graph)."""
    apex = witness.vertices[5]
    preds: list[tuple[str, bool]] = []
    classes = _h2_body(g, part, apex, preds)
    return classes.finish(), TraceRecord(classes.case, tuple(preds), part.cycle + (apex,))


def _h2_fit_z(g, part, y4, cls: _Classes, alone: int, spread: tuple[int, ...], preds) -> bool:
    """Place Z into cls: all into class `alone` when Z misses Y[2], else first
    fit over `spread`; False, placing nothing, when some z sees Y[2], y4 and
    Y[4] and the caller must rebuild its classes."""
    Y, Z = part.Y, part.Z
    if first_cross_edge(g, Z, Y[2]) is None:
        preds.append(("z_y3_anticomplete", True))
        cls.place_all(Z, (alone,))
        return True
    preds.append(("z_y3_anticomplete", False))
    if Y[1]:
        raise InternalCaseFailure(cls.case, "middle Y strip should be empty", (lowest(Y[1]),))
    stuck = any(g.rows[z] & Y[2] and g.rows[z] & y4 and g.rows[z] & Y[4] for z in bits(Z))
    preds.append(("z_sees_three_y", stuck))
    if stuck:
        return False
    cls.place_all(Z, spread)
    return True


def _h2_case_no_apex_r5(g, part, apex, Rp, Rpp, preds):
    preds.append(("apex_sees_r5", False))
    if Rpp[1]:
        # Mirror so the detached strip sits on the far side.
        part, Rp, Rpp = _h2_mirrored(g, part, apex)
        if Rpp[1]:
            raise InternalCaseFailure("h2/apexfree", "detached strip survives mirroring")
    c, R, Y, Z, a = _singletons(part.cycle), part.R, part.Y, part.Z, 1 << apex
    y2_clean, y2_attached = _split_by_attachment(g, Y[1], Y[4])
    cls = _Classes(
        g,
        "h2/apexfree",
        [
            y2_clean | Y[4] | R[0] | c[0],
            y2_attached | Y[3] | c[2],
            R[1] | R[3] | Y[2] | c[1] | c[3],
            Y[0] | R[4] | a | c[4],
        ],
    )
    for r in bits(R[2]):
        cls.place(r, (0, 1) if (Rp[2] >> r) & 1 else (1, 3))
    if _h2_fit_z(g, part, Y[3], cls, 2, (0, 1, 2), preds):
        return cls
    return _Classes(
        g,
        "h2/apexfree/rebuilt",
        [
            Y[0] | R[4] | Y[3] | a | c[4],
            Y[2] | R[1] | c[1],
            R[0] | R[3] | Y[4] | c[0] | c[3],
            R[2] | Z | c[2],
        ],
    )


def _h2_case_apex_r5(g, part, apex, Rp, Rpp, preds):
    preds.append(("apex_sees_r5", True))
    edge = first_cross_edge(g, Rpp[1], part.Y[2])
    if edge is None and first_cross_edge(g, Rpp[2], part.Y[1]) is not None:
        part, Rp, Rpp = _h2_mirrored(g, part, apex)
        edge = first_cross_edge(g, Rpp[1], part.Y[2])
        if edge is None:
            raise InternalCaseFailure("h2/apexed", "mirrored attachment edge vanished")
    preds.append(("rpp2_y3_attached", edge is not None))

    a = 1 << apex
    if edge is not None:
        c, R, Y, Z = _singletons(part.cycle), part.R, part.Y, part.Z
        cls = _Classes(
            g,
            "h2/apexed/attached",
            [
                R[3] | Y[4] | R[0] | c[0] | c[3],
                Y[0] | Rpp[4] | Y[3] | a | c[4],
                R[2] | Y[1] | c[2],
                Y[2] | Rp[1] | Rp[4] | c[1],
            ],
        )
        cls.place_all(Z, (2, 3))
        cls.place_all(Rpp[1], (1, 3))
        return cls

    # Both detached strips avoid the opposite Y strips.
    if Rpp[1]:
        part, Rp, Rpp = _h2_mirrored(g, part, apex)
        if Rpp[1]:
            raise InternalCaseFailure("h2/apexed", "detached strip survives mirroring")
    c, R, Y, Z = _singletons(part.cycle), part.R, part.Y, part.Z
    y4_clean, y4_attached = _split_by_attachment(g, Y[3], Y[0])
    cls = _Classes(
        g,
        "h2/apexed/detached",
        [
            R[3] | Y[4] | R[0] | c[0] | c[3],
            Y[0] | Rpp[4] | y4_clean | a | c[4],
            R[2] | Y[1] | y4_attached | c[2],
            Y[2] | Rp[1] | Rp[4] | c[1],
        ],
    )
    if _h2_fit_z(g, part, y4_attached, cls, 3, (0, 2, 3), preds):
        return cls
    return _Classes(
        g,
        "h2/apexed/rebuilt",
        [
            R[3] | Y[4] | R[0] | c[0] | c[3],
            Y[0] | Rpp[4] | Y[3] | a | c[4],
            R[2] | Z | c[2],
            Y[2] | Rp[1] | Rp[4] | c[1],
        ],
    )


# -- hub anchor ----------------------------------------------------------------------


def color_w5_case(g: Graph, part: C5Partition) -> tuple[Coloring, TraceRecord]:
    """4-coloring when a hub vertex is complete to a five-cycle."""
    c, R, Y, F, Z, U = _singletons(part.cycle), part.R, part.Y, part.F, part.Z, part.U
    if not U:
        raise InternalCaseFailure("w5/setup", "no hub vertex in the partition")
    for i in range(5):
        if F[i]:
            raise InternalCaseFailure("w5/setup", f"apex strip F[{i}] not empty", (lowest(F[i]),))
    col = _emit(
        g,
        "w5/hub",
        [
            R[0] | R[2] | Z | c[0] | c[2],
            R[1] | Y[2] | R[3] | c[1] | c[3],
            Y[0] | R[4] | Y[3] | c[4],
            Y[1] | Y[4] | U,
        ],
    )
    return col, TraceRecord("w5/hub", (), part.cycle + (lowest(U),))


# -- bare five-cycle -----------------------------------------------------------------


def color_c5_case(g: Graph, part: C5Partition) -> tuple[Coloring, TraceRecord]:
    """4-coloring when only a bare five-cycle anchor is available."""
    preds: list[tuple[str, bool]] = []
    if part.U:
        raise InternalCaseFailure("c5/setup", "hub vertex present", (lowest(part.U),))
    for i in range(5):
        if part.F[i]:
            raise InternalCaseFailure("c5/setup", f"apex strip F[{i}] not empty", (lowest(part.F[i]),))

    missing = None
    for z in bits(part.Z):
        hit = [i for i in range(5) if g.rows[z] & part.Y[i]]
        if len(hit) == 5:
            raise InternalCaseFailure("c5/setup", f"vertex {z} reaches all five Y strips", (z,))
        if len(hit) == 4:
            missing = next(i for i in range(5) if i not in hit)
            break
    preds.append(("z_sees_four_y", missing is not None))

    case = "c5/spread"
    if missing is not None:
        # Rotate the strip z misses to Y[4]; with Y[4] empty the placement
        # below puts all of Z (independent, and anti-complete to R) in class 2.
        case = "c5/crowded"
        part = c5_partition(g, rotate_cycle(part.cycle, (missing + 1) % 5))
        if part.Y[4]:
            raise InternalCaseFailure(case, "rotated far Y strip not empty", (lowest(part.Y[4]),))
    c, R, Y, Z = _singletons(part.cycle), part.R, part.Y, part.Z
    y4_clean, y4_attached = _split_by_attachment(g, Y[3], Y[0])
    r4_clean, r4_attached = _split_by_attachment(g, R[3], R[0])
    cls = _Classes(
        g,
        case,
        [
            Y[0] | R[4] | y4_clean | c[4],
            Y[1] | R[2] | y4_attached | c[2],
            R[0] | Y[4] | r4_clean | c[0],
            R[1] | Y[2] | r4_attached | c[1] | c[3],
        ],
    )
    for z in bits(Z):
        if g.rows[z] & Y[2] == 0 or g.rows[z] & Y[4] == 0:
            cls.place(z, (2, 3))
        else:
            cls.place(z, (0, 1))
    return cls.finish(), TraceRecord(case, tuple(preds), part.cycle)


# -- cycle-free fallback ----------------------------------------------------------------


def color_fallback(g: Graph) -> tuple[Coloring, TraceRecord]:
    """Exhaustive 4-coloring search for five-cycle-free class members.

    Saturation-degree vertex order with lowest-index tie-break. Success is
    guaranteed for the intended inputs; exhausting the search signals a bug.
    """
    w = find_induced(g, "C5")
    if w is not None:
        raise ValueError(f"fallback requires a five-cycle-free graph; found {w.vertices}")
    return _fallback_search(g)


_FALLBACK_RECORD = TraceRecord("fallback/search", (), ())


def _fallback_search(g: Graph) -> tuple[Coloring, TraceRecord]:
    """color_fallback past its five-cycle guard, for a graph already searched."""
    n = g.n
    if n == 0:
        return Coloring((), 0), _FALLBACK_RECORD
    colors = [0] * n
    forbidden = [0] * n  # bitmask over colors 0..3

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            key = -forbidden[v].bit_count()
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    # Depth-first search with an explicit stack, one frame per colored vertex:
    # [vertex, colors not yet tried, color in use (-1 for none), neighbors it
    # newly forbade that color to].
    first = pick()
    stack = [[first, 0b1111 & ~forbidden[first], -1, ()]]
    while stack:
        frame = stack[-1]
        v, untried, color, touched = frame
        if color >= 0:
            colors[v] = 0
            for u in touched:
                forbidden[u] &= ~(1 << color)
        if not untried:
            stack.pop()
            continue
        color = (untried & -untried).bit_length() - 1
        touched = [u for u in bits(g.rows[v]) if not colors[u] and not (forbidden[u] >> color) & 1]
        colors[v] = color + 1
        for u in touched:
            forbidden[u] |= 1 << color
        frame[1:] = untried & (untried - 1), color, touched
        if len(stack) == n:
            break
        nxt = pick()
        stack.append([nxt, 0b1111 & ~forbidden[nxt], -1, ()])
    else:
        raise InternalCaseFailure("fallback", "4-color search exhausted")
    used = sorted(set(colors))
    remap = {c: i + 1 for i, c in enumerate(used)}
    return Coloring(tuple(remap[c] for c in colors), len(used)), _FALLBACK_RECORD


# -- pipeline ------------------------------------------------------------------------------


def _color_core(core: Graph) -> tuple[Coloring, TraceRecord]:
    """One dispatch over the anchors, on a connected core with no comparable
    pair."""
    h1 = select_best_h1(core)
    if h1 is not None:
        _, part = h1
        return color_h1_case(core, part)
    h2 = select_best_h2(core)
    if h2 is not None:
        witness, part = h2
        return color_h2_case(core, witness, part)
    w5 = find_induced(core, "W5")
    if w5 is not None:
        part = c5_partition(core, w5.vertices[:5])
        return color_w5_case(core, part)
    c5 = find_induced(core, "C5")
    if c5 is not None:
        part = c5_partition(core, c5.vertices)
        return color_c5_case(core, part)
    return _fallback_search(core)


def four_color(g: Graph) -> tuple[Coloring, CaseTrace]:
    """Proper coloring with at most four colors for any class member.

    Raises NotInClass (with witness) on inputs containing an induced 2P2 or
    K4; raises InternalCaseFailure only on implementation bugs.
    """
    witness = certify_class(g, ("2P2", "K4"))
    if witness is not None:
        raise NotInClass(witness)
    return _color_member(g)


def _color_member(g: Graph) -> tuple[Coloring, CaseTrace]:
    """four_color past its certification step, for a graph known to be
    (2P2, K4)-free."""
    trace = CaseTrace()
    core, rtrace = reduce_to_core(g)
    col = Coloring((), 0)
    if core.n:
        col, rec = _color_core(core)
        trace.records.append(replace(rec, anchor=tuple(rtrace.core_vertices[v] for v in rec.anchor)))
    full = reinsert_colors(g, col, rtrace)
    bad = verify_coloring(g, full)
    if bad is not None:
        raise InternalCaseFailure("pipeline", "final verification failed", bad)
    if full.k > 4:
        raise InternalCaseFailure("pipeline", f"used {full.k} colors")
    return full, trace
