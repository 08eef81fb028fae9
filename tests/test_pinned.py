"""Pinned outputs: SHA-256 digests of what the pipeline and the approximation
return on fixed inputs.

A refactor of the case analysis, the anchor partitions or the generators must
leave every colouring, trace and reduction byte-identical; a digest that moves
names the section whose output changed. The digests were taken from the code
before the anchor strips were given a single definition in `structure`; the
"structure" digest was taken before the strips became vertex bitmasks.
"""

import hashlib
import io
from contextlib import redirect_stdout

from fourcolor import (
    PATTERNS,
    Witness,
    approx_color,
    c5_partition,
    check_c5_properties,
    check_h1_properties,
    check_h2_properties,
    color_c5_case,
    color_h1_case,
    color_h2_case,
    color_w5_case,
    emit_graph6,
    enumerate_class_members,
    find_induced,
    four_color,
    h1_partition,
    reduce_to_core,
    select_best_h1,
    select_best_h2,
)
from fourcolor.cli import main
from fourcolor.errors import InternalCaseFailure
from fourcolor.lab import GeneratorConfig, construction, generate
from test_coloring import c5_with_plants
from test_structure import h1_with_plants

PINNED = {
    "members": "3d5f75ce543921c39d2a4af74161ae415f2e4b22446f25d706046f22cef0914e",
    "cases": "881aa19642e1d8379148cf04d2b47f365bf44489348c1864e738dba1ebbf8952",
    "approx": "741d44a9e6e7c3abd065e80c39a495466d261bcdbe692caf1f21cb3b382ff258",
    "structure": "07774b918aedeedfa6d43816f3c57eee2761890403fb624b25be65d0bddd0657",
}

# Ring-anchor plants driven through color_h1_case on the identity anchor.
H1_DRIVES = [
    ([], ()),
    ([("F", 0), ("F", 3)], ()),
    ([("F", 0), ("F", 3), ("F", 1)], ()),
    ([("F", 0), ("F", 3), ("F", 5)], ()),
    ([("F", 0), ("F", 3), ("F", 5), ("D", 4)], ()),
    ([("F", 0), ("F", 3), ("F", 2)], ()),
    ([("F", 0), ("F", 3), ("F", 4)], ()),
    ([("F", 0), ("F", 3), ("F", 2), ("D", 0)], [(10, 7)]),
    ([("F", 0), ("F", 3), ("F", 2), ("D", 0)], [(10, 9)]),
    ([("F", 1), ("F", 2), ("F", 4)], ()),
    ([("F", 1), ("F", 4), ("D", 4)], [(9, 8)]),
    ([("F", 5), ("F", 2), ("D", 4)], [(9, 7)]),
    ([("F", 5), ("F", 2)], ()),
    ([("F", 5)], ()),
    ([("F", 5), ("F", 2), ("D", 2)], [(9, 8)]),
    ([("F", 5), ("F", 1), ("F", 2)], ()),
    ([("F", 5), ("F", 1), ("F", 4), ("D", 4)], ()),
    ([("F", 5), ("F", 1), ("F", 4)], ()),
    ([("F", 3), ("F", 1), ("F", 2)], ()),
    ([("F", 3), ("F", 5), ("D", 5)], [(9, 8)]),
    ([("F", 3), ("F", 4), ("D", 4)], ()),
    ([("F", 3), ("F", 4)], ()),
    ([("F", 3), ("F", 4), ("F", 1), ("D", 1)], [(10, 9)]),
    ([("F", 0), ("F", 2), ("F", 4)], ()),
    ([("F", 0), ("F", 2), ("F", 4), ("D", 1), ("D", 5)], [(10, 8)]),
    ([("F", 0), ("F", 2)], ()),
    ([("F", 0)], ()),
    ([("F", 0), ("F", 4)], ()),
    ([("F", 0), ("F", 5), ("F", 2), ("F", 4)], ()),
    ([("F", 0), ("F", 5), ("F", 2), ("F", 4), ("D", 1), ("D", 5)], [(11, 9)]),
    ([("F", 0), ("F", 5), ("F", 4)], ()),
    ([("F", 0), ("F", 5), ("D", 4)], ()),
    ([("F", 0), ("F", 5)], ()),
    ([("F", 0), ("F", 5), ("F", 2)], ()),
    ([("D", 3), ("F", 1), ("F", 4)], ()),
    ([("T", 0), ("T", 4)], ()),
    ([("D", 3)], ()),
    ([("W", 0)], ()),
    ([("T", 1)], ()),
    ([("F", 0), ("F", 3), ("T", 1), ("W", 0)], ()),
    ([("F", 1), ("F", 2), ("F", 4), ("T", 2)], ()),
]

# Apex-anchor plants driven through color_h2_case; the apex plant is ("F", 4).
H2_DRIVES = [
    ([("F", 4), ("U", 0)], ()),
    ([("F", 4), ("U", 0), ("Y", 2), ("R", 1)], [(7, 8)]),
    ([("F", 4), ("R", 2)], ()),
    ([("F", 4), ("R", 2)], [(5, 6)]),
    ([("F", 4), ("Z", 0)], [(5, 6)]),
    ([("F", 4), ("R", 4)], [(5, 6)]),
    ([("F", 4), ("R", 4), ("R", 1), ("Y", 2)], [(5, 6), (7, 8), (6, 7)]),
    ([("F", 4), ("Y", 2), ("Z", 0)], [(7, 6), (7, 5)]),
    ([("F", 4), ("Y", 2), ("Y", 3), ("Y", 4), ("Z", 0)], [(9, 6), (9, 7), (9, 8), (5, 9)]),
    # the first four below mirror the cycle before emitting
    ([("F", 4), ("R", 1)], ()),
    ([("F", 4), ("R", 1), ("Z", 0), ("Y", 2)], [(7, 8)]),
    ([("F", 4), ("R", 4), ("R", 1)], [(5, 6)]),
    ([("F", 4), ("R", 4), ("R", 2), ("Y", 1)], [(5, 6), (7, 8)]),
    ([("F", 4), ("R", 4), ("R", 2), ("Y", 1)], [(5, 6)]),
    ([("F", 4), ("R", 4), ("Y", 2), ("Y", 3), ("Y", 4), ("Z", 0)], [(5, 6), (10, 7), (10, 8), (10, 9)]),
]

# Bare-cycle plants driven through color_c5_case on the identity cycle.
C5_DRIVES = [
    ([], ()),
    ([("R", 0), ("Y", 1), ("Z", 0)], [(6, 7)]),
    ([("Y", 0), ("Y", 1), ("Y", 2), ("Y", 3), ("Z", 0)], [(9, 5), (9, 6), (9, 7), (9, 8)]),
]


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _driven(fn, g, *args):
    try:
        col, rec = fn(g, *args)
    except InternalCaseFailure as exc:
        return str(exc), []
    return col, [rec.line()]


def _member_lines():
    for n in range(7):
        for g in enumerate_class_members(n):
            col, trace = four_color(g)
            yield g.rows, col.colors, col.k, trace.lines(), reduce_to_core(g)[1]


def _case_lines():
    for plants, extra in H1_DRIVES:
        g = h1_with_plants(plants, extra)
        yield "h1", plants, _driven(color_h1_case, g, h1_partition(g, tuple(range(7))))
    apex = Witness("H2", (4, 0, 1, 2, 3, 5))
    for plants, extra in H2_DRIVES:
        g = c5_with_plants(plants, extra)
        yield "h2", plants, _driven(color_h2_case, g, apex, c5_partition(g, tuple(range(5))))
    h2 = PATTERNS["H2"].model
    yield "h2", "model", _driven(color_h2_case, h2, *select_best_h2(h2))
    for plants, extra in C5_DRIVES:
        g = c5_with_plants(plants, extra)
        yield "c5", plants, _driven(color_c5_case, g, c5_partition(g, tuple(range(5))))
    for g in (construction("W5"), c5_with_plants([("U", 0), ("R", 0)])):
        yield "w5", g.rows, _driven(color_w5_case, g, c5_partition(g, tuple(range(5))))


def _approx_lines():
    for seed in range(200):
        cfg = GeneratorConfig(
            n=4 + seed % 9, seed=50_000 + seed, p=0.3 + 0.05 * (seed % 6), cls="4p1c4-free"
        )
        g = generate(cfg)
        res = approx_color(g)
        cover = tuple(tuple(sorted(c)) for c in res.cover)
        yield g.rows, res.coloring, cover, res.pairing, res.breakdown


def _report(rep):
    return tuple((c.prop, c.holds, c.counterexample) for c in rep.checks)


def _structure_lines():
    for seed in range(60):
        method = "incremental:H1" if seed % 2 else "incremental:C5"
        cfg = GeneratorConfig(n=9 + seed % 6, seed=70_000 + seed, p=0.25 + 0.05 * (seed % 4), method=method)
        g = generate(cfg)
        w = find_induced(g, "C5")
        if w is not None:
            yield "c5", g.rows, _report(check_c5_properties(g, c5_partition(g, w)))
        best = select_best_h1(g)
        if best is not None:
            yield "h1", g.rows, _report(check_h1_properties(g, best[1]))
        best = select_best_h2(g)
        if best is not None:
            witness, part = best
            yield "h2", g.rows, _report(check_h2_properties(g, part, witness.vertices[5]))
        for anchor in ("c5", "h1"):
            for extra in ([], ["--porcelain"]):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(["partition", "--anchor", anchor, "--in", emit_graph6(g), *extra])
                yield "cli", anchor, extra, code, buf.getvalue()


def test_pinned_member_colourings():
    assert _digest(_member_lines()) == PINNED["members"]


def test_pinned_direct_case_drives():
    assert _digest(_case_lines()) == PINNED["cases"]


def test_pinned_approx_results():
    assert _digest(_approx_lines()) == PINNED["approx"]


def test_pinned_structure_reports_and_partition_output():
    assert _digest(_structure_lines()) == PINNED["structure"]
