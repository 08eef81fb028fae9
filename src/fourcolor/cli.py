"""Command-line front end: one verb per pipeline stage.

Exit codes: 0 success, 1 class or validation failure (witness printed),
2 usage or input-format error, 3 internal case failure, 141 stdout closed by
its reader (128 + SIGPIPE, as a shell reports a command killed by the pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import suite
from .approx import approx_color
from .coloring import Coloring, four_color, verify_coloring
from .errors import (
    ChordalityViolation,
    GenerationError,
    GraphFormatError,
    InternalCaseFailure,
    NotInClass,
    ReinsertionConflict,
    SizeGuardExceeded,
    UnclassifiableVertex,
)
from .graph import Graph, bits, emit_graph6, parse_edge_list, parse_graph6
from .lab import GeneratorConfig, exact_chromatic, generate, manifest_line, normalize_class
from .patterns import PATTERNS, certify_class, find_induced
from .structure import (
    c5_partition,
    check_c5_properties,
    check_h1_properties,
    mask_of,
    select_best_h1,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def _load_graph(spec: str) -> Graph:
    """Read a graph from a file path or an inline graph6 token."""
    path = Path(spec)
    try:
        is_file = path.exists()
    except OSError:  # e.g. a long inline token is too long for a file name
        is_file = False
    text = _read_text(path) if is_file else spec
    stripped = text.strip()
    if not stripped:
        raise GraphFormatError("empty graph input")
    first = stripped.splitlines()[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        return parse_edge_list(stripped)
    return parse_graph6(stripped.split()[0])


def _load_assignment(path: str, n: int) -> Coloring:
    rows = {}
    for line in _read_text(Path(path)).splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad assignment line {line!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad assignment line {line!r}") from exc
        if v in rows:
            raise GraphFormatError(f"vertex {v} is assigned twice")
        if c < 1:
            raise GraphFormatError(f"vertex {v} has color {c}; colors start at 1")
        rows[v] = c
    if sorted(rows) != list(range(n)):
        raise GraphFormatError(f"assignment does not cover vertices 0..{n - 1}")
    colors = tuple(rows[v] for v in range(n))
    return Coloring(colors, max(colors, default=0))


def _fmt_witness(w) -> str:
    return " ".join(map(str, w.vertices))


def _cmd_color(args, out) -> int:
    g = _load_graph(args.input)
    coloring, trace = four_color(g)
    if args.porcelain:
        print(f"k={coloring.k}", file=out)
        for v, c in enumerate(coloring.colors):
            print(f"vertex={v} color={c}", file=out)
    else:
        print(f"k={coloring.k}", file=out)
        for v, c in enumerate(coloring.colors):
            print(f"{v} {c}", file=out)
    if args.trace:
        for line in trace.lines():
            print(line, file=out)
    return EXIT_OK


def _cmd_approx(args, out) -> int:
    g = _load_graph(args.input)
    res = approx_color(g)
    a, b = res.breakdown
    pairing = "|".join(",".join(map(str, pair)) for pair in res.pairing)
    if args.porcelain:
        print(f"k={res.coloring.k} left={a} right={b} pairing={pairing}", file=out)
        for i, clique in enumerate(res.cover, start=1):
            members = ",".join(map(str, sorted(clique)))
            print(f"clique={i} members={members}", file=out)
        for v, c in enumerate(res.coloring.colors):
            print(f"vertex={v} color={c}", file=out)
    else:
        print(f"k={res.coloring.k} ({a}+{b} over pairing {pairing})", file=out)
        for i, clique in enumerate(res.cover, start=1):
            print(f"clique {i}: {' '.join(map(str, sorted(clique)))}", file=out)
        for v, c in enumerate(res.coloring.colors):
            print(f"{v} {c}", file=out)
    return EXIT_OK


def _cmd_detect(args, out) -> int:
    g = _load_graph(args.input)
    w = find_induced(g, args.pattern)
    if args.porcelain:
        if w is None:
            print(f"pattern={args.pattern.upper()} found=false", file=out)
        else:
            verts = ",".join(map(str, w.vertices))
            print(f"pattern={args.pattern.upper()} found=true witness={verts}", file=out)
    else:
        print(_fmt_witness(w) if w is not None else "absent", file=out)
    return EXIT_OK


def _print_report(report, out, porcelain: bool) -> None:
    for check in report.checks:
        if porcelain:
            extra = ""
            if check.counterexample:
                extra = " witness=" + ",".join(map(str, check.counterexample))
            print(f"property={check.prop} holds={str(check.holds).lower()}{extra}", file=out)
        else:
            status = "ok" if check.holds else f"FAIL {check.counterexample}"
            print(f"property {check.prop}: {status}", file=out)


def _cmd_partition(args, out) -> int:
    g = _load_graph(args.input)
    w = certify_class(g, ("2P2", "K4"))
    if w is not None:
        raise NotInClass(w)
    porcelain = args.porcelain

    def emit_set(name, mask):
        verts = [str(v) for v in bits(mask)]
        line = f"set={name} members={','.join(verts)}" if porcelain else f"{name}: {' '.join(verts)}"
        print(line, file=out)

    if args.anchor == "c5":
        w = find_induced(g, "C5")
        if w is None:
            print("no five-cycle anchor", file=out)
            return EXIT_INVALID
        part = c5_partition(g, w)
        emit_set("cycle", mask_of(part.cycle))
        emit_set("Z", part.Z)
        for i in range(5):
            emit_set(f"R{i + 1}", part.R[i])
        for i in range(5):
            emit_set(f"Y{i + 1}", part.Y[i])
        for i in range(5):
            emit_set(f"F{i + 1}", part.F[i])
        emit_set("U", part.U)
        _print_report(check_c5_properties(g, part), out, porcelain)
        return EXIT_OK
    best = select_best_h1(g)
    if best is None:
        print("no ring anchor", file=out)
        return EXIT_INVALID
    _, part = best
    emit_set("anchor", mask_of(part.anchor))
    emit_set("Z", part.Z)
    for i in range(6):
        emit_set(f"D{i + 1}{(i + 1) % 6 + 1}", part.D[i])
    for i in range(6):
        emit_set(f"T{i + 1}", part.T[i])
    for i in range(6):
        emit_set(f"F{i + 1}{(i + 1) % 6 + 1}", part.F[i])
    emit_set("W", part.W)
    _print_report(check_h1_properties(g, part), out, porcelain)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    g = _load_graph(args.input)
    coloring = _load_assignment(args.assignment, g.n)
    bad = verify_coloring(g, coloring)
    if args.porcelain:
        if bad is None:
            print("ok=true", file=out)
        else:
            print(f"ok=false edge={bad[0]},{bad[1]}", file=out)
    else:
        print("ok" if bad is None else f"violating edge {bad[0]} {bad[1]}", file=out)
    return EXIT_OK if bad is None else EXIT_INVALID


def _cmd_oracle(args, out) -> int:
    g = _load_graph(args.input)
    chi, coloring = exact_chromatic(g, limit=args.limit)
    print(f"chi={chi}", file=out)
    for v, c in enumerate(coloring.colors):
        print(f"vertex={v} color={c}" if args.porcelain else f"{v} {c}", file=out)
    return EXIT_OK


def _cmd_generate(args, out) -> int:
    cfg = GeneratorConfig(
        n=args.n, seed=args.seed, p=args.p, cls=args.cls, method=args.method
    )
    for i in range(args.count):
        one = replace(cfg, seed=cfg.seed + i)
        g = generate(one)
        if args.porcelain:
            print(
                f"seed={one.seed} n={one.n} class={normalize_class(one.cls)} graph6={emit_graph6(g)}",
                file=out,
            )
        elif args.count > 1:
            print(manifest_line(one, g), file=out)
        else:
            print(emit_graph6(g), file=out)
    return EXIT_OK


def _cmd_suite(args, out) -> int:
    results = suite.run(only=args.only, out=out, porcelain=args.porcelain)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourcolor",
        description="Constructive 4-coloring and related machinery for hereditary graph classes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_input(p):
        p.add_argument("--in", dest="input", required=True, help="graph file or inline graph6")

    def add_porcelain(p):
        p.add_argument("--porcelain", action="store_true", help="stable key=value output")

    p = sub.add_parser("color", help="4-color a graph without induced 2P2 or K4")
    add_input(p)
    p.add_argument("--trace", action="store_true", help="print the case trace")
    add_porcelain(p)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("approx", help="2-approximate coloring for (4P1,C4)-free graphs")
    add_input(p)
    add_porcelain(p)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("detect", help="find an induced pattern occurrence")
    add_input(p)
    p.add_argument("--pattern", required=True, choices=sorted(PATTERNS), type=str.upper)
    add_porcelain(p)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("partition", help="anchor decomposition plus property report")
    add_input(p)
    p.add_argument("--anchor", choices=("c5", "h1"), default="c5")
    add_porcelain(p)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("verify", help="check a coloring assignment file")
    add_input(p)
    p.add_argument("--assignment", required=True, help="file of 'vertex color' lines")
    add_porcelain(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exact chromatic number (guarded)")
    add_input(p)
    p.add_argument("--limit", type=int, default=24, help="vertex-count guard override")
    add_porcelain(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("generate", help="seeded instance generation")
    p.add_argument("--class", dest="cls", default="2p2k4-free")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", default="auto")
    p.add_argument("--count", type=int, default=1)
    add_porcelain(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    ids = [c for c, _, _ in suite.CRITERIA]
    p.add_argument("--only", nargs="*", choices=ids, help="criterion ids to run (default: all)")
    add_porcelain(p)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        code = args.fn(args, out)
        out.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Buffered output is flushed again at exit; send it to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_BROKEN_PIPE
    except (NotInClass, UnclassifiableVertex) as exc:
        print(f"not in class: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (GraphFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SizeGuardExceeded, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InternalCaseFailure, ChordalityViolation, ReinsertionConflict) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())
