"""One benchmark process: set up, run the closed loop, check every output.

run.py starts it and reads the one JSON line it prints. With --probe setup
it stops once the inputs are loaded and prints only its set-up time. With
--probe rss it then makes one unchecked pass over the inputs and prints its
peak resident set as well, so that figure holds the interpreter, fourcolor,
the inputs and the calls, but not the checks, networkx or the latency lists.

Set-up is importing fourcolor and loading the inputs through its graph6
parser (for sweep: enumerating the class members with fourcolor.lab). The
timed loop then calls four_color (approx_color on approx) on every input in
turn, in one thread, each call starting when the previous one returned, in
whole passes over the corpus until the calls have taken --seconds in total.
Each output is checked right after its call, outside the timed region.

A call's latency is the CPU time of the calling thread. The calls do no I/O
and start no threads, so that is their wall time less the stretches in which
the hypervisor ran another guest on this CPU (steal time), which here reach
several times the call itself.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_MAX_N = 6


def load(fourcolor, corpus: str | None, seed: int):
    """The program's input graphs and, except for sweep, the corpus records."""
    if corpus is None:
        graphs = [g for n in range(1, SWEEP_MAX_N + 1) for g in fourcolor.lab.enumerate_class_members(n)]
        random.Random(f"sweep:{seed}").shuffle(graphs)
        return graphs, None
    with open(corpus) as f:
        records = json.load(f)
    return [fourcolor.graph.parse_graph6(r["g6"]) for r in records], records


def peak_rss_mb() -> float:
    """This process image's peak resident set (VmHWM). Unlike ru_maxrss, it
    starts afresh at exec, so it leaves out the parent run.py and the
    networkx it imports."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--corpus", help="corpus file from gen.py; absent for sweep")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", choices=("setup", "rss"))
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import fourcolor
    import fourcolor.graph
    import fourcolor.lab

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install(fourcolor)
    inputs, records = load(fourcolor, args.corpus, args.seed)
    setup_s = time.process_time()  # CPU time since the process started
    approx = args.workload == "approx"
    call = fourcolor.approx_color if approx else fourcolor.four_color
    if args.probe:
        probe = {"setup_s": setup_s}
        if args.probe == "rss":
            for g in inputs:
                try:
                    call(g)
                except Exception:  # the measuring process counts failures
                    pass
            probe["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(probe))
        return

    import checks
    import graphs as G

    sweep_error = None
    if records is None:
        # Sweep inputs come from the program; check the set, then take facts
        # for each input from the benchmark's own oracles.
        own = [list(g.rows) for g in inputs]
        sweep_error = sweep_check(own, checks, G)
        records = [{"label": f"sweep n={len(r)}", "chi": G.chromatic_number(r)} for r in own]
    else:
        own = [G.from_graph6(r["g6"]) for r in records]

    loop_start = len(recorder.start) if recorder else 0
    result = closed_loop(call, inputs, own, records, approx, args.seconds, checks)
    if sweep_error:
        result["errors"].append(sweep_error)
        result["correct"] = False
    result["setup_s"] = setup_s
    if recorder is not None:
        result["per_layer"] = recorder.metrics(loop_start, result["attempted"])
        recorder.write(os.path.join(HERE, ".out", f"spans-{args.workload}"),
                       {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))


def closed_loop(call, inputs, own, records, approx: bool, seconds: float, checks) -> dict:
    """Call `call` on every input in turn, in whole passes, until the calls
    have taken `seconds` of wall time; check each output after its call.

    A call fails if it raises or its output fails a check. A failed call
    makes the run incorrect and is left out of the latencies and colour
    counts, so a program that fails fast cannot look faster or better.
    """
    latencies: list[list[float]] = [[] for _ in inputs]
    colors_used = [0] * len(inputs)
    errors: list[str] = []
    attempted = failed = 0
    spent = 0.0
    while spent < seconds:
        for i, g in enumerate(inputs):
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                out = call(g)
            except Exception as exc:
                out = exc
            cpu = time.thread_time() - c0
            spent += time.perf_counter() - t0
            attempted += 1
            bad = check(checks, out, own[i], records[i]["chi"], approx)
            if bad:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"input {i} ({records[i]['label']}): {bad}")
                continue
            latencies[i].append(cpu)
            colors_used[i] = len(set((out.coloring if approx else out[0]).colors))
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0,
        "latencies": latencies,
        "colors_total": sum(colors_used),
    }


def check(checks, out, rows: list[int], chi: int, approx: bool) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    if approx:
        col = out.coloring
        return checks.approx_coloring(rows, col.colors, col.k, out.cover, out.pairing, chi)
    col = out[0]
    return checks.four_coloring(rows, col.colors, col.k, chi)


def sweep_check(own: list[list[int]], checks, G) -> str | None:
    """The enumerated members, n by n, must be exactly the brute-force set."""
    by_n: dict[int, list[str]] = {}
    for rows in own:
        by_n.setdefault(len(rows), []).append(G.to_graph6(rows))
    for n in range(1, SWEEP_MAX_N + 1):
        got, want = by_n.get(n, []), checks.labelled_members(n)
        if len(got) != len(want) or set(got) != want:
            return f"sweep n={n}: lab gives {len(got)} members, brute force {len(want)}"
    return None


if __name__ == "__main__":
    main()
