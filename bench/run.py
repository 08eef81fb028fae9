"""The benchmark: one workload, one seed, every metric on the last line.

    python3 bench/run.py --workload {blowup,cores,approx,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The corpus for (workload, seed) is built by
bench/gen.py and cached under bench/.cache; it is not part of set-up time.
With --trace 0 the last line holds the end-to-end metrics: set-up is timed
in SETUP_PROBES separate processes, one of which then makes one unchecked
pass to take the peak resident set, and in the measuring process, as the CPU
time from the start of each process to its first timed call; the median is
reported. With --trace 1 one traced process reports the per-layer metrics
and writes its spans to bench/.out. Exits non-zero, printing no result, if
the program cannot be imported, the run does not complete or every call
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("blowup", "cores", "approx", "sweep")
SETUP_PROBES = 6
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
CHILD_TIMEOUT_S = 150
# An input's time is its fastest call: other guests on this shared machine
# slow calls in bursts of milliseconds, and over the hundreds (cores) or
# dozen and more (blowup, approx) calls an input gets in a run, the fastest
# is the steadiest figure. sweep calls each input only about seven times, too
# few for the fastest to be steady, so it takes the median.
PER_INPUT = {"sweep": statistics.median}


def child(args: argparse.Namespace, *extra: str) -> dict:
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.workload in gen.BUILDERS:
        cmd += ["--corpus", gen.cache_path(args.workload, args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace) -> dict:
    """The measuring process's result, its failed checks echoed to stderr."""
    result = child(args)
    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    return result


def tail_percentile(samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it; none
    below forty samples."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return None


def latency_metrics(latencies: list[list[float]], per_input_time) -> tuple[float, float, float]:
    """(graphs per second, median ms, tail ms) over one time per input,
    per_input_time of its calls that did not fail.

    Repeated calls on one input redo the same work, so the percentile rule
    counts inputs, not calls.
    """
    per_input = sorted(per_input_time(ls) for ls in latencies if ls)
    if not per_input:
        raise SystemExit("every call failed")
    per_s = len(per_input) / sum(per_input)
    p50 = statistics.median(per_input) * 1e3
    p = tail_percentile(len(per_input))
    if p is None:
        return per_s, p50, p50
    return per_s, p50, statistics.quantiles(per_input, n=1000, method="inclusive")[round(p * 10) - 1] * 1e3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload in gen.BUILDERS:
        gen.corpus(args.workload, args.seed)

    per_input_time = PER_INPUT.get(args.workload, min)
    if args.trace:
        result = measure(args)
        metrics = {name: {"value": value, "unit": "count" if not name.endswith("_s") else "s"}
                   for name, value in result["per_layer"].items()}
        # Compared with an untraced run's graphs_per_s, this is the tracing overhead.
        print(f"traced graphs_per_s: {latency_metrics(result['latencies'], per_input_time)[0]:.6g}", file=sys.stderr)
    else:
        setups = [child(args, "--probe", "setup")["setup_s"] for _ in range(SETUP_PROBES - 1)]
        rss_probe = child(args, "--probe", "rss")
        result = measure(args)
        setups += [rss_probe["setup_s"], result["setup_s"]]
        per_s, p50, tail = latency_metrics(result["latencies"], per_input_time)
        metrics = {
            "graphs_per_s": {"value": per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_tail_ms": {"value": tail, "unit": "ms"},
            "colors_total": {"value": result["colors_total"], "unit": "count"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_probe["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
