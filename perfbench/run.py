"""The twoflags benchmark: a closed loop with one caller and no threads.

    python3 perfbench/run.py --workload closed-sweep --seed 1 --seconds 30 --trace 0

Each pass over a workload's inputs runs in a fresh interpreter (worker.py),
so process-wide caches such as the annihilator ``lru_cache`` start empty
every time.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes over the same inputs alternate and
the per-layer metrics are printed, with the tracing overhead.  Every metric
is printed by name and unit, and the last line is one JSON object.  The
exit code is 1 when any answer is wrong, 2 when the benchmark cannot run.
``--workload all`` runs the three workloads one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402

# passes per run at --seconds 30 (other values scale the count): about 20, 45
# and 15 s of work on the 2-core machine that defined the benchmark.
# generic-diff needs three passes, so that the ten samples beyond its tail
# percentile are all deep length-5 towers.
PASSES_AT_30S = {"closed-sweep": 3, "generic-diff": 3, "atlas-emit": 1}
TRACED_PAIR_COST = 2.5  # one untraced plus one traced pass, in untraced passes
TRACE_PASS_INDEX = 1  # traced runs repeat the first seeded draw, so counts repeat exactly
SETUP_PROBES = 5  # set-up only interpreters started before the passes
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(spec: dict, deadline: float) -> dict:
    spec = dict(spec, spawn_t=time.perf_counter())
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} pass did not end within {TIME_LIMIT_S:.0f}s") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    base = {"workload": workload, "seed": seed}
    setups = [spawn(dict(base, pass_index=0, setup_only=True), deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes_wanted = PASSES_AT_30S[workload] * seconds / 30
    if trace:
        pairs = max(1, round(passes_wanted / TRACED_PAIR_COST))
        plan = [(TRACE_PASS_INDEX, traced) for _ in range(pairs) for traced in (False, True)]
    else:
        plan = [(index, False) for index in range(max(1, round(passes_wanted)))]
    passes = []
    for index, traced in plan:
        # a much slower program stops early instead of overrunning the time limit
        if passes and time.perf_counter() - started > 3 * seconds and not traced:
            break
        passes.append(spawn(dict(base, pass_index=index, trace=traced), deadline))
        passes[-1]["traced"] = traced
    setups += [p["setup_s"] for p in passes]
    return {"setups": setups, "passes": passes}


def end_to_end(result: dict) -> tuple[dict, str]:
    passes = result["passes"]
    latencies = [s for p in passes for s in p["latencies_s"]]
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "wall_s": (sum(p["wall_s"] for p in passes), "s"),
        "items_per_s": (sum(p["items"] for p in passes) / sum(p["wall_s"] for p in passes), "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = sum(p["raw_wall_s"] for p in passes)
    note = (f"item_tail_ms is p{tail_pct:.1f} of n={n} latency samples; {len(passes)} passes; "
            f"unscaled wall {raw:.6g} s, host speed factor {metrics['wall_s'][0] / raw:.4f}")
    return metrics, note


def operation_counts(layers: dict) -> tuple:
    return {k: calls for k, (calls, _) in layers["spans"].items()}, layers["counts"], layers["sums"]


def per_layer(result: dict) -> tuple[dict, str]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    layers = [p["layers"] for p in traced]
    first = layers[0]
    if any(operation_counts(lay) != operation_counts(first) for lay in layers):
        raise BenchError("operation counts differ between traced passes over the same inputs")
    metrics = {}
    for layer in LAYERS["spans"]:
        name = layer["name"]
        calls = first["spans"].get(name, [0, 0.0])[0]
        self_s = statistics.median(lay["spans"].get(name, [0, 0.0])[1] for lay in layers)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (1000 * self_s, "ms")
    for layer in LAYERS["counters"]:
        metrics[f"{layer['name']}.calls"] = (first["counts"].get(layer["name"], 0), "count")
    sums = first["sums"]
    metrics["geometry.small_flag.generators_out"] = (sums.get("geometry.small_flag.generators_out", 0), "count")
    metrics["geometry.big_flag.generators_out"] = (sums.get("geometry.big_flag.generators_out", 0), "count")
    metrics["geometry.big_flag.bracket_yield"] = (first["big_flag_bracket_yield"], "ratio")
    hits, misses = traced[0]["annihilator_cache"]
    metrics["geometry.annihilator_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["atlas.emit.bytes"] = (sums.get("atlas.emit.bytes", 0), "bytes")
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    note = f"{len(traced)} traced and {len(untraced)} untraced passes over the same inputs"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*PASSES_AT_30S, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twoflags" / "__init__.py").is_file():
        print(f"error: no twoflags sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(PASSES_AT_30S) if args.workload == "all" else [args.workload]
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            metrics, note = (per_layer if args.trace else end_to_end)(result)
            attempted = sum(p["items"] for p in result["passes"])
            failed = sum(p["failed"] for p in result["passes"])
            for message in (m for p in result["passes"] for m in p["failures"]):
                print(f"{workload} FAIL {message}", file=sys.stderr)
            print(f"{workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
            for name, (value, unit) in metrics.items():
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{workload} {name} = {shown} {unit}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                report["metrics"][key] = {"value": value, "unit": unit}
            print(f"{workload} {note}")
            report["attempted"] += attempted
            report["failed"] += failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["correct"] = report["failed"] == 0
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
