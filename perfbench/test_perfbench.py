"""Checks of the benchmark itself: metric names, the layer map, repeatable counts.

    python3 -m pytest perfbench -q

Each test starts fresh worker interpreters, as the benchmark does; the
whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = list(run.PASSES_AT_30S)


def traced_pass(workload, seed, limit=None):
    spec = {"workload": workload, "seed": seed, "pass_index": run.TRACE_PASS_INDEX,
            "trace": True, "limit": limit}
    out = run.spawn(spec, time.perf_counter() + 120)
    assert out["failed"] == 0, out["failures"]
    return out


def operation_counts(out):
    return run.operation_counts(out["layers"]), out["annihilator_cache"]


def test_benchmark_json_names_every_printed_metric():
    untraced = {"wall_s": 1.0, "raw_wall_s": 1.0, "items": 2, "latencies_s": [0.5, 0.5], "peak_rss_mb": 20.0,
                "annihilator_cache": [0, 0], "traced": False}
    traced = dict(untraced, traced=True, layers={"spans": {}, "counts": {}, "sums": {}, "big_flag_bracket_yield": 0.0})
    e2e, _ = run.end_to_end({"setups": [0.1], "passes": [untraced]})
    layer, _ = run.per_layer({"setups": [0.1], "passes": [untraced, traced]})
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(64)]) == (53.0, 100 * 54 / 64, 64)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_wrappers_replace_every_binding_of_the_originals():
    sys.path.insert(0, str(HERE.parent / "src"))
    import twoflags
    from tracer import Tracer, _resolve, install

    originals = {t: _resolve(t) for layer in LAYERS["spans"] + LAYERS["counters"] for t in layer["targets"]}
    tracer = Tracer()
    install(tracer)
    modules = [m for name, m in sys.modules.items() if name.startswith("twoflags")]
    for target, original in originals.items():
        assert _resolve(target) is not original, target
        assert all(value is not original for m in modules for value in vars(m).values()), target
    tracer.active = True
    build = twoflags.build_ekr(twoflags.EkrSpec(twoflags.Word.parse("1.2.1")))
    build.prefix_build(2)  # calls the module-global build_ekr
    tracer.active = False
    assert tracer.summary()["spans"]["ekr.build_ekr"][0] == 2


# the generic-diff prefix holds every length-4 input, at the origin and at a random point
LIMITS = {"closed-sweep": None, "generic-diff": 28, "atlas-emit": None}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_layer_is_called_where_the_map_says_and_nowhere_else(workload):
    spans, counts, _ = run.operation_counts(traced_pass(workload, seed=3, limit=LIMITS[workload])["layers"])
    seen = {**spans, **counts}
    for layer in LAYERS["spans"] + LAYERS["counters"]:
        if workload in layer["called_on"]:
            assert seen.get(layer["name"], 0) > 0, layer["name"]
        if workload in layer["zero_on"]:
            assert seen.get(layer["name"], 0) == 0, layer["name"]


@pytest.mark.parametrize("workload, limit", [("closed-sweep", 40), ("generic-diff", 10)])
def test_counts_repeat_for_a_seed_and_inputs_follow_the_seed(workload, limit):
    first = traced_pass(workload, seed=7, limit=limit)
    again = traced_pass(workload, seed=7, limit=limit)
    other = traced_pass(workload, seed=8, limit=limit)
    assert first["inputs"] == again["inputs"]
    assert operation_counts(first) == operation_counts(again)
    assert other["inputs"] != first["inputs"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
