"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts it as ``python3 worker.py '<json spec>'`` and reads one JSON
line from its standard output.  The spec holds the workload, the seed, the
pass index (which picks the inputs), the parent's ``perf_counter()`` at
spawn time, and whether to trace.  ``setup_only`` stops after set-up;
``limit`` keeps only the first inputs (used by the tests).

The worker makes its inputs itself, calls only public twoflags functions
(it also reads the annihilator cache's statistics), and checks every answer
against a reference that does not come from the code under test.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CLOSED_LENGTH = 6
GENERIC_LENGTH = 4
DEEP_WORDS = ("1.2.2.3.3", "1.2.3.2.3", "1.2.3.3.2", "1.2.3.3.3")
ATLAS_LENGTH = 12
EMITTERS = {"jsonl": "atlas_jsonl", "csv": "atlas_csv", "dot": "adjacency_dot"}
# the reference loop's time on the 2-core machine that defined the benchmark;
# reported times are scaled to it (see timed_steps)
REFERENCE_S = 0.009
SEGMENT_S = 0.25
# sha256 of the length-12 emitter outputs at the commit that defined this benchmark
ATLAS_DIGESTS = {
    "jsonl": "8f2bfcd3ecd69a4a0d12d33069ef109265b9f1b8e929adf177101bb19097e9b3",
    "csv": "274735ca70032353104f124449778827c21d53e8dc2c89ce37d88974576d1f43",
    "dot": "1f5b55f4eee9bf6d104926abace0707383f02602390e9c2a1c235cce684fc3ad",
}


def words(r: int) -> list[str]:
    """Words over {1,2,3} starting with 1 whose letters never jump up by more than one."""
    out = []
    for tail in itertools.product((1, 2, 3), repeat=r - 1):
        letters = (1,) + tail
        if all(b <= max(letters[:i + 1]) + 1 for i, b in enumerate(letters[1:])):
            out.append(".".join(map(str, letters)))
    return out


def draw(rng: random.Random) -> Fraction:
    """A nonzero p/q with 1 <= |p|, q <= 10."""
    return Fraction(rng.randint(1, 10) * rng.choice((1, -1)), rng.randint(1, 10))


def draw_constants(word: str, rng: random.Random) -> tuple[dict, dict]:
    """Nonzero b at letters 1 and nonzero c at letters 1 and 2, keyed by step."""
    b, c = {}, {}
    for step, letter in enumerate(word.split("."), start=1):
        if letter == "1":
            b[step] = draw(rng)
        if letter in "12":
            c[step] = draw(rng)
    return b, c


def make_inputs(workload: str, seed: int, pass_index: int) -> list:
    """The inputs of one pass; the same (workload, seed, pass_index) gives the same list.

    A classification input is (word, b, c, point), where point None is the origin.
    """
    if workload == "closed-sweep":
        rng = random.Random(f"{seed}|closed|{pass_index}")
        if pass_index == 0:
            return [(w, {}, {}, None) for w in words(CLOSED_LENGTH)]
        return [(w, *draw_constants(w, rng), None) for w in words(CLOSED_LENGTH)]
    if workload == "generic-diff":
        rng = random.Random(f"{seed}|generic|{pass_index}")
        dim = 2 * GENERIC_LENGTH + 3
        items = []
        for w in words(GENERIC_LENGTH):
            b, c = draw_constants(w, rng)
            point = tuple(draw(rng) for _ in range(dim))
            items += [(w, b, c, None), (w, b, c, point)]
        return items + [(w, {}, {}, None) for w in DEEP_WORDS]
    if workload == "atlas-emit":
        return [ATLAS_LENGTH]
    raise ValueError(f"unknown workload {workload!r}")


def _classify(tf, item, generic: bool) -> str:
    word, b, c, point = item
    build = tf.build_ekr(tf.EkrSpec(tf.Word.parse(word), b, c))
    return str(tf.singularity_class_at(build, point or build.chart.origin(), generic=generic).word)


def _attempt(step):
    try:
        return step()
    except Exception as exc:  # a raised answer is a failed item, reported by run.py
        return f"raised {exc!r}"


def reference_seconds() -> float:
    """Time of a fixed Fraction loop that does not touch twoflags: the host's current speed."""
    gc.disable()  # a full collection of a large heap (atlas records) is not host speed
    try:
        started = time.perf_counter()
        acc = {}
        for i in range(1, 1000):
            key = (i % 7, i % 11)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 13 + 1) * Fraction(i % 5 + 1, i % 3 + 2)
        return time.perf_counter() - started
    finally:
        gc.enable()


def timed_steps(steps, tracer, before: float) -> tuple[list, list, list]:
    """Run each step once: (results, seconds, seconds scaled to the reference host speed).

    A reference loop runs after every SEGMENT_S of step time (``before`` is
    the one that ran ahead of the first step).  The steps of a segment are
    scaled by REFERENCE_S over the mean of the two loops around them, which
    takes out the host's changes of speed between and within runs.
    """
    results, raw, scaled, segment = [], [], [], []
    for i, step in enumerate(steps):
        if tracer:
            tracer.active = True
        t = time.perf_counter()
        results.append(_attempt(step))
        segment.append(time.perf_counter() - t)
        if tracer:
            tracer.active = False
        if sum(segment) >= SEGMENT_S or i == len(steps) - 1:
            after = reference_seconds()
            factor = 2 * REFERENCE_S / (before + after)
            raw += segment
            scaled += [seconds * factor for seconds in segment]
            before, segment = after, []
    return results, raw, scaled


def run_classify(tf, items, generic: bool, tracer, before: float) -> dict:
    steps = [functools.partial(_classify, tf, item, generic) for item in items]
    answers, raw, scaled = timed_steps(steps, tracer, before)
    failures = []
    for item, answer in zip(items, answers):
        # closed route: the input word; generic route: the closed route at the same point
        expected = _attempt(functools.partial(_classify, tf, item, False)) if generic else item[0]
        if answer != expected or answer.startswith("raised"):
            failures.append(f"{item[0]} at {item[3] or 'origin'}: got {answer}, expected {expected}")
    return {"wall_s": sum(scaled), "raw_wall_s": sum(raw), "latencies_s": scaled,
            "items": len(items), "failed": len(failures), "failures": failures[:5]}


def run_atlas(tf, items, tracer, before: float) -> dict:
    (length,) = items
    expected = (3 ** (length - 1) + 1) // 2
    built = []
    steps = [lambda: built.append(tf.atlas.build_atlas(length))]
    steps += [lambda name=name: getattr(tf.atlas, name)(built[0]) for name in EMITTERS.values()]
    results, raw, scaled = timed_steps(steps, tracer, before)
    records = built[0] if built else []
    bad = [f"{r.word}: codimension {r.codimension}, {len(r.locus)} locus equations"
           for r in records if r.codimension != len(r.locus)]
    whole = []  # a wrong count or a changed output fails every record of the pass
    if len(records) != expected:
        whole.append(f"{len(records)} records, expected {expected}")
    for fmt, text in zip(EMITTERS, results[1:]):
        if hashlib.sha256(str(text).encode()).hexdigest() != ATLAS_DIGESTS[fmt]:
            whole.append(f"{fmt} output differs from the recorded digest")
    wall = sum(scaled)
    # records come out of one bulk call, so the per-record latency is amortized
    return {"wall_s": wall, "raw_wall_s": sum(raw), "latencies_s": [wall / expected],
            "items": expected, "failed": expected if whole else len(bad), "failures": (whole + bad)[:5]}


def main(spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import twoflags as tf

    if not Path(tf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"twoflags imported from {tf.__file__}, not from {SRC}")
    items = make_inputs(spec["workload"], spec["seed"], spec["pass_index"])[: spec.get("limit")]
    setup_s = time.perf_counter() - spec["spawn_t"]
    before = reference_seconds()
    setup_s *= REFERENCE_S / before
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    if spec["workload"] == "atlas-emit":
        out = run_atlas(tf, items, tracer, before)
    else:
        out = run_classify(tf, items, spec["workload"] == "generic-diff", tracer, before)
    cache = tf.geometry._structural_annihilator.cache_info()
    out.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        inputs=hashlib.sha256(repr(items).encode()).hexdigest(),
        annihilator_cache=[cache.hits, cache.misses],
    )
    if tracer:
        out["layers"] = tracer.summary()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
