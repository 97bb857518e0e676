"""Spans and counters wrapped around the public functions of twoflags.

The wrappers are installed from outside the package: every twoflags module
namespace and class dictionary that holds the original function object gets
the wrapper, so names imported with ``from .geometry import ...`` and
module-global calls such as ``EkrBuild.prefix_build -> build_ekr`` are both
traced.  Spans live in memory as parallel lists (name, parent, start, end);
self time is computed from them after the pass.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())

BIG_FLAG = "geometry.big_flag"
LIE_BRACKET = "geometry.lie_bracket"

# extra per-call measurements: (args, result) -> int, summed per span name
MEASURES = {
    "geometry.small_flag": {"generators_out": lambda args, res: len(res[-1].generators)},
    BIG_FLAG: {
        "generators_out": lambda args, res: len(res[-1].generators),
        "generators_in": lambda args, res: len(args[0].generators),
    },
    "atlas.emit": {"bytes": lambda args, res: len(res.encode())},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)

    def span(self, name, fn):
        measures = MEASURES.get(name, {})

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.starts)
            self.names.append(name)
            self.parents.append(self.stack[-1])
            self.ends.append(0.0)
            self.stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self.stack.pop()
            for key, measure in measures.items():
                self.sums[f"{name}.{key}"] += measure(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Count calls of a two-argument method; the Poly kernel runs it ~10^6 times a pass."""
        counts = self.counts

        def wrapper(a, b):
            if self.active:
                counts[name] += 1
            return fn(a, b)

        return wrapper

    def summary(self) -> dict:
        """Calls and self seconds per span name, counter totals and derived ratios."""
        n = len(self.starts)
        child = [0.0] * n
        owner = [-1] * n  # nearest enclosing big_flag span
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        brackets_in_big_flag = 0
        for i in range(n):  # parents precede children: ids are given on entry
            parent = self.parents[i]
            owner[i] = i if self.names[i] == BIG_FLAG else (owner[parent] if parent >= 0 else -1)
            if self.names[i] == LIE_BRACKET and owner[i] >= 0:
                brackets_in_big_flag += 1
        for i in range(n - 1, -1, -1):  # children are summed before their parents are read
            duration = self.ends[i] - self.starts[i]
            if self.parents[i] >= 0:
                child[self.parents[i]] += duration
            calls[self.names[i]] += 1
            self_s[self.names[i]] += duration - child[i]
        new_generators = self.sums[f"{BIG_FLAG}.generators_out"] - self.sums[f"{BIG_FLAG}.generators_in"]
        return {
            "spans": {name: [calls[name], self_s[name]] for name in calls},
            "counts": dict(self.counts),
            "sums": dict(self.sums),
            "big_flag_bracket_yield": new_generators / brackets_in_big_flag if brackets_in_big_flag else 0.0,
        }


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every twoflags module global and class attribute that is ``original``."""
    replaced = 0
    modules = [m for name, m in sys.modules.items() if name == "twoflags" or name.startswith("twoflags.")]
    for module in modules:
        namespaces = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap every span and counter target listed in layers.json."""
    for kind, make in (("spans", tracer.span), ("counters", tracer.counter)):
        for layer in LAYERS[kind]:
            for target in layer["targets"]:
                original = _resolve(target)
                if not _replace_everywhere(original, make(layer["name"], original)):
                    raise RuntimeError(f"no namespace holds {target}")
