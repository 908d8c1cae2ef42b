"""Span tracing across moilab's module boundaries, installed from outside
the package.

`install` replaces, in each importing module's namespace, every moilab
function that module imports from another moilab module by a wrapper that
records one span: (name, start, end, parent). A span is therefore one call
across a module boundary; recursion inside a module is not split. The
functions in FUNCTION_SPANS are also wrapped in their own module, so calls
from inside that module (such as `eval_moi` dispatching to
`eval_haagerup_like`) are spans too. `FiniteSpectralMeasure.projection_stack`
is wrapped on the class.

Self time of a span is its duration minus the durations of its child spans.
The spans of one traced pass partition the root span, so the module self
times sum to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from math import prod
from time import perf_counter

MODULES = (
    "cli",
    "serialize",
    "randominst",
    "sharpness",
    "bounds",
    "evaluate",
    "integrands",
    "spectral",
    "linalg",
)

# function-level spans, recorded on every call, also from their own module
FUNCTION_SPANS = (
    "evaluate.eval_haagerup",
    "evaluate.eval_haagerup_like",
    "evaluate.eval_oracle",
    "serialize.instance_from_json",
    "spectral.from_hermitian",
    "linalg.schatten_norm",
    "integrands.eval_pointwise",
)


# the function-level self times and call counts reported
FUNCTION_METRICS = (
    "evaluate.eval_haagerup.self_s",
    "evaluate.eval_haagerup.calls",
    "evaluate.eval_haagerup_like.self_s",
    "evaluate.eval_oracle.self_s",
    "serialize.instance_from_json.self_s",
    "spectral.from_hermitian.self_s",
    "spectral.projection_stack.calls",
    "integrands.eval_pointwise.calls",
    "linalg.schatten_norm.self_s",
    "linalg.schatten_norm.calls",
)


def _oracle_tuples(inst, *args, **kwargs) -> int:
    return prod(e.n_atoms for e in inst.measures)


def _stack_bytes(measure, *args, **kwargs) -> int:
    return measure.n_atoms * measure.dim * measure.dim * 16


# computed counts: span name -> (counter name, count from the call's arguments)
COUNTS = {
    "evaluate.eval_oracle": ("evaluate.eval_oracle.tuples", _oracle_tuples),
    "spectral.projection_stack": ("spectral.projection_stack.bytes", _stack_bytes),
}


class Tracer:
    """Spans of one traced pass, kept in memory: [name, start, end, parent]
    with parent the index of the enclosing span, or -1 for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        counter = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """Per-module and function-level self times and counts."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for module in MODULES:
            names = [n for n in calls if n.split(".", 1)[0] == module]
            out[f"{module}.self_s"] = sum(self_s[n] for n in names)
            out[f"{module}.calls"] = sum(calls[n] for n in names)
        for metric in FUNCTION_METRICS:
            name, kind = metric.rsplit(".", 1)
            out[metric] = self_s[name] if kind == "self_s" else calls[name]
        for counter, _ in COUNTS.values():
            out[counter] = self.counts[counter]
        return out

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
        }


def install(tracer: Tracer) -> list[tuple]:
    """Wrap moilab's cross-module calls; returns the patches for `uninstall`."""
    modules = {m: importlib.import_module(f"moilab.{m}") for m in MODULES}
    patches = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and owner.startswith("moilab.")
                and owner != module.__name__
            ):
                name = f"{owner.split('.', 1)[1]}.{obj.__name__}"
                patches.append((module, attr, obj))
                setattr(module, attr, tracer.wrap(name, obj))
    for name in FUNCTION_SPANS:
        layer, attr = name.split(".")
        module = modules[layer]
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original))
    # the root span of each command
    patches.append((modules["cli"], "main", modules["cli"].main))
    modules["cli"].main = tracer.wrap("cli.main", modules["cli"].main)
    cls = modules["spectral"].FiniteSpectralMeasure
    patches.append((cls, "projection_stack", cls.projection_stack))
    cls.projection_stack = tracer.wrap("spectral.projection_stack", cls.projection_stack)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
