"""Span recording for the traced benchmark run.

`Tracer.wrap` turns a function into one that records a span per call: name,
parent span, start, end and an optional size read from the return value.
`install` wraps every public function of the given modules and rebinds every
alias of it, so a name imported with `from .circuits import run` records spans
too.  Spans stay in memory; `summarize` reduces them to per-name figures when
the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import time

# span fields: [name, parent index or -1, start, end, size or None]
NAME, PARENT, START, END, SIZE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """`fn` recording one span per call; `size(result)` fills the span's size."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                try:
                    span[SIZE] = size(result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the return value changed shape; the span keeps no size
            return result

        return traced


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, p50/p90 call time, sizes, parents."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        entry = out.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size_sum": 0, "size_max": 0, "by_parent": {}},
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_s
        if span[SIZE] is not None:
            entry["size_sum"] += span[SIZE]
            entry["size_max"] = max(entry["size_max"], span[SIZE])
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        entry["by_parent"][parent] = entry["by_parent"].get(parent, 0) + 1
        durations.setdefault(name, []).append(duration)
    for name, values in durations.items():
        values.sort()
        out[name]["p50_ms"] = 1e3 * _percentile(values, 0.5)
        out[name]["p90_ms"] = 1e3 * _percentile(values, 0.9)
    return out


def public_functions(module):
    """(name, function) for each public function defined in the module itself."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield name, obj


def install(tracer: Tracer, modules, sizes=None) -> list:
    """Wrap every public function of `modules`; rebind every alias in their namespaces.

    A span is named "<last part of the module name>.<function name>".  Module
    attributes and the values of module-level dicts are rebound.  Returns the
    original functions, for `stale_aliases`.
    """
    sizes = sizes or {}
    originals = []
    wrappers = {}  # id of an original -> its wrapper; `originals` keeps the ids valid
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, fn in public_functions(module):
            originals.append(fn)
            label = f"{short}.{name}"
            wrappers[id(fn)] = tracer.wrap(label, fn, sizes.get(label))
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in wrappers:
                namespace[key] = wrappers[id(value)]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in wrappers:
                        value[k] = wrappers[id(v)]
    return originals


def stale_aliases(modules, originals) -> list[str]:
    """Module attributes, or entries of module-level containers, still bound to an original."""
    ids = {id(fn) for fn in originals}
    stale = []
    for module in modules:
        for key, value in vars(module).items():
            if id(value) in ids:
                stale.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict):
                stale.extend(f"{module.__name__}.{key}[{k!r}]" for k, v in value.items() if id(v) in ids)
            elif isinstance(value, (list, tuple, set, frozenset)):
                stale.extend(f"{module.__name__}.{key}[...]" for v in value if id(v) in ids)
    return stale
