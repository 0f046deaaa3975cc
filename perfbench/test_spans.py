"""Span bookkeeping on synthetic nested calls, with a clock that ticks by hand.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
import types

import spans


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def nested_tracer():
    """outer spends 1 s, then calls inner twice (each 2 s self + leaf 3 s), then 4 s."""
    clock = Clock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.advance(3.0)
        return [1, 2, 3]

    def inner():
        clock.advance(2.0)
        return leaf()

    def outer():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(4.0)

    leaf = tracer.wrap("m.leaf", leaf, size=len)
    inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", outer)
    outer()
    return tracer


def test_parent_links_follow_the_call_tree():
    tracer = nested_tracer()
    names = [span[spans.NAME] for span in tracer.spans]
    parents = [span[spans.PARENT] for span in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.leaf", "m.inner", "m.leaf"]
    assert parents == [-1, 0, 1, 0, 3]


def test_self_time_is_duration_minus_children():
    tracer = nested_tracer()
    assert spans.self_times(tracer.spans) == [5.0, 2.0, 3.0, 2.0, 3.0]
    summary = spans.summarize(tracer.spans)
    assert summary["m.outer"]["total_s"] == 15.0
    assert summary["m.outer"]["self_s"] == 5.0
    assert summary["m.inner"] | {"by_parent": None} == {
        "calls": 2, "total_s": 10.0, "self_s": 4.0, "size_sum": 0, "size_max": 0,
        "by_parent": None, "p50_ms": 5000.0, "p90_ms": 5000.0,
    }
    assert summary["m.leaf"]["by_parent"] == {"m.inner": 2}
    assert summary["m.leaf"]["size_sum"] == 6 and summary["m.leaf"]["size_max"] == 3
    assert sum(entry["self_s"] for entry in summary.values()) == 15.0


def test_span_closes_when_the_call_raises():
    clock = Clock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom = tracer.wrap("m.boom", boom)
    try:
        boom()
    except ValueError:
        pass
    assert tracer.spans == [["m.boom", -1, 0.0, 1.0, None]]
    assert tracer._stack == []


def test_install_rebinds_every_alias():
    lib = types.ModuleType("pkg.lib")
    exec("def work(x):\n    return x + 1\n\ndef _private():\n    return 0\n", lib.__dict__)
    user = types.ModuleType("pkg.user")
    user.work = lib.work
    user.TABLE = {"work": lib.work}
    user.PAIR = (lib.work,)
    exec("def call(x):\n    return work(x)\n", user.__dict__)
    sys.modules.update({"pkg.lib": lib, "pkg.user": user})
    try:
        tracer = spans.Tracer()
        originals = spans.install(tracer, [lib, user])
        assert user.call(1) == 2 and user.TABLE["work"](1) == 2
        names = [span[spans.NAME] for span in tracer.spans]
        assert names == ["user.call", "lib.work", "lib.work"]
        assert lib._private.__name__ == "_private" and not hasattr(lib._private, "__wrapped__")
        # a tuple cannot be rebound in place, and the check says so
        assert spans.stale_aliases([lib, user], originals) == ["pkg.user.PAIR[...]"]
    finally:
        del sys.modules["pkg.lib"], sys.modules["pkg.user"]
