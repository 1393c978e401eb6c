"""Span recorder: nesting, self time, pass-through of values and errors."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Patch, Recorder  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 6]; inner [4, 6] holds leaf [4.5, 5]
    rec = Recorder(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0))
    leaf = rec.wrap("leaf", lambda: None)

    def inner_body(deep):
        if deep:
            leaf()

    inner = rec.wrap("inner", inner_body)

    def outer_body():
        inner(False)
        inner(True)

    rec.wrap("outer", outer_body)()
    names = [s.name for s in rec.spans]
    assert names == ["outer", "inner", "inner", "leaf"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 2]
    assert [s.duration for s in rec.spans] == [10.0, 2.0, 2.0, 0.5]
    assert rec.self_times() == [6.0, 2.0, 1.5, 0.5]


def test_outermost_and_within_skip_reentrant_calls():
    rec = Recorder(clock=fake_clock(*range(10)))
    calls = {"n": 0}

    def body():
        calls["n"] += 1
        if calls["n"] == 1:
            point()             # re-entrant call, nested in the first

    point = rec.wrap("point", body)
    outer = rec.wrap("outer", lambda: (point(), point()))
    outer()
    assert [s.name for s in rec.spans] == ["outer", "point", "point", "point"]
    assert len(rec.outermost("point")) == 2
    assert rec.within(0, "point") == 2


def test_wrapper_passes_return_value_through():
    payload = object()
    rec = Recorder()
    assert rec.wrap("f", lambda: payload)() is payload


def test_wrapper_reraises_the_same_exception():
    err = ValueError("boom")
    rec = Recorder()

    def fail():
        raise err

    with pytest.raises(ValueError) as info:
        rec.wrap("f", fail)()
    assert info.value is err
    assert rec.spans[0].error == "ValueError"
    assert rec.spans[0].end >= rec.spans[0].start


def test_counter_sees_result_and_exception():
    seen = []
    rec = Recorder()

    def counter(span, outcome, args, kwargs):
        seen.append((outcome, args, kwargs))
        span.counts["n"] = 1

    rec.wrap("f", lambda x, y=0: x + y, counter)(1, y=2)
    assert seen == [(3, (1,), {"y": 2})]
    assert rec.spans[0].counts == {"n": 1}


def test_patch_undo_restores_module_attributes():
    mod = types.SimpleNamespace(f=lambda: 1, g=lambda: 2)
    original = mod.f
    rec = Recorder()
    patch = Patch(rec)
    wrapped = patch.wrap(mod, "f", "mod.f")
    patch.wrap(mod, "g", "mod.f", fn=wrapped)
    assert mod.f() == 1 and mod.g() == 1
    assert [s.name for s in rec.spans] == ["mod.f", "mod.f"]
    patch.undo()
    assert mod.f is original and mod.g() == 2
