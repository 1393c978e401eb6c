"""In-memory span recorder and the pass-through wrappers that feed it.

A wrapper replaces a module attribute for the length of a traced run.  It
records (name, start, end, parent) for every call, keeps the counts that
the call's MethodResult (or the MethodResult carried by a
ConvergenceFailureError) reports, and otherwise returns the wrapped
function's value, or raises its exception, unchanged.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1           # index of the enclosing span, -1 at top level
    op: int = -1               # op the span belongs to
    error: str = ""            # exception class name when the call raised
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of nested, single-threaded calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, counter=None):
        """Pass-through wrapper of fn; counter(span, result_or_exc, args,
        kwargs) may fill span.counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.clock(), parent=self._stack[-1] if self._stack else -1,
                        op=self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                if counter is not None:
                    counter(span, exc, args, kwargs)
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter is not None:
                counter(span, result, args, kwargs)
            return result

        wrapper.__wrapped_by_recorder__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are nested and single-threaded, so children never overlap and
        their durations can simply be subtracted."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def outermost(self, name: str) -> list[Span]:
        """Spans of name not nested inside another span of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def within(self, span_index: int, name: str) -> int:
        """Spans of name inside span_index that no other span of name,
        below span_index, encloses."""
        count = 0
        end = self.spans[span_index].end
        for i in range(span_index + 1, len(self.spans)):
            s = self.spans[i]
            if s.start >= end:
                break
            if s.name != name:
                continue
            p = s.parent
            while p > span_index and self.spans[p].name != name:
                p = self.spans[p].parent
            count += p == span_index
        return count

    def rows(self) -> list:
        """Compact rows for writing out: name, start, end, parent, op, error."""
        return [[s.name, s.start, s.end, s.parent, s.op, s.error, s.counts]
                for s in self.spans]


class Patch:
    """Replaces module attributes with recorder wrappers until undone."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list = []

    def wrap(self, module, attr: str, name: str, counter=None, fn=None):
        """Wrap module.attr; fn overrides the function to wrap (for aliases
        of an already wrapped function, pass the same wrapper instead)."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, fn if fn is not None
                else self.recorder.wrap(name, original, counter))
        return getattr(module, attr)

    def undo(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
