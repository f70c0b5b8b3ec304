"""In-memory spans around calls into the program's public functions.

A ``Tracer`` records one span per wrapped call: name, start, end, the
span that was open when the call began, and the run id shared by every
span of the run. ``patched`` swaps the wrappers into every loaded
``depthformer`` module that bound the original function (modules that did
``from .x import f`` hold their own reference) and restores the originals
on exit, so nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# Called with (args, kwargs, result, span) after the wrapped call returns;
# stores whatever the per-layer metrics need in ``span.attrs``.
Recorder = Callable[[tuple, dict, Any, Span], None]


class Tracer:
    """``clock`` gives the span times in ns: wall time by default,
    ``time.process_time_ns`` for the CPU time of this process."""

    def __init__(self, run_id: str, clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn: Callable, name: str, recorder: Recorder | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0, self._open[-1] if self._open else None, self.run_id)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = self.clock()
                self._open.pop()
            if recorder is not None:
                recorder(args, kwargs, result, span)
            return result

        return traced


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total, cursor = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return [
        span.duration_ns - covered_ns(span.start_ns, span.end_ns, kids.get(i, []))
        for i, span in enumerate(spans)
    ]


@dataclass(frozen=True)
class Target:
    """One public function to trace: ``owner`` is a module or a class."""

    owner: Any
    attr: str
    name: str
    recorder: Recorder | None = None


@contextmanager
def patched(tracer: Tracer, targets: list[Target], package: str = "depthformer"):
    """Swap traced wrappers in for every binding of each target."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            wrapper = tracer.wrap(original, target.name, target.recorder)
            undo.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, wrapper)
            if isinstance(target.owner, type):
                continue  # methods are looked up on the class, one binding
            for mod_name, module in list(sys.modules.items()):
                if module is target.owner or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
