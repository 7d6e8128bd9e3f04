"""In-memory span recorder, timed from outside the program.

The harness wraps *instance attributes* of public callables
(``engine.train_all``, ``engine.executor.run`` ...) so every call
becomes a span with a name, start, end, parent and round id.  Nothing
inside the program is touched or read: a later change may move the
program's own spans without moving this ledger.

Spans live in a list until the run ends and are written as JSONL by
:meth:`Recorder.write_jsonl`.  Each round is one root span
(:data:`ROUND_SPAN`) that :meth:`Recorder.next_round` closes and
re-opens, so the wrapped calls of a round are its children and a
layer's self time is its duration minus what its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROUND_SPAN = "fl.schedulers.round"


@dataclass
class Span:
    """One timed call (or one round root)."""

    id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    round: int
    #: units of work the call covered (members, contributions ...)
    count: int = 0
    #: the wrapped call raised
    error: bool = False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) \
            - self.start


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the self times of a tree always sum
    to its root's duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or span.end is None or parent.end is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: span.duration - covered(children.get(span.id, []))
        for span in spans
    }


class Recorder:
    """Collects spans and owns the wrappers that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._round = 0
        #: (object, attribute, wrapper, had an instance attribute, its value)
        self._wrapped: List[Tuple[Any, str, Any, bool, Any]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> Span:
        span = Span(
            id=len(self.spans), name=name, start=self.clock(), end=None,
            parent=self._stack[-1] if self._stack else None,
            round=self._round,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.error = error
        # a raising call may leave deeper spans open: unwind through them
        while self._stack:
            if self._stack.pop() == span.id:
                break

    def start_rounds(self) -> None:
        """Open the root span of round 0."""
        self._round = 0
        self.begin(ROUND_SPAN)

    def next_round(self) -> None:
        """Close the current round's root and open the next one's.

        Called from ``on_round_end``, so a round's root covers the
        interval between two consecutive round ends -- the same
        disjoint attribution the round walls use.
        """
        now = self.clock()
        root = self.spans[self._stack[0]]
        root.end = now
        self._stack.clear()
        self._round += 1
        span = Span(id=len(self.spans), name=ROUND_SPAN, start=now,
                    end=None, parent=None, round=self._round)
        self.spans.append(span)
        self._stack.append(span.id)

    def finish(self) -> None:
        """Close whatever is still open (the tail after the last round)."""
        now = self.clock()
        for span_id in self._stack:
            span = self.spans[span_id]
            if span.end is None:
                span.end = now
        self._stack.clear()

    # -- wrappers ------------------------------------------------------
    def wrap(self, obj: Any, attr: str, name: str,
             count: Optional[Callable[[tuple, dict, Any], int]] = None,
             guard: Callable[[], Any] = nullcontext) -> None:
        """Shadow ``obj.attr`` with a recording wrapper on the instance.

        ``count(args, kwargs, result)`` sizes the call in units of work;
        ``guard()`` is a context manager held around the call.  The
        class is never modified; :meth:`restore` removes the shadow.
        """
        original = getattr(obj, attr)
        had_own = attr in vars(obj)
        previous = vars(obj).get(attr)

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                with guard():
                    result = original(*args, **kwargs)
            except BaseException:
                self.end(span, error=True)
                raise
            if count is not None:
                span.count = int(count(args, kwargs, result))
            self.end(span)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(obj, attr, wrapper)
        self._wrapped.append((obj, attr, wrapper, had_own, previous))

    @staticmethod
    def _unwrap(obj: Any, attr: str, had_own: bool, previous: Any) -> None:
        if had_own:
            setattr(obj, attr, previous)
        else:
            delattr(obj, attr)

    @property
    def wrapped(self) -> int:
        """Wrappers currently installed."""
        return len(self._wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._wrapped:
            obj, attr, _, had_own, previous = self._wrapped.pop()
            self._unwrap(obj, attr, had_own, previous)

    @contextmanager
    def suspended(self, obj: Any) -> Iterator[None]:
        """Take the wrappers off ``obj`` for the duration of the block
        (the program is about to pickle or copy it)."""
        mine = [entry for entry in self._wrapped if entry[0] is obj]
        for _, attr, _, had_own, previous in mine:
            self._unwrap(obj, attr, had_own, previous)
        try:
            yield
        finally:
            for _, attr, wrapper, _, _ in mine:
                setattr(obj, attr, wrapper)

    # -- export --------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "round": span.round, "count": span.count,
                    "error": span.error, "self_s": selfs[span.id],
                }) + "\n")
