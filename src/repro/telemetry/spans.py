"""Span-based tracing: nested host-time spans exported as JSONL.

A :class:`Tracer` opens named, attribute-carrying spans around the
round engine's building blocks (``round`` / ``decide`` / ``prune`` /
``dispatch`` / ``local_train`` / ``aggregate`` / ``eval``) and emits
one JSON object per *closed* span to a pluggable sink.  Children
therefore appear before their parents in the stream, like a Chrome
trace; ``parent_id`` reconstructs the tree.

Record schema (one JSON object per line)::

    {"kind": "span", "name": "local_train", "span_id": 17,
     "parent_id": 12, "start_s": 0.4183, "duration_s": 0.0921,
     "attrs": {"round": 1, "worker": 3, "tau": 2, "train_loss": 1.83}}

    {"kind": "event", "name": "eucb_snapshot", "parent_id": 12,
     "time_s": 0.5241, "attrs": {...}}

``start_s`` / ``time_s`` are host seconds relative to tracer creation.
A tracer without a sink is disabled: ``span()`` hands back one shared
no-op context manager and ``event()`` returns immediately, so leaving
tracing off costs one attribute check per instrumentation point.
"""

from __future__ import annotations

import atexit
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

#: the span names the round engine, schedulers and the parallel
#: runtime emit ("serialize" / "transfer" / "parallel_train" only
#: appear with executor="process"; "dispatch_cohort" / "cohort_train"
#: only with cohort-sharded rounds)
SPAN_NAMES = frozenset(
    {"round", "decide", "prune", "dispatch", "dispatch_cohort",
     "local_train", "cohort_train", "aggregate", "eval", "serialize",
     "transfer", "parallel_train"}
)

#: every record kind a sink may receive
RECORD_KINDS = frozenset({"span", "event"})


def to_jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-serialisable primitives.

    NumPy scalars become Python scalars, arrays become lists, mapping
    keys become strings; anything unrecognised falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return str(value)


class JsonlSink:
    """Appends one compact JSON line per record to a file.

    The file is line-buffered (``buffering=1``): every record hits the
    OS as soon as its newline is written, so a crash or
    ``KeyboardInterrupt`` mid-run can lose at most the record being
    serialised -- never leave a half-written earlier line.  Together
    with the tracer's atexit hook this is what makes partial traces
    parseable.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file = self.path.open("w", encoding="utf-8", buffering=1)

    def emit(self, record: Dict[str, Any]) -> None:
        if self._file.closed:
            return  # late emit after an atexit close: drop, don't crash
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class _NoopSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute."""


NOOP_SPAN = _NoopSpan()


class ActiveSpan:
    """One live span; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "start_s")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start_s: float = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attrs[key] = value

    def __enter__(self) -> "ActiveSpan":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # an exception unwinding through the span means its work did
        # not finish: mark it so partial traces are self-describing
        if exc_type is not None:
            self.attrs.setdefault("aborted", True)
        self._tracer._exit(self)
        return False


class Tracer:
    """Nested-span tracer over one sink.

    Spans nest via an explicit stack (the engine is single-threaded);
    the innermost open span is the parent of new spans and events.

    A tracer with a sink registers an :mod:`atexit` hook so the trace
    survives crashes and ``KeyboardInterrupt``: at interpreter exit any
    still-open spans are force-closed (marked ``aborted=true``) and the
    sink is flushed.  :meth:`close` is idempotent and unregisters the
    hook; the tracer is also a context manager (``with Tracer(sink):``)
    closing on exit.
    """

    def __init__(self, sink=None) -> None:
        self._sink = sink
        self._stack: List[ActiveSpan] = []
        self._origin = time.perf_counter()
        self._next_id = 1
        self._closed = False
        if sink is not None:
            atexit.register(self.close)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def span(self, name: str, **attrs: Any):
        """Open a span; use as ``with tracer.span("prune", worker=3):``."""
        if self._sink is None:
            return NOOP_SPAN
        return ActiveSpan(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time record under the current span."""
        if self._sink is None:
            return
        parent = self._stack[-1].span_id if self._stack else None
        self._sink.emit({
            "kind": "event",
            "name": name,
            "parent_id": parent,
            "time_s": self._now(),
            "attrs": to_jsonable(attrs),
        })

    def _enter(self, span: ActiveSpan) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        span.start_s = self._now()
        self._stack.append(span)

    def _exit(self, span: ActiveSpan) -> None:
        if span in self._stack:
            # tolerate mis-nested exits by unwinding to this span
            while self._stack:
                if self._stack.pop() is span:
                    break
        self._sink.emit({
            "kind": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start_s": span.start_s,
            "duration_s": self._now() - span.start_s,
            "attrs": to_jsonable(span.attrs),
        })

    def close(self) -> None:
        """Force-close open spans, then close the sink (idempotent).

        Spans still open when the tracer closes -- a crash or interrupt
        unwound past their ``with`` blocks -- are emitted with
        ``aborted: true`` so the trace stays a parseable record of how
        far the run got.
        """
        if self._closed:
            return
        self._closed = True
        if self._sink is not None:
            while self._stack:
                span = self._stack[-1]
                span.set("aborted", True)
                self._exit(span)
            close = getattr(self._sink, "close", None)
            if close is not None:
                close()
            atexit.unregister(self.close)
