"""Span tracer: nesting, emit-on-close, no-op behaviour, coercion."""

from __future__ import annotations

import json

import numpy as np

from repro.telemetry.spans import NOOP_SPAN, JsonlSink, Tracer, to_jsonable
from tests.support.telemetry import ListSink


def test_nested_spans_reconstruct_tree():
    sink = ListSink()
    tracer = Tracer(sink)
    with tracer.span("round", round=0) as outer:
        with tracer.span("dispatch", worker=3):
            pass
        outer.set("round_time_s", 1.5)
    spans = sink.spans()
    # children emit before parents (emit-on-close)
    assert [s["name"] for s in spans] == ["dispatch", "round"]
    dispatch, round_span = spans
    assert dispatch["parent_id"] == round_span["span_id"]
    assert round_span["parent_id"] is None
    assert round_span["attrs"] == {"round": 0, "round_time_s": 1.5}
    assert dispatch["attrs"] == {"worker": 3}


def test_span_timing_is_monotone():
    sink = ListSink()
    tracer = Tracer(sink)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = sink.spans()
    assert inner["start_s"] >= outer["start_s"]
    assert inner["duration_s"] <= outer["duration_s"]
    assert all(s["duration_s"] >= 0.0 for s in (inner, outer))


def test_events_attach_to_current_span():
    sink = ListSink()
    tracer = Tracer(sink)
    tracer.event("orphan", x=1)
    with tracer.span("round") as span:
        tracer.event("inside", y=2)
        span.set("done", True)
    orphan, inside = sink.events()
    assert orphan["parent_id"] is None
    assert inside["parent_id"] == sink.spans("round")[0]["span_id"]
    assert inside["attrs"] == {"y": 2}


def test_disabled_tracer_is_shared_noop():
    tracer = Tracer()  # no sink
    assert not tracer.enabled
    span = tracer.span("round", round=0)
    assert span is NOOP_SPAN
    assert tracer.span("dispatch") is NOOP_SPAN  # one shared object
    with span as active:
        active.set("ignored", 1)  # must not raise
    tracer.event("ignored")  # must not raise
    tracer.close()


def test_jsonl_sink_roundtrips(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    with tracer.span("round", round=0):
        tracer.event("marker", note="hi")
    tracer.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["event", "span"]
    assert records[1]["name"] == "round"


def test_mis_nested_exit_unwinds():
    sink = ListSink()
    tracer = Tracer(sink)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)  # closes inner implicitly
    assert len(sink.spans()) == 1  # only outer emitted
    inner.__exit__(None, None, None)  # tolerated, emits inner
    assert [s["name"] for s in sink.spans()] == ["outer", "inner"]


def test_to_jsonable_coerces_numpy_and_keys():
    value = {
        3: np.float32(1.5),
        "arr": np.arange(3),
        "nested": [np.int64(2), {"deep": np.bool_(True)}],
        "plain": "text",
    }
    out = to_jsonable(value)
    assert out == {
        "3": 1.5,
        "arr": [0, 1, 2],
        "nested": [2, {"deep": True}],
        "plain": "text",
    }
    json.dumps(out)  # fully serialisable
