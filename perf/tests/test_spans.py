"""Span arithmetic, wrapper behaviour and failure accounting."""

import pickle

import pytest

from harness.spans import ROUND_SPAN, Recorder, Span, covered, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_tree():
    # root [0, 10]; a [1, 4] with child a1 [2, 3]; b [5, 9]
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a1", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 9.0, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == spans[0].duration


def test_overlapping_children_are_covered_once_and_clipped():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "x", 1.0, 5.0, 0, 0),
        Span(2, "y", 3.0, 12.0, 0, 0),  # overlaps x, overruns the root
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_round_roots_partition_the_run():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    recorder.start_rounds()
    for _ in range(3):
        clock.now += 1.0
        span = recorder.begin("work")
        clock.now += 2.0
        recorder.end(span)
        clock.now += 0.5
        recorder.next_round()
    clock.now += 0.25
    recorder.finish()
    roots = [s for s in recorder.spans if s.name == ROUND_SPAN]
    assert [s.round for s in roots] == [0, 1, 2, 3]
    assert [s.duration for s in roots] == [3.5, 3.5, 3.5, 0.25]
    selfs = self_times(recorder.spans)
    assert [selfs[s.id] for s in roots[:3]] == [1.5, 1.5, 1.5]
    work = [s for s in recorder.spans if s.name == "work"]
    assert [s.round for s in work] == [0, 1, 2]
    assert all(s.parent == root.id for s, root in zip(work, roots))


class Target:
    def __init__(self):
        self.calls = 0

    def method(self, items):
        self.calls += 1
        return list(items)

    def boom(self):
        raise ValueError("boom")

    def outer(self):
        return self.boom()


def test_wrapper_records_counts_and_nesting():
    target = Target()
    recorder = Recorder()
    recorder.wrap(target, "method", "t.method",
                  count=lambda args, kwargs, result: len(result))
    assert target.method([1, 2, 3]) == [1, 2, 3]
    (span,) = recorder.spans
    assert (span.name, span.count, span.error) == ("t.method", 3, False)
    assert span.end >= span.start


def test_failure_accounting_when_a_wrapped_call_raises():
    target = Target()
    recorder = Recorder()
    recorder.wrap(target, "outer", "t.outer")
    recorder.wrap(target, "boom", "t.boom")
    recorder.start_rounds()
    with pytest.raises(ValueError, match="boom"):
        target.outer()
    outer, boom = recorder.spans[1], recorder.spans[2]
    assert (outer.name, outer.error) == ("t.outer", True)
    assert (boom.name, boom.error, boom.parent) == ("t.boom", True, outer.id)
    assert outer.end is not None and boom.end is not None
    # the stack unwound back to the round root: the next call nests there
    follow_up = recorder.begin("after")
    assert follow_up.parent == recorder.spans[0].id


def test_wrappers_restore_the_originals():
    target = Target()
    recorder = Recorder()
    recorder.wrap(target, "method", "t.method")
    assert "method" in vars(target)
    recorder.restore()
    assert "method" not in vars(target)
    assert target.method.__func__ is Target.method
    assert target.method([1]) == [1] and not recorder.spans


def test_restore_puts_back_a_previous_instance_attribute():
    target = Target()
    own = target.method  # bound method stored on the instance
    target.method = own
    recorder = Recorder()
    recorder.wrap(target, "method", "t.method")
    recorder.restore()
    assert vars(target)["method"] is own


def test_suspended_makes_the_object_picklable_again():
    target = Target()
    recorder = Recorder()
    recorder.wrap(target, "method", "t.method")
    with pytest.raises(Exception):
        pickle.dumps(target)
    with recorder.suspended(target):
        clone = pickle.loads(pickle.dumps(target))
    assert "method" not in vars(clone)
    target.method([1])
    assert len(recorder.spans) == 1  # the wrapper is back
