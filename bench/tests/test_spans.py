"""Span self time: a span minus what its children cover."""

import pytest

from bench.spans import Recorder, Span, covered, self_times


def span(span_id, parent, start, end):
    return Span(span_id, "t", f"s{span_id}", parent, start, end)


def test_nested_children_are_subtracted_once_per_level():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 5.0),
        span(2, 1, 3.0, 4.0),
    ]
    own = self_times(spans)
    assert own == {0: 7.0, 1: 2.0, 2: 1.0}
    assert sum(own.values()) == 10.0


def test_overlapping_children_are_merged_not_double_counted():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 5.0),
        span(2, 0, 3.0, 8.0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)  # 10 - |[1, 8]|


def test_a_child_overrunning_its_parent_is_clipped():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 8.0, 15.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(8.0)
    assert own[1] == pytest.approx(7.0)


def test_covered_is_the_length_of_the_union():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2.0
    assert covered([(0, 5), (1, 2), (4, 7)]) == 7.0


def test_recorder_nests_under_the_innermost_open_span():
    recorder = Recorder()
    recorder.begin_trace("obj-1")
    with recorder.span("outer") as outer:
        with recorder.span("inner", modality="table") as inner:
            pass
        with recorder.span("sibling") as sibling:
            pass
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert sibling.parent_id == outer.span_id
    assert {s.trace_id for s in recorder.spans} == {"obj-1"}
    assert inner.attrs == {"modality": "table"}
    assert outer.start <= inner.start <= inner.end <= outer.end
    with pytest.raises(RuntimeError):
        with recorder.span("open"):
            recorder.begin_trace("obj-2")
