"""Flight recorder: ring bounds, ordering, install/uninstall seam.

The recorder's contract is boring on purpose: bounded memory however
hot the emitters run, no event loss below capacity, monotone sequence
numbers that expose overwrites, and a module-level installation seam
that never leaves core code emitting into a dead sink.
"""

import json
import threading

import pytest

from repro.obs.clock import TickClock
from repro.obs.events import (
    NULL_EVENT_LOG,
    EventLog,
    get_event_log,
    install_event_log,
    uninstall_event_log,
)


class TestRing:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_events_below_capacity_are_all_kept_in_order(self):
        log = EventLog(capacity=10, clock=TickClock())
        for i in range(7):
            log.emit("batch.retry", attempt=i)
        events = log.events()
        assert [e.fields["attempt"] for e in events] == list(range(7))
        assert [e.seq for e in events] == list(range(1, 8))
        assert log.dropped == 0

    def test_overflow_keeps_newest_and_counts_dropped(self):
        log = EventLog(capacity=3, clock=TickClock())
        for i in range(8):
            log.emit("admission.shed", n=i)
        events = log.events()
        assert len(log) == 3
        assert [e.fields["n"] for e in events] == [5, 6, 7]
        assert log.dropped == 5
        assert log.last_seq == 8
        # seq gaps expose the overwrite to readers
        assert events[0].seq == 6

    def test_timestamps_come_from_the_injected_clock(self):
        clock = TickClock()
        log = EventLog(capacity=4, clock=clock)
        log.emit("a.b")
        clock.advance(2.5)
        second = log.emit("a.b")
        assert second.time == pytest.approx(2.5)

    def test_kind_filter_matches_exact_and_dotted_prefix(self):
        log = EventLog(capacity=16, clock=TickClock())
        log.emit("admission.shed")
        log.emit("admission.admitted")
        log.emit("batch.retry")
        kinds = [e.kind for e in log.events(kind="admission")]
        assert kinds == ["admission.shed", "admission.admitted"]
        assert [e.kind for e in log.events(kind="batch.retry")] == (
            ["batch.retry"]
        )
        # "admission" must not match "admissionx.*"
        log.emit("admissionx.other")
        assert len(log.events(kind="admission")) == 2

    def test_n_keeps_the_newest_after_filtering(self):
        log = EventLog(capacity=16, clock=TickClock())
        for i in range(5):
            log.emit("batch.retry", n=i)
        tail = log.events(n=2)
        assert [e.fields["n"] for e in tail] == [3, 4]
        with pytest.raises(ValueError):
            log.events(n=-1)


class TestExports:
    def test_to_dict_carries_ring_metadata(self):
        log = EventLog(capacity=2, clock=TickClock())
        for i in range(3):
            log.emit("serve.slow_request", i=i)
        payload = log.to_dict()
        assert payload["capacity"] == 2
        assert payload["dropped"] == 1
        assert payload["last_seq"] == 3
        assert payload["count"] == 2
        assert [e["fields"]["i"] for e in payload["events"]] == [1, 2]

    def test_jsonl_is_one_sorted_object_per_line(self):
        log = EventLog(capacity=8, clock=TickClock())
        log.emit("batch.retry", object_id="obj-1", attempt=1)
        log.emit("batch.object_failed", object_id="obj-1", error="boom")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        for line in lines:
            decoded = json.loads(line)
            assert list(decoded) == sorted(decoded)
        assert json.loads(lines[1])["kind"] == "batch.object_failed"

    def test_empty_log_exports_empty(self):
        log = EventLog(capacity=4, clock=TickClock())
        assert log.to_jsonl() == ""
        assert log.to_dict()["events"] == []


class TestConcurrency:
    def test_no_loss_below_capacity_under_threads(self):
        """8 threads x 50 events into a 512 ring: every event lands,
        sequence numbers are a permutation of 1..400, bound holds."""
        log = EventLog(capacity=512, clock=TickClock())

        def hammer(worker):
            for i in range(50):
                log.emit("batch.retry", worker=worker, i=i)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = log.events()
        assert len(events) == 400
        assert log.dropped == 0
        assert sorted(e.seq for e in events) == list(range(1, 401))

    def test_ring_bound_holds_under_concurrent_overflow(self):
        log = EventLog(capacity=32, clock=TickClock())

        def hammer():
            for _ in range(200):
                log.emit("admission.shed")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == 32
        assert log.dropped == 800 - 32
        assert log.last_seq == 800


class TestInstallation:
    def test_default_sink_swallows_events(self):
        uninstall_event_log(get_event_log())  # ensure pristine
        sink = get_event_log()
        assert sink is NULL_EVENT_LOG
        event = sink.emit("batch.object_failed")
        assert event.seq == 0
        assert len(sink) == 0

    def test_install_and_uninstall_swap_the_pointer(self):
        log = EventLog(capacity=4, clock=TickClock())
        install_event_log(log)
        try:
            assert get_event_log() is log
            get_event_log().emit("batch.object_failed")
            assert len(log) == 1
        finally:
            uninstall_event_log(log)
        assert get_event_log() is NULL_EVENT_LOG

    def test_uninstall_of_a_superseded_log_is_a_noop(self):
        first = EventLog(capacity=4, clock=TickClock())
        second = EventLog(capacity=4, clock=TickClock())
        install_event_log(first)
        install_event_log(second)
        try:
            # a stale shutdown must not blind the surviving service
            uninstall_event_log(first)
            assert get_event_log() is second
        finally:
            uninstall_event_log(second)
