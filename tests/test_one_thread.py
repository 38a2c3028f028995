"""One verifying thread: what left with the worker threads, and what the
one thread that verifies guarantees.

A campaign runs its objects in input order on the calling thread.  The
service runs every call into its ``VerifAI`` — the index build, each
verify and batch, each ``/explain`` — on one verifying thread, in the
order the calls reach it, behind an admission line one wide.  The thread
counts that configured the pools are gone from every surface but the
two kept for old callers: ``verify_batch``'s ``max_workers`` keyword
(1, or ``ValueError``) and the ``/verify-batch`` body's ``max_workers``
field (validated, then ignored).
"""

import asyncio
import threading
import time

import pytest

from repro.core.batch import BatchStats, Campaign, run_batch
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.loop.orchestrator import LoopConfig
from repro.loop.scenarios import run_mix, run_scenario
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AdmissionController,
    ServeConfig,
    ServerThread,
    VerificationService,
)
from repro.serve.app import _VerifyingThread
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads.builder import LakeConfig, build_lake

from tests.test_serve import request, sample_cell


# ----------------------------------------------------------------------
# the surface that left
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: ServeConfig(max_concurrency=2),
    lambda: LoopConfig(max_workers=2),
    lambda: BatchStats(max_workers=2),
    lambda: run_scenario(None, max_workers=2),
    lambda: run_mix([], max_workers=2),
    lambda: AdmissionController(
        max_concurrency=2, max_queue=0, registry=MetricsRegistry()
    ),
], ids=[
    "ServeConfig", "LoopConfig", "BatchStats", "run_scenario", "run_mix",
    "AdmissionController",
])
def test_a_thread_count_is_an_unknown_argument(make):
    with pytest.raises(TypeError, match="max_(workers|concurrency)"):
        make()


def test_the_stats_name_no_worker_count():
    stats = BatchStats(objects=2, stage_seconds={"total": 1.0})
    assert not [key for key in stats.to_dict() if "workers" in key]
    assert stats.summary().startswith("2 objects (total 1.000s); ")


# ----------------------------------------------------------------------
# a campaign, on the calling thread
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundle():
    return build_lake(LakeConfig(num_tables=12, seed=4))


@pytest.fixture()
def system(bundle):
    return VerifAI(bundle.lake).build_indexes()


def tuples_of(bundle, count=6):
    return [
        TupleObject(f"t{i}", table.row(0), attribute=table.columns[-1])
        for i, table in enumerate(bundle.tables[:count])
    ]


def claims_of(bundle, count=4):
    return [
        ClaimObject(f"c{i}", f"{table.row(0).values[0]} is in "
                    f"{table.caption}")
        for i, table in enumerate(bundle.tables[:count])
    ]


def spy_pools(system, monkeypatch):
    """(object id, thread ident) of every ``verify_pool`` call."""
    calls = []
    pool = system.verifier.verify_pool

    def spy(obj, *args, **kwargs):
        calls.append((obj.object_id, threading.get_ident()))
        return pool(obj, *args, **kwargs)

    monkeypatch.setattr(system.verifier, "verify_pool", spy)
    return calls


@pytest.mark.parametrize("objects_of", [tuples_of, claims_of],
                         ids=["tuples", "claims"])
def test_objects_verify_in_input_order_on_the_calling_thread(
    bundle, system, monkeypatch, objects_of
):
    objects = objects_of(bundle)
    calls = spy_pools(system, monkeypatch)
    system.verify_batch(objects)
    assert calls == [
        (obj.object_id, threading.get_ident()) for obj in objects
    ]


@pytest.mark.parametrize("objects_of", [tuples_of, claims_of],
                         ids=["tuples", "claims"])
def test_max_workers_one_is_the_default(bundle, system, objects_of):
    objects = objects_of(bundle)
    plain = system.verify_batch(objects)
    asked = system.verify_batch(objects, max_workers=1)
    assert [
        (r.object_id, r.final_verdict, r.margin, r.evidence_ids)
        for r in plain.reports
    ] == [
        (r.object_id, r.final_verdict, r.margin, r.evidence_ids)
        for r in asked.reports
    ]


def test_a_campaign_takes_its_policy_from_the_config(bundle):
    system = VerifAI(bundle.lake, config=VerifAIConfig(batch_max_retries=2))
    default = Campaign(system, [])
    assert (default.max_retries, default.fail_fast) == (2, False)
    asked = Campaign(system, [], max_retries=0, fail_fast=True)
    assert (asked.max_retries, asked.fail_fast) == (0, True)


def test_a_negative_retry_count_opens_no_record(bundle, system):
    records = len(system.provenance)
    with pytest.raises(ValueError, match="max_retries"):
        Campaign(system, tuples_of(bundle), max_retries=-1)
    assert len(system.provenance) == records


def test_run_batch_profiles_only_when_asked(bundle, system):
    objects = tuples_of(bundle, 3)
    traced = run_batch(Campaign(system, objects, trace=True))
    profiled = run_batch(Campaign(system, objects, trace=True, profile=True))
    assert traced.trace is not None and traced.profile is None
    assert profiled.profile is not None
    assert [r.final_verdict for r in traced.reports] == [
        r.final_verdict for r in profiled.reports
    ]


# ----------------------------------------------------------------------
# the verifying thread
# ----------------------------------------------------------------------
@pytest.fixture()
def verifying():
    worker = _VerifyingThread()
    yield worker
    worker.shutdown()


class TestVerifyingThread:
    def test_calls_run_in_submission_order_on_one_thread(self, verifying):
        seen = []

        def call(number):
            seen.append((number, threading.current_thread().name))
            return number * number

        futures = [verifying.submit(call, number) for number in range(20)]
        assert [f.result(10) for f in futures] == [n * n for n in range(20)]
        assert seen == [(number, "serve-verify") for number in range(20)]

    def test_a_fault_reaches_the_caller_and_the_thread_lives_on(
        self, verifying
    ):
        def boom():
            raise KeyError("gone")

        with pytest.raises(KeyError, match="gone"):
            verifying.submit(boom).result(10)
        assert verifying.submit(lambda: 7).result(10) == 7

    def test_a_call_cancelled_before_it_runs_is_skipped(self, verifying):
        release, ran = threading.Event(), []
        blocker = verifying.submit(release.wait, 10)
        skipped = verifying.submit(ran.append, "skipped")
        assert skipped.cancel()
        after = verifying.submit(ran.append, "after")
        release.set()
        after.result(10)
        assert blocker.result(10) is True
        assert ran == ["after"] and skipped.cancelled()

    def test_shutdown_finishes_what_was_submitted(self):
        worker = _VerifyingThread()
        futures = [worker.submit(time.sleep, 0.001) for _ in range(5)]
        worker.shutdown()
        assert all(f.done() and not f.cancelled() for f in futures)
        assert not worker._thread.is_alive()


# ----------------------------------------------------------------------
# the service: every call into the system on the verifying thread
# ----------------------------------------------------------------------
ROUTES = ["build_indexes", "verify", "verify_batch", "explain"]


@pytest.mark.parametrize("route", ROUTES)
def test_the_system_is_only_touched_on_the_verifying_thread(route):
    bundle = build_lake(LakeConfig(num_tables=4, seed=5))
    system = VerifAI(bundle.lake)
    threads = []
    owner = system.provenance if route == "explain" else system
    real = getattr(owner, route)

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    setattr(owner, route, spy)
    table, column = sample_cell(bundle.lake)
    body = {"kind": "tuple", "table_id": table.table_id, "row": 0,
            "column": column}
    with ServerThread(VerificationService(system, ServeConfig(port=0))) as s:
        _, _, verified = request(s, "POST", "/verify", body)
        request(s, "POST", "/verify-batch", {"objects": [body, body]})
        status, _, _ = request(
            s, "GET", f"/explain/{verified['record_id']}"
        )
        assert status == 200
    assert threads and set(threads) == {"serve-verify"}


def test_healthz_reports_the_line_and_no_width():
    bundle = build_lake(LakeConfig(num_tables=4, seed=5))
    service = VerificationService(
        VerifAI(bundle.lake), ServeConfig(port=0, max_queue=3)
    )
    with ServerThread(service) as server:
        status, _, body = request(server, "GET", "/healthz")
    assert status == 200
    assert (body["inflight"], body["queued"], body["max_queue"]) == (0, 0, 3)
    assert "max_concurrency" not in body


# ----------------------------------------------------------------------
# the admission line, one wide
# ----------------------------------------------------------------------
class TestTheLine:
    def test_a_cancelled_waiter_leaves_the_line(self):
        async def main():
            registry = MetricsRegistry()
            line = AdmissionController(4, registry)
            release, entered = asyncio.Event(), asyncio.Event()

            async def holder():
                async with line.admit():
                    entered.set()
                    await release.wait()

            async def waiter():
                async with line.admit():
                    pass

            holding = asyncio.ensure_future(holder())
            await entered.wait()
            waiting = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)
            assert line.queued == 1
            waiting.cancel()
            await asyncio.gather(waiting, return_exceptions=True)
            assert line.queued == 0
            assert registry.gauge("serve.queue_depth").value == 0
            release.set()
            await holding
            async with line.admit():
                assert line.inflight == 1
            assert registry.counter("serve.admitted").value == 2

        asyncio.run(main())

    def test_admissions_are_recorded_with_one_in_flight(self):
        async def main():
            events = EventLog(capacity=16)
            line = AdmissionController(0, MetricsRegistry(), events=events)
            for _ in range(3):
                async with line.admit():
                    pass
            return events.events(kind="admission.admitted")

        admitted = asyncio.run(main())
        assert [event.fields["inflight"] for event in admitted] == [1, 1, 1]

    def test_the_gauges_read_one_turn(self):
        async def main():
            registry = MetricsRegistry()
            line = AdmissionController(0, registry)
            async with line.admit():
                inside = (
                    registry.gauge("serve.inflight").value,
                    registry.gauge("serve.inflight_peak").value,
                )
            after = (
                registry.gauge("serve.inflight").value,
                registry.gauge("serve.inflight_peak").value,
            )
            return inside, after

        assert asyncio.run(main()) == ((1, 1), (0, 1))
