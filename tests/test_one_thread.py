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
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.batch import BatchStats, Campaign, run_batch
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


def test_the_pipeline_loads_no_analysis_module():
    # the race tooling left with the worker threads, and with it the
    # pipeline's one import of the linter package
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.datalake.lake import DataLake\n"
        "repro.VerifAI(DataLake())\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.analysis')))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


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


def test_a_campaign_takes_its_policy_per_call(bundle):
    system = VerifAI(bundle.lake)
    assert Campaign(system, []).fail_fast is False
    assert Campaign(system, [], fail_fast=True).fail_fast is True


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
    assert threads and set(threads) == {"serve-verify_0"}


def test_a_stopped_service_leaves_no_verifying_thread():
    # the executor's worker is no daemon: stop() must have joined it
    bundle = build_lake(LakeConfig(num_tables=4, seed=5))
    service = VerificationService(VerifAI(bundle.lake), ServeConfig(port=0))
    with ServerThread(service) as server:
        request(server, "GET", "/healthz")
        workers = [
            t for t in threading.enumerate() if t.name == "serve-verify_0"
        ]
        assert len(workers) == 1
    assert not workers[0].is_alive()
    assert not [
        t.name for t in threading.enumerate()
        if t.name.startswith("serve-")
    ]


def test_the_trace_cache_is_only_touched_on_the_io_thread():
    # the verifying thread hands each trace back through its future;
    # the cache itself belongs to the loop, which serves /trace/<id>
    bundle = build_lake(LakeConfig(num_tables=4, seed=5))
    service = VerificationService(VerifAI(bundle.lake), ServeConfig(port=0))
    threads = []
    real = service._remember_trace

    def spy(trace):
        threads.append(threading.current_thread().name)
        return real(trace)

    service._remember_trace = spy
    table, column = sample_cell(bundle.lake)
    body = {"kind": "tuple", "table_id": table.table_id, "row": 0,
            "column": column}
    with ServerThread(service) as server:
        _, _, verified = request(server, "POST", "/verify", body)
        request(server, "POST", "/verify-batch", {"objects": [body]})
        status, _, _ = request(
            server, "GET", f"/trace/{verified['trace_id']}"
        )
        assert status == 200
    assert threads == ["serve-loop", "serve-loop"]


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
