"""Admission control, overload shedding, and the seeded request mix.

Three layers:

* the :class:`AdmissionController` alone, on a bare event loop —
  turn accounting, FIFO waiting, shed-without-waiting;
* a real served system under contention, driven by stdlib
  ``http.client`` callers on threads — queue-full 429s with
  ``Retry-After``, one verify at a time proven through the
  ``serve.inflight_peak`` gauge, the 500 error boundary;
* the seeded request mix — byte-stable bodies, every kind, validation.
"""

import asyncio
import http.client
import threading
import time

import pytest

from repro.core.pipeline import VerifAI
from repro.obs.clock import TickClock
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve import (
    AdmissionController,
    ServeConfig,
    ServerThread,
    ServiceOverloaded,
    VerificationService,
    build_request_mix,
    mix_digest,
    render_prometheus,
)
from repro.workloads.builder import LakeConfig, build_lake

from tests.test_serve import request


# ----------------------------------------------------------------------
# the controller alone
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_admits_when_free(self):
        async def main():
            ctrl = AdmissionController(0, MetricsRegistry())
            assert ctrl.peak_inflight == 0
            for _ in range(3):
                async with ctrl.admit():
                    assert ctrl.inflight == 1
                assert ctrl.inflight == 0
            assert ctrl.peak_inflight == 1

        asyncio.run(main())

    def test_sheds_without_waiting_when_queue_full(self):
        async def main():
            registry = MetricsRegistry()
            ctrl = AdmissionController(0, registry, retry_after_seconds=3)
            async with ctrl.admit():
                with pytest.raises(ServiceOverloaded) as info:
                    async with ctrl.admit():
                        pass
                assert info.value.retry_after == 3
            assert registry.counter("serve.shed").value == 1
            assert registry.counter("serve.admitted").value == 1
            # a freed slot admits again
            async with ctrl.admit():
                pass
            assert registry.counter("serve.admitted").value == 2

        asyncio.run(main())

    def test_queue_holds_then_sheds_beyond_depth(self):
        async def main():
            registry = MetricsRegistry()
            ctrl = AdmissionController(1, registry)
            release = asyncio.Event()
            entered = asyncio.Event()

            async def holder():
                async with ctrl.admit():
                    entered.set()
                    await release.wait()

            async def waiter():
                async with ctrl.admit():
                    pass

            holding = asyncio.ensure_future(holder())
            await entered.wait()
            waiting = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)  # let the waiter join the queue
            assert ctrl.queued == 1
            # slot busy AND queue full: the third caller sheds
            with pytest.raises(ServiceOverloaded):
                async with ctrl.admit():
                    pass
            release.set()
            await asyncio.gather(holding, waiting)
            assert ctrl.inflight == 0
            assert ctrl.queued == 0
            assert registry.gauge("serve.inflight").value == 0
            assert registry.gauge("serve.queue_depth").value == 0

        asyncio.run(main())

    def test_waiters_admitted_fifo(self):
        async def main():
            ctrl = AdmissionController(8, MetricsRegistry())
            release = asyncio.Event()
            entered = asyncio.Event()
            order = []

            async def holder():
                async with ctrl.admit():
                    entered.set()
                    await release.wait()

            async def waiter(tag):
                async with ctrl.admit():
                    order.append(tag)

            holding = asyncio.ensure_future(holder())
            await entered.wait()
            waiters = []
            for tag in range(4):
                waiters.append(asyncio.ensure_future(waiter(tag)))
                await asyncio.sleep(0)  # enqueue in tag order
            release.set()
            await asyncio.gather(holding, *waiters)
            assert order == [0, 1, 2, 3]
            assert ctrl.peak_inflight == 1

        asyncio.run(main())

    def test_a_shed_asks_for_the_default_second(self):
        async def main():
            ctrl = AdmissionController(0, MetricsRegistry())
            async with ctrl.admit():
                with pytest.raises(ServiceOverloaded) as info:
                    async with ctrl.admit():
                        pass
            return info.value

        shed = asyncio.run(main())
        assert shed.retry_after == ServeConfig.retry_after_seconds == 1
        assert str(shed) == "service overloaded; retry after 1s"

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(-1, MetricsRegistry())


# ----------------------------------------------------------------------
# a real server under contention
# ----------------------------------------------------------------------
@pytest.fixture()
def tiny_served(monkeypatch):
    bundle = build_lake(LakeConfig(num_tables=4, seed=3))
    system = VerifAI(bundle.lake, clock=TickClock(step=0.001))
    monkeypatch.setattr(ServeConfig, "retry_after_seconds", 2)
    service = VerificationService(system, ServeConfig(port=0, max_queue=0))
    with ServerThread(service) as server:
        yield server, service, bundle


CLAIM = {"kind": "claim", "text": "the gold of valoria is 10"}


class TestOverload:
    def test_queue_full_sheds_429_with_retry_after(self, tiny_served):
        server, service, _ = tiny_served
        release = threading.Event()
        entered = threading.Event()
        original = service._run_verify

        def blocking(obj):
            entered.set()
            assert release.wait(60)
            return original(obj)

        service._run_verify = blocking
        shed_before = get_registry().counter("serve.shed").value
        results = {}

        def call(tag):
            results[tag] = request(server, "POST", "/verify", CLAIM)

        holder = threading.Thread(target=call, args=("held",))
        holder.start()
        try:
            assert entered.wait(60)
            # the slot is held and the queue is 0-deep: everything
            # arriving now is shed immediately, without waiting
            for tag in range(5):
                status, headers, body = request(
                    server, "POST", "/verify", CLAIM
                )
                assert status == 429
                assert headers["retry-after"] == "2"
                assert "overloaded" in body["error"]
        finally:
            release.set()
            holder.join(60)
        status, _, body = results["held"]
        assert status == 200
        assert body["verdict"]
        shed_after = get_registry().counter("serve.shed").value
        assert shed_after - shed_before == 5

    def test_handler_fault_is_500_not_a_crash(self, tiny_served):
        server, service, _ = tiny_served

        def exploding(obj):
            raise RuntimeError("kaboom")

        service._run_verify = exploding
        errors_before = get_registry().counter("serve.errors").value
        status, _, body = request(server, "POST", "/verify", CLAIM)
        assert status == 500
        assert "kaboom" in body["error"]
        assert get_registry().counter("serve.errors").value \
            == errors_before + 1
        # the slot was released: the server still answers
        del service._run_verify
        status, _, _ = request(server, "POST", "/verify", CLAIM)
        assert status == 200


@pytest.fixture()
def queued_served():
    bundle = build_lake(LakeConfig(num_tables=6, seed=3))
    system = VerifAI(bundle.lake, clock=TickClock(step=0.001))
    service = VerificationService(system, ServeConfig(port=0, max_queue=16))
    with ServerThread(service) as server:
        yield server, service, bundle


def replay(server, planned, clients, keep_alive):
    """Send ``planned`` from ``clients`` threads at once, each its
    ``planned[client::clients]`` share in order, one request at a time:
    on one kept-alive connection, or on a fresh connection a request.
    Returns every status, in no particular order."""
    host, port = server.address
    barrier = threading.Barrier(clients)
    statuses = []

    def client(worker):
        conn = None
        barrier.wait(timeout=30)
        try:
            for request in planned[worker::clients]:
                if conn is None:
                    conn = http.client.HTTPConnection(host, port, timeout=60)
                conn.request(
                    request.method, request.path, body=request.body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
                if not keep_alive:
                    conn.close()
                    conn = None
        finally:
            if conn is not None:
                conn.close()

    threads = [
        threading.Thread(target=client, args=(worker,))
        for worker in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    return statuses


class TestOneVerifyAtATime:
    def test_inflight_never_exceeds_one(self, queued_served):
        """Six closed-loop clients hammer the server; the
        ``serve.inflight_peak`` gauge proves admission let one verify
        run at a time."""
        server, service, bundle = queued_served
        mix = build_request_mix(bundle.lake, 18, seed=7)
        statuses = replay(server, mix, clients=6, keep_alive=True)
        # a queue of 16 >= 6 clients: nothing shed
        assert statuses == [200] * 18
        assert service.admission.peak_inflight == 1
        assert get_registry().gauge("serve.inflight_peak").value == 1
        assert get_registry().gauge("serve.inflight").value == 0

    def test_verifies_on_two_connections_never_overlap_and_run_fifo(
        self, queued_served, monkeypatch
    ):
        """A ``/verify`` held on the verifying thread, then two more on
        their own connections: they wait in line, run one at a time in
        the order they arrived, and are answered in that order."""
        server, service, _ = queued_served
        release = threading.Event()
        entered = threading.Event()
        original = service._run_verify
        ran = []

        def tracked(obj):
            ran.append(obj.text)
            if obj.text == "held":
                entered.set()
                assert release.wait(60)
            else:  # answers far enough apart to arrive in order
                time.sleep(0.05)
            return original(obj)

        monkeypatch.setattr(service, "_run_verify", tracked)
        answered = []

        def call(text):
            status, _, _ = request(
                server, "POST", "/verify", {"kind": "claim", "text": text}
            )
            answered.append((text, status))

        holder = threading.Thread(target=call, args=("held",))
        holder.start()
        assert entered.wait(60)
        waiters = []
        for position, text in enumerate(("first", "second")):
            waiter = threading.Thread(target=call, args=(text,))
            waiter.start()
            waiters.append(waiter)
            deadline = time.monotonic() + 30
            while service.admission.queued < position + 1:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        assert service.admission.inflight == 1
        release.set()
        for thread in (holder, *waiters):
            thread.join(60)
        assert ran == ["held", "first", "second"]
        assert answered == [
            ("held", 200), ("first", 200), ("second", 200)
        ]
        assert service.admission.peak_inflight == 1

    def test_admitted_batches_verify_one_at_a_time(
        self, queued_served, monkeypatch
    ):
        """Four concurrent ``/verify-batch`` bodies asking for four
        workers each: no two ``verify_pool`` calls ever run at once."""
        server, service, bundle = queued_served
        verifier = service.system.verifier
        original = verifier.verify_pool
        lock = threading.Lock()
        running = [0]
        peak = [0]

        def spy(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.02)  # hold the pool long enough to overlap
                return original(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(verifier, "verify_pool", spy)
        table = max(bundle.lake.tables(), key=lambda t: t.num_rows)
        column = next(c for c in table.columns if c != table.key_column)
        body = {
            "objects": [
                {"kind": "tuple", "table_id": table.table_id,
                 "row": row, "column": column}
                for row in range(4)
            ],
            "max_workers": 4,
        }
        barrier = threading.Barrier(4)
        statuses = []

        def call():
            barrier.wait(timeout=30)
            statuses.append(request(server, "POST", "/verify-batch", body)[0])

        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
        assert statuses == [200] * 4
        assert peak[0] == 1

    def test_open_loop_round_trip(self, queued_served):
        """A burst of six requests, each on its own connection, that
        does not wait for answers: each is answered, verified or shed."""
        server, service, bundle = queued_served
        mix = build_request_mix(bundle.lake, 6, seed=9)
        statuses = replay(server, mix, clients=6, keep_alive=False)
        assert len(statuses) == 6
        assert set(statuses) <= {200, 429}
        assert service.admission.peak_inflight == 1


# ----------------------------------------------------------------------
# the seeded request mix
# ----------------------------------------------------------------------
class TestLoadgen:
    @pytest.fixture(scope="class")
    def lake(self):
        return build_lake(LakeConfig(num_tables=6, seed=3)).lake

    def test_mix_is_byte_stable(self, lake):
        first = build_request_mix(lake, 30, seed=11)
        second = build_request_mix(lake, 30, seed=11)
        assert [r.body for r in first] == [r.body for r in second]
        assert mix_digest(first) == mix_digest(second)
        assert mix_digest(first) != mix_digest(
            build_request_mix(lake, 30, seed=12)
        )

    def test_mix_covers_all_kinds(self, lake):
        mix = build_request_mix(lake, 60, seed=11)
        kinds = {r.kind for r in mix}
        assert kinds == {"claim", "tuple", "batch"}
        for planned in mix:
            if planned.kind == "batch":
                assert planned.path == "/verify-batch"
            else:
                assert planned.path == "/verify"

    def test_mix_validation(self, lake):
        with pytest.raises(ValueError):
            build_request_mix(lake, -1)
        with pytest.raises(ValueError):
            build_request_mix(lake, 4, weights=[("claim", 0.0)])
        with pytest.raises(ValueError):
            build_request_mix(lake, 4, weights=[("claim", -1.0)])

    def test_an_unknown_kind_is_refused_by_name(self, lake):
        with pytest.raises(ValueError, match="unknown request kind 'explain'"):
            build_request_mix(lake, 4, weights=[("explain", 1.0)])


# ----------------------------------------------------------------------
# prometheus rendering
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_exact_exposition(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2.5)
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        for value in (0.25, 0.5, 5.0):
            histogram.observe(value)
        assert render_prometheus(registry) == (
            "# TYPE repro_c counter\n"
            "repro_c 3\n"
            "# TYPE repro_g gauge\n"
            "repro_g 2.5\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 0\n'
            'repro_h_bucket{le="1.0"} 2\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 5.75\n"
            "repro_h_count 3\n"
        )

    def test_dotted_names_flatten(self):
        registry = MetricsRegistry()
        registry.counter("serve.responses.200").inc()
        text = render_prometheus(registry)
        assert "repro_serve_responses_200 1\n" in text
