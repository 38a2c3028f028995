"""The asyncio verification service.

One :class:`VerificationService` wraps one :class:`~repro.core.pipeline.
VerifAI` system behind the HTTP surface in docs/serving.md:

========================  =============================================
``POST /verify``          verify one claim/tuple (traced, admitted)
``POST /verify-batch``    verify a campaign via the batch engine
``GET /explain/<rid>``    provenance lineage replay for a record
``GET /trace/<tid>``      exported span tree of a served request
``GET /metrics``          Prometheus text exposition of the registry
``GET /healthz``          liveness + admission snapshot
``GET /debug/events``     flight-recorder dump (JSON or ``?format=jsonl``)
``GET /debug/profile``    sample stacks for ``?seconds=N``, collapsed
========================  =============================================

Concurrency model: the event loop owns parsing, routing, and admission;
actual pipeline work runs on a thread pool exactly ``max_concurrency``
wide, entered only through the :class:`AdmissionController`.  The two
bounds agree by construction, so the ``serve.inflight_peak`` gauge can
never exceed the configured width.  Each request's verification runs
under a fresh metrics :class:`~repro.obs.metrics.Scope` and records a
span tree whose trace id lands in the provenance record (and the
response), closing the request → trace → record loop.
"""

from __future__ import annotations

import asyncio
import gc
import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.core.pipeline import VerifAI
from repro.obs.clock import Clock
from repro.obs.events import (
    EventLog,
    install_event_log,
    uninstall_event_log,
)
from repro.obs.export import trace_to_dict
from repro.obs.metrics import Histogram, get_registry
from repro.obs.profile import StackSampler
from repro.obs.trace import Trace
from repro.serve.admission import AdmissionController, ServiceOverloaded
from repro.serve.config import ServeConfig
from repro.serve.http import (
    ConnectionClosed,
    HttpError,
    Request,
    Response,
    read_request,
)
from repro.serve.prometheus import CONTENT_TYPE, render_prometheus
from repro.serve.protocol import (
    BadRequest,
    parse_batch,
    parse_object,
    report_to_dict,
)


#: bucket bounds for ``serve.request_seconds`` — finer at the fast end
#: than the pipeline-wide DEFAULT_BUCKETS, because request latencies are
#: what the SLO watches; created once in ``__init__`` so any other call
#: site asking for conflicting bounds fails loudly
SERVE_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: a request slower than this is recorded as a ``serve.slow_request``
#: event
SLOW_REQUEST_SECONDS = 1.0


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _json_response(status: int, payload: object, **headers: str) -> Response:
    return Response(status, _json_body(payload), headers=dict(headers))


def _error_response(status: int, message: str, **headers: str) -> Response:
    return _json_response(status, {"error": message, "status": status},
                          **headers)


class VerificationService:
    """One VerifAI system served over asyncio (see module docstring)."""

    def __init__(
        self, system: VerifAI, config: Optional[ServeConfig] = None
    ) -> None:
        self.system = system
        self.config = config or ServeConfig()
        #: the injectable time source for request latency metrics — the
        #: pipeline's clock unless the config pins its own (tests pin a
        #: frozen TickClock on both)
        self.clock: Clock = self.config.clock or system.clock
        self.registry = get_registry()
        #: the flight recorder; installed process-wide while the
        #: service runs so core/index emitters land here too
        self.events = EventLog(
            capacity=self.config.event_log_size, clock=self.clock
        )
        #: created once with the serve-specific bucket scheme; later
        #: callers that disagree on bounds fail loudly in the registry
        self._request_seconds = self.registry.histogram(
            "serve.request_seconds", buckets=SERVE_LATENCY_BUCKETS
        )
        self.admission = AdmissionController(
            self.config.max_concurrency,
            self.config.max_queue,
            self.registry,
            retry_after_seconds=self.config.retry_after_seconds,
            clock=self.clock,
            events=self.events,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: open connections, so stop() can drain them cooperatively
        #: instead of letting loop teardown cancel them mid-request
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        #: trace id -> finished trace of a served request, bounded FIFO
        #: (oldest evicted); backs ``GET /trace/<trace_id>``, which
        #: exports it, so a request that is never asked about pays no
        #: export
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._request_counter = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build indexes, take what was built out of the collector's
        reach, open the socket.  A start that fails part-way stops what
        it had started."""
        self.system.build_indexes()
        # The lake and its indexes live as long as the service does;
        # moved to the permanent generation, they are not walked again
        # by every full collection the requests' garbage sets off.
        gc.freeze()
        try:
            install_event_log(self.events)
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.max_concurrency,
                thread_name_prefix="serve-verify",
            )
            self._server = await asyncio.start_server(
                self._serve_connection, self.config.host, self.config.port
            )
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Close the socket, drain workers, hand the frozen objects back
        to the collector."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # closing the transports EOFs the readers: every connection loop
        # sees ConnectionClosed and exits on its own
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        uninstall_event_log(self.events)
        gc.unfreeze()

    @property
    def address(self) -> tuple:
        """(host, port) actually bound — port 0 resolves here."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except ConnectionClosed:
                    break
                except HttpError as exc:
                    self._count_response(exc.status)
                    writer.write(
                        _error_response(exc.status, exc.message)
                        .to_bytes(keep_alive=False)
                    )
                    await writer.drain()
                    break
                response = await self._dispatch(request)
                self._count_response(response.status)
                writer.write(response.to_bytes(request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _count_response(self, status: int) -> None:
        self.registry.counter(f"serve.responses.{status}").inc()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Response:
        route, handler, methods = self._route(request.path)
        self.registry.counter(f"serve.requests.{route}").inc()
        if request.method not in methods:
            return _error_response(
                405, f"{request.method} not allowed on {request.path}",
                Allow=", ".join(methods),
            )
        started = self.clock.now()
        try:
            response = await handler(request)
        except ServiceOverloaded as exc:
            retry_after = max(1, round(exc.retry_after))
            response = _error_response(
                429, str(exc), **{"Retry-After": str(retry_after)}
            )
        except HttpError as exc:
            response = _error_response(exc.status, exc.message)
        except BadRequest as exc:
            response = _error_response(400, str(exc))
        except Exception as exc:  # the per-request error boundary
            self.registry.counter("serve.errors").inc()
            response = _error_response(500, f"{type(exc).__name__}: {exc}")
        elapsed = self.clock.now() - started
        # verify handlers stamp the trace id onto the response; passing
        # it as the latency exemplar links a slow bucket back to the
        # exact span tree behind it (surfaced on /debug/events — the
        # text exposition stays deterministic)
        trace_id = response.headers.get("X-Trace-Id", "")
        self._request_seconds.observe(elapsed, exemplar=trace_id or None)
        if elapsed >= SLOW_REQUEST_SECONDS:
            self.events.emit(
                "serve.slow_request",
                route=route,
                status=response.status,
                seconds=elapsed,
                trace_id=trace_id,
            )
        return response

    def _route(self, path: str):
        if path == "/verify":
            return "verify", self._handle_verify, ("POST",)
        if path == "/verify-batch":
            return "verify_batch", self._handle_verify_batch, ("POST",)
        if path.startswith("/explain/"):
            return "explain", self._handle_explain, ("GET",)
        if path.startswith("/trace/"):
            return "trace", self._handle_trace, ("GET",)
        if path == "/metrics":
            return "metrics", self._handle_metrics, ("GET",)
        if path == "/healthz":
            return "healthz", self._handle_healthz, ("GET",)
        if path == "/debug/events":
            return "debug_events", self._handle_debug_events, ("GET",)
        if path == "/debug/profile":
            return "debug_profile", self._handle_debug_profile, ("GET",)
        return "unknown", self._handle_unknown, (
            "GET", "POST", "PUT", "DELETE",
        )

    async def _handle_unknown(self, request: Request) -> Response:
        return _error_response(404, f"no route for {request.path}")

    # ------------------------------------------------------------------
    # verification endpoints
    # ------------------------------------------------------------------
    def _next_request_id(self) -> str:
        # event-loop thread only, so a bare counter is race-free
        self._request_counter += 1
        return f"req-{self._request_counter:06d}"

    def _parse_json(self, request: Request) -> object:
        try:
            return json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")

    def _remember_trace(self, trace: Trace) -> str:
        self._traces[trace.trace_id] = trace
        while len(self._traces) > self.config.trace_cache_size:
            self._traces.popitem(last=False)
        return trace.trace_id

    def _run_verify(self, obj):
        """Worker-thread body: one traced verify (the campaign of one
        scopes its own metrics)."""
        return self.system.verify(obj, trace=True)

    def _run_verify_batch(self, objects, max_workers, fail_fast):
        """Worker-thread body: one traced campaign on ``max_workers``
        threads, capped at ``ServeConfig.batch_max_workers`` (1: the
        worker this request's admission slot holds)."""
        return self.system.verify_batch(
            objects, max_workers=max_workers,
            fail_fast=fail_fast, trace=True,
        )

    async def _handle_verify(self, request: Request) -> Response:
        obj = parse_object(
            self._parse_json(request),
            self.system.lake,
            self._next_request_id(),
        )
        async with self.admission.admit():
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                self._executor, self._run_verify, obj
            )
        trace_id = self._remember_trace(report.trace)
        return _json_response(
            200, report_to_dict(report, trace_id),
            **{"X-Trace-Id": trace_id},
        )

    async def _handle_verify_batch(self, request: Request) -> Response:
        payload = self._parse_json(request)
        request_id = self._next_request_id()
        objects, workers, fail_fast = parse_batch(
            payload,
            self.system.lake,
            request_id,
            self.config.max_batch_objects,
            self.config.batch_max_workers,
        )
        async with self.admission.admit():
            loop = asyncio.get_running_loop()
            batch = await loop.run_in_executor(
                self._executor,
                self._run_verify_batch,
                objects, workers, fail_fast,
            )
        trace_id = self._remember_trace(batch.trace)
        body = {
            "request_id": request_id,
            "trace_id": trace_id,
            "reports": [report_to_dict(r) for r in batch.reports],
            "verified": batch.verified,
            "refuted": batch.refuted,
            "unresolved": batch.unresolved,
            "failed": batch.failed,
            "stats": batch.stats.to_dict() if batch.stats else None,
        }
        return _json_response(200, body, **{"X-Trace-Id": trace_id})

    # ------------------------------------------------------------------
    # lineage + operational endpoints
    # ------------------------------------------------------------------
    async def _handle_explain(self, request: Request) -> Response:
        record_id = request.path[len("/explain/"):]
        try:
            lineage = self.system.provenance.explain(record_id)
        except KeyError:
            return _error_response(404, f"unknown record {record_id!r}")
        return _json_response(
            200, {"record_id": record_id, "lineage": lineage}
        )

    async def _handle_trace(self, request: Request) -> Response:
        trace_id = request.path[len("/trace/"):]
        trace = self._traces.get(trace_id)
        if trace is None:
            return _error_response(404, f"unknown trace {trace_id!r}")
        return _json_response(200, trace_to_dict(trace))

    async def _handle_metrics(self, request: Request) -> Response:
        body = render_prometheus(self.registry).encode("utf-8")
        return Response(200, body, content_type=CONTENT_TYPE)

    def _histogram_exemplars(self) -> Dict[str, object]:
        """bucket-bound -> {label, value} per histogram that has any.

        Exemplars live on the debug surface only; the ``/metrics``
        exposition stays deterministic and 0.0.4-parseable.
        """
        exemplars: Dict[str, object] = {}
        instruments = self.registry.instruments()
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Histogram):
                found = instrument.exemplars()
                if found:
                    exemplars[name] = found
        return exemplars

    async def _handle_debug_events(self, request: Request) -> Response:
        raw_n = request.query.get("n")
        try:
            n = int(raw_n) if raw_n is not None else None
        except ValueError:
            raise BadRequest(f"n must be an integer, got {raw_n!r}")
        if n is not None and n < 0:
            raise BadRequest(f"n must be >= 0, got {n}")
        kind = request.query.get("kind")
        fmt = request.query.get("format", "json")
        if fmt == "jsonl":
            body = self.events.to_jsonl(n=n, kind=kind).encode("utf-8")
            return Response(
                200, body, content_type="application/x-ndjson"
            )
        if fmt != "json":
            raise BadRequest(
                f"format must be 'json' or 'jsonl', got {fmt!r}"
            )
        payload = self.events.to_dict(n=n, kind=kind)
        payload["exemplars"] = self._histogram_exemplars()
        return _json_response(200, payload)

    async def _handle_debug_profile(self, request: Request) -> Response:
        raw_seconds = request.query.get("seconds", "1")
        try:
            seconds = float(raw_seconds)
        except ValueError:
            raise BadRequest(
                f"seconds must be a number, got {raw_seconds!r}"
            )
        if seconds <= 0:
            raise BadRequest(f"seconds must be > 0, got {seconds:g}")
        seconds = min(seconds, self.config.debug_profile_max_seconds)

        def sample() -> tuple:
            sampler = StackSampler()
            sampler.sample_for(seconds)
            return sampler.collapsed(), sampler.sample_count

        # sampling sleeps for the full window — run it on a worker
        # thread (it occupies one verify slot), never the event loop
        loop = asyncio.get_running_loop()
        collapsed, samples = await loop.run_in_executor(
            self._executor, sample
        )
        return Response(
            200,
            collapsed.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers={
                "X-Profile-Samples": str(samples),
                "X-Profile-Seconds": f"{seconds:g}",
            },
        )

    async def _handle_healthz(self, request: Request) -> Response:
        return _json_response(200, {
            "status": "ok",
            "lake": self.system.lake.name,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "max_concurrency": self.config.max_concurrency,
            "max_queue": self.config.max_queue,
        })
