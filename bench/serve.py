"""``serve_mix``: the life of one ``/verify`` request.

``python -u -m repro.cli serve --lake <file> --port 0`` runs as a
separate process with the CLI's defaults (concurrency 4, queue 16) and
is driven over real sockets with the seeded request mix of
``repro.serve.build_request_mix``: a warm phase, then a closed loop on
one connection (``c1``) and a closed loop on two (``c2``), and in the
traced pass an open loop at three fixed rates.  Everything the
campaigns measure happens here too, plus HTTP parse, protocol decode,
admission, the hand-off to a worker thread, always-on tracing and
response encode — a serve-layer change shows here and nowhere else.

Each phase is cut into slices; a slice is the timed unit (bracketed by
reference bursts, see ``bench.measure``), and a phase's throughput is
that of its median slice.  The slices of ``c1`` and ``c2`` alternate,
so a slow spell of the host falls on both or on neither.  The open loop
releases requests at its pinned rate, in real requests per second,
whatever the host or the server does.

The gated latency is that of one request on ``c1``, not of one at
``r2`` as the issue has it: this host at its slowest serves 100
requests a second, so 80 a second is four fifths of all it can do, and
the median at ``r2`` read 4 ms in one hour and 105 ms in another.  No
bound survives that; the closed loop's latency scales with the host's
speed and the burst takes it out.  The open loop keeps its place in
the layer metrics (``serve.open.*``), rates as pinned.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.pipeline import VerifAI
from repro.datalake.persistence import load_lake, save_lake
from repro.serve.config import ServeConfig
from repro.serve.http import Response, read_request
from repro.serve.loadgen import PlannedRequest, mix_digest
from repro.serve.protocol import parse_batch, parse_object, report_to_dict
from repro.verify.objects import DataObject

from bench import workloads
from bench.harness import (
    SETUP_READINGS,
    Options,
    Result,
    accuracy_of,
    phase_seconds,
    planned,
    write_trace,
)
from bench.layers import layer_times, walk_metrics, walk_sample
from bench.loadgen import (
    Connection,
    Sample,
    WireRequest,
    closed_slice,
    open_slice,
)
from bench.measure import (
    Speedometer,
    now,
    peak_rss_mb,
    percentile,
    process_cpu_s,
    ratio,
    tail_support,
)
from bench.spans import Recorder

HOST = "127.0.0.1"
#: connections the load runs over at most (= nproc of the sizing host)
CONNECTIONS = 2
#: open-loop arrival rates, requests per second
RATES = {"r1": 40.0, "r2": 80.0, "r3": 120.0}
#: closed-loop rounds (a ``c1`` slice, then a ``c2`` slice) per second
#: of ``--seconds``: at 10 s, 325 requests on one connection and 650 on
#: two, ~55% of ``--seconds`` on the builder's host
CLOSED_ROUNDS_PER_S = 1.3
#: open-loop slices per second of ``--seconds`` (at 10 s: 40, 160 and
#: 120 requests)
OPEN_SLICES_PER_S = {"r1": 0.2, "r2": 0.4, "r3": 0.2}
#: requests per connection in one closed-loop slice
CLOSED_SLICE = 25
#: the latency limit ``serve.open.max_rate_ok_rps`` holds p95 against
LATENCY_LIMIT_MS = 50.0


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """The program's own CLI server as a child process."""

    def __init__(self, lake_path: str, log_path: str) -> None:
        self.lake_path = lake_path
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the server and read the port it bound from its first
        line of output."""
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro.cli", "serve",
                    "--lake", self.lake_path, "--port", "0",
                ],
                stdout=subprocess.PIPE, stderr=log,
                # a shell that started the benchmark in the background
                # has SIGINT ignored, and the child would inherit that:
                # ``stop`` could then only kill it
                preexec_fn=_default_sigint,
            )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(
                f"server did not announce its address: {line!r} "
                f"(see {self.log_path})"
            )
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def cpu_s(self) -> float:
        return process_cpu_s(self.pid)

    def stop(self) -> None:
        """Ctrl-C the server, as its foreground mode expects; kill it
        if it does not leave.  Always waits for the process to end."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass
class Mix:
    """The seeded request mix, planned and serialised."""

    planned: List[PlannedRequest]
    wire: List[WireRequest]

    @classmethod
    def build(cls, lake, seed: int) -> "Mix":
        planned = workloads.request_mix(lake, seed)
        wire = [
            WireRequest.build(i, p.method, p.path, p.body, host=HOST)
            for i, p in enumerate(planned)
        ]
        return cls(planned, wire)

    def objects(self, request: WireRequest) -> List[Dict[str, object]]:
        return workloads.request_objects(self.planned[request.index])


def response_verdicts(sample: Sample) -> List[str]:
    """The final verdict of every object a 200 response carries."""
    payload = json.loads(sample.body)
    if "reports" in payload:
        return [report["verdict"] for report in payload["reports"]]
    return [payload["verdict"]]


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One timed unit of load."""

    samples: List[Sample]
    wall: float
    cpu: float
    #: host speed around the slice (``bench.measure``)
    speed: float
    objects: int
    backlog_end: int = 0

    def latencies_ms(
        self, path: Optional[str] = None, normalised: bool = False
    ) -> List[float]:
        """Latency from due time of every sample (of one route when
        ``path`` is given), as measured or in reference-host ms."""
        return [
            sample.latency_from_due * (self.speed if normalised else 1.0)
            * 1e3
            for sample in self.samples
            if path is None or sample.request.path == path
        ]


@dataclass
class Phase:
    slices: List[Slice] = field(default_factory=list)

    @property
    def samples(self) -> List[Sample]:
        return [s for piece in self.slices for s in piece.samples]

    def latencies_ms(
        self, path: Optional[str] = None, normalised: bool = False
    ) -> List[float]:
        return [
            ms for piece in self.slices
            for ms in piece.latencies_ms(path, normalised)
        ]

    def slice_percentile_ms(self, q: float) -> float:
        """Median over slices of each slice's q-th percentile latency:
        one slice that met a stalled host moves it little, where the
        pooled percentile would follow the stall."""
        return statistics.median(
            percentile(piece.latencies_ms(), q) for piece in self.slices
        )

    def per_second(self, what: str, normalised: bool = False) -> float:
        """Median over slices of requests (or objects) per second (per
        reference-host second when ``normalised``)."""
        return statistics.median(
            (len(p.samples) if what == "requests" else p.objects)
            / (p.wall * (p.speed if normalised else 1.0))
            for p in self.slices
        )


class Driver:
    """Runs phases against one server over persistent connections."""

    def __init__(self, server: Server, mix: Mix, open_slice_s: float) -> None:
        self.server = server
        self.mix = mix
        self.meter = Speedometer()
        #: seconds one open-loop slice lasts
        self.open_slice_s = open_slice_s
        self.loop = asyncio.new_event_loop()
        self.connections: List[Connection] = []

    def connect(self, count: int) -> None:
        while len(self.connections) < count:
            self.connections.append(self.loop.run_until_complete(
                Connection.open(HOST, self.server.port)
            ))

    def close(self) -> None:
        for connection in self.connections:
            self.loop.run_until_complete(connection.close())
        self.connections = []
        self.loop.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        """One GET on the first connection (``/healthz``, ``/metrics``)."""
        self.connect(1)
        status, body, _ = self.loop.run_until_complete(
            self.connections[0].exchange(
                WireRequest.build(-1, "GET", path, host=HOST).wire
            )
        )
        return status, body

    def slice(
        self, source: Iterator[WireRequest], connections: int,
        rate: Optional[float] = None,
    ) -> Optional[Slice]:
        """One slice of fresh requests: closed loop, or open loop at
        ``rate``.  ``None`` when the mix has run dry."""
        count = (
            CLOSED_SLICE * connections if rate is None
            else max(connections, int(rate * self.open_slice_s))
        )
        requests = workloads.take(source, count)
        if len(requests) < count:
            return None
        self.connect(connections)
        active = self.connections[:connections]
        self.meter.lap()
        cpu_start, start = self.server.cpu_s(), now()
        backlog = 0
        if rate is None:
            samples = self.loop.run_until_complete(
                closed_slice(active, requests)
            )
            wall = now() - start
        else:
            done = self.loop.run_until_complete(
                open_slice(active, requests, rate)
            )
            samples, backlog, wall = done.samples, done.backlog_end, done.wall
        cpu = self.server.cpu_s() - cpu_start
        return Slice(
            samples, wall, cpu, self.meter.lap(),
            sum(len(self.mix.objects(s.request)) for s in samples),
            backlog,
        )


def start_server(
    options: Options, lake_path: str, mix: Mix
) -> Tuple[Server, Driver, Dict[str, float], Dict[str, float]]:
    """Spawn a server, wait for ``/healthz``, run the warm phase.
    Returns the set-up's cost in seconds per phase, and the host speed
    around each phase."""
    server = Server(
        lake_path, os.path.join(options.out_dir, "serve_mix-server.log")
    )
    driver = Driver(server, mix, options.open_slice_s)
    meter = Speedometer(SETUP_READINGS)
    start = now()
    try:
        server.start()
        status, _ = driver.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        phases = {"server_start": now() - start}
        speeds = {"server_start": meter.lap()}
        start = now()
        warm = driver.loop.run_until_complete(closed_slice(
            driver.connections[:1], mix.wire[:options.warmup_requests]
        ))
        phases["warm_up"] = now() - start
        speeds["warm_up"] = meter.lap()
        if any(sample.status != 200 for sample in warm):
            raise RuntimeError("a warm-up request was not answered 200")
    except BaseException:
        driver.close()
        server.stop()
        raise
    return server, driver, phases, speeds


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
@dataclass
class Load:
    """Everything one pass of load produced."""

    phases: Dict[str, Phase]
    setup_phases: Dict[str, float]
    setup_speeds: Dict[str, float]
    server_rss_mb: float
    metrics_before: Dict[str, float]
    metrics_after: Dict[str, float]


def scrape(driver: Driver) -> Dict[str, float]:
    """``GET /metrics`` as name -> value (unlabelled samples only)."""
    status, body = driver.get("/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        values[name] = float(value)
    return values


def apply_load(
    options: Options, lake_path: str, mix: Mix, seconds: float,
    min_checked: int, open_loop: bool,
) -> Load:
    """Start the server, run the timed phases against it, stop it."""
    server, driver, setup_phases, setup_speeds = start_server(
        options, lake_path, mix
    )
    try:
        source = iter(mix.wire[options.warmup_requests:])
        before = scrape(driver)
        phases = {"c1": Phase(), "c2": Phase()}
        rounds = planned(
            CLOSED_ROUNDS_PER_S, seconds, -(-min_checked // CLOSED_SLICE)
        )
        for _ in range(rounds):
            for name, connections in (("c1", 1), ("c2", CONNECTIONS)):
                piece = driver.slice(source, connections)
                if piece is not None:
                    phases[name].slices.append(piece)
        if open_loop:
            for name, rate in RATES.items():
                phases[name] = Phase()
                for _ in range(planned(OPEN_SLICES_PER_S[name], seconds)):
                    piece = driver.slice(source, CONNECTIONS, rate)
                    if piece is not None:
                        phases[name].slices.append(piece)
        after = scrape(driver)
        rss = peak_rss_mb(server.pid)
    finally:
        driver.close()
        server.stop()
    return Load(phases, setup_phases, setup_speeds, rss, before, after)


def check_load(
    result: Result, options: Options, load: Load
) -> List[Sample]:
    """Output checks on the responses alone: every phase ran, every
    response is a 200, and the closed loop answered at least the
    oracle's sample.  Returns that sample, in request order."""
    samples = [s for phase in load.phases.values() for s in phase.samples]
    result.attempted = len(samples)
    if any(not phase.slices for phase in load.phases.values()):
        result.fail(1, "the request mix ran dry before every phase ran")
    result.fail(
        sum(1 for sample in samples if sample.status != 200),
        "response status not 200",
    )
    head = sorted(
        (s for s in load.phases["c1"].samples if s.status == 200),
        key=lambda s: s.request.index,
    )[:options.checked]
    if len(head) < options.checked:
        result.fail(
            options.checked - len(head), "operations short of the sample"
        )
    return head


def sample_objects(
    system: VerifAI, mix: Mix, head: Sequence[Sample]
) -> List[List[DataObject]]:
    """The objects of each checked request, decoded the way the server
    decodes them."""
    return [
        [
            parse_object(
                body, system.lake, f"oracle-{sample.request.index}-{slot}"
            )
            for slot, body in enumerate(mix.objects(sample.request))
        ]
        for sample in head
    ]


def check_verdicts(
    result: Result, head: Sequence[Sample], expected: Sequence[List[str]]
) -> List[str]:
    """Count the checked responses whose verdicts differ from
    ``expected`` (in-process ``verify()`` of the decoded bodies);
    returns the served verdict sequence."""
    served = [response_verdicts(sample) for sample in head]
    result.fail(
        sum(1 for got, want in zip(served, expected) if got != want),
        "served verdict differs from in-process verify()",
    )
    return [verdict for verdicts in served for verdict in verdicts]


def accuracy(load: Load, mix: Mix) -> float:
    """Served verdict == gold label over the objects whose body shows
    their label (the tuple bodies)."""
    pairs = []
    for phase in load.phases.values():
        for sample in phase.samples:
            if sample.status != 200:
                continue
            for body, verdict in zip(
                mix.objects(sample.request), response_verdicts(sample)
            ):
                pairs.append((workloads.body_gold(body), verdict))
    return accuracy_of(pairs)


def _digests(
    options: Options, lake, mix: Mix, head: Sequence[Sample],
    verdicts: List[str],
) -> Dict[str, str]:
    return {
        "inputs": workloads.combine_digests({
            "lake": workloads.lake_digest(lake),
            "mix": mix_digest(mix.planned),
            "warm": str(options.warmup_requests),
            "checked": mix_digest(
                [mix.planned[s.request.index] for s in head]
            ),
        }),
        "verdicts": workloads.verdicts_digest(verdicts),
    }


def host_speed(load: Load) -> float:
    return statistics.median(
        piece.speed for phase in load.phases.values()
        for piece in phase.slices
    )


def run(options: Options) -> Result:
    os.makedirs(options.out_dir, exist_ok=True)
    bundle = workloads.build_bundle(options.seed, options.tables)
    lake_path = os.path.join(
        options.out_dir, f"serve_mix-lake-{options.seed}.json"
    )
    save_lake(bundle.lake, lake_path)
    # the in-process side works on the lake as the server reads it
    lake = load_lake(lake_path)
    mix = Mix.build(lake, options.seed)
    if options.trace:
        return _traced(options, lake_path, lake, mix)
    return _measured(options, lake_path, lake, mix)


# ----------------------------------------------------------------------
# measured pass
# ----------------------------------------------------------------------
def _measured(options: Options, lake_path: str, lake, mix: Mix) -> Result:
    load = apply_load(
        options, lake_path, mix, options.seconds, options.checked,
        open_loop=False,
    )
    result = Result()
    head = check_load(result, options, load)
    system = VerifAI(lake).build_indexes()
    verdicts = check_verdicts(result, head, [
        [system.verify(obj).final_verdict.name for obj in objects]
        for objects in sample_objects(system, mix, head)
    ])
    gated = load.phases["c1"]
    result.metrics = {
        "setup_s": phase_seconds(
            load.setup_phases, load.setup_speeds, normalised=True
        ),
        "objects_per_s": load.phases["c2"].per_second(
            "objects", normalised=True
        ),
        "latency_p50_ms": statistics.median(
            gated.latencies_ms(normalised=True)
        ),
        "passed_share": result.passed_share(),
        "accuracy": accuracy(load, mix),
        "peak_rss_mb": load.server_rss_mb,
    }
    result.digests = _digests(options, lake, mix, head, verdicts)
    result.notes.update({
        "requests": {
            name: len(phase.samples) for name, phase in load.phases.items()
        },
        "latency_samples": len(gated.samples),
        "mix_digest": mix_digest(mix.planned),
        "raw_setup_s": sum(load.setup_phases.values()),
        "raw_objects_per_s": load.phases["c2"].per_second("objects"),
        "raw_latency_p50_ms": statistics.median(gated.latencies_ms()),
        "host_speed_ratio": host_speed(load),
    })
    return result


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def walk_serve_layers(
    recorder: Recorder, system: VerifAI, head: Sequence[Sample],
    objects: Sequence[List[DataObject]], reports,
) -> None:
    """The serve layers of each checked request, in-process: the bytes
    the client sent are fed to ``read_request``, the body is decoded by
    ``parse_object`` / ``parse_batch``, and the reports ``verify()``
    returned are encoded the way the app encodes them."""
    config = ServeConfig()
    loop = asyncio.new_event_loop()
    position = 0
    try:
        for sample, group in zip(head, objects):
            request = sample.request
            batch = request.path == "/verify-batch"
            recorder.begin_trace(f"serve:{request.index}")
            reader = asyncio.StreamReader(loop=loop)
            reader.feed_data(request.wire)
            reader.feed_eof()
            with recorder.span("serve.http.read_request"):
                parsed = loop.run_until_complete(
                    read_request(reader, config.max_body_bytes)
                )
            payload = json.loads(parsed.body)
            with recorder.span("serve.protocol.parse_object", batch=batch):
                if batch:
                    parse_batch(
                        payload, system.lake, f"walk-{request.index}",
                        config.max_batch_objects, config.batch_max_workers,
                    )
                else:
                    parse_object(
                        payload, system.lake, f"walk-{request.index}"
                    )
            mine = reports[position:position + len(group)]
            position += len(group)
            with recorder.span("serve.protocol.report_to_dict", batch=batch):
                bodies = [report_to_dict(report, "walk") for report in mine]
            body = json.dumps(
                {"reports": bodies} if batch else bodies[0], sort_keys=True
            ).encode("utf-8")
            with recorder.span("serve.http.response_bytes"):
                Response(
                    200, body, headers={"X-Trace-Id": "walk"}
                ).to_bytes(True)
    finally:
        loop.close()


def batch_stats(load: Load) -> List[Dict[str, object]]:
    """``BatchStats`` of every ``/verify-batch`` response."""
    return [
        json.loads(sample.body)["stats"]
        for phase in load.phases.values() for sample in phase.samples
        if sample.request.path == "/verify-batch" and sample.status == 200
    ]


def max_rate_ok(load: Load) -> float:
    """Highest of the fixed rates whose phase met the latency limit at
    p95 with every request answered 200 and no slice ending with more
    requests waiting than there are connections."""
    best = 0.0
    for name, rate in RATES.items():
        phase = load.phases[name]
        if not phase.slices:
            continue
        ok = (
            percentile(phase.latencies_ms(), 95) <= LATENCY_LIMIT_MS
            and all(s.status == 200 for s in phase.samples)
            and all(p.backlog_end <= CONNECTIONS for p in phase.slices)
        )
        if ok:
            best = max(best, rate)
    return best


def _traced(options: Options, lake_path: str, lake, mix: Mix) -> Result:
    load = apply_load(
        options, lake_path, mix, options.seconds, options.checked,
        open_loop=True,
    )
    result = Result()
    head = check_load(result, options, load)[:options.traced]
    system = VerifAI(lake).build_indexes()
    objects = sample_objects(system, mix, head)
    flat = [obj for group in objects for obj in group]

    recorder = Recorder()
    walks = walk_sample(system, flat, CLOSED_SLICE, recorder)
    result.fail(
        walks.mismatches, "replay verdict differs from system.verify()"
    )
    by_request = iter(walks.reports)
    verdicts = check_verdicts(result, head, [
        [next(by_request).final_verdict.name for _ in group]
        for group in objects
    ])
    walk_serve_layers(recorder, system, head, objects, walks.reports)
    times = layer_times(recorder, walks)

    c1, c2 = load.phases["c1"], load.phases["c2"]

    def delta(name: str) -> float:
        """What a counter of the server's ``/metrics`` grew by."""
        return (
            load.metrics_after.get(name, 0.0)
            - load.metrics_before.get(name, 0.0)
        )

    served_objects = sum(
        piece.objects for phase in load.phases.values()
        for piece in phase.slices
    )
    pairs = delta("repro_verifier_verifications")
    stats = batch_stats(load)
    stage = {
        key: sum(s["stage_seconds"][key] for s in stats)
        for key in ("retrieve", "verify", "total")
    }
    # the pipeline alone, on the single-object requests of the sample:
    # the verify() calls walk_sample timed
    single_positions = set()
    position = 0
    for group in objects:
        if len(group) == 1:
            single_positions.add(position)
        position += len(group)
    in_process_ms = [
        call.seconds * 1e3
        for call in walks.verify_calls
        if call.first and call.position in single_positions
    ]
    route_ms = c1.latencies_ms("/verify")

    metrics = walk_metrics(walks, times, recorder)
    metrics.update({
        "text.analyze_cache_hit_ratio": ratio(
            delta("repro_text_analyze_cache_hits"),
            delta("repro_text_analyze_cache_hits")
            + delta("repro_text_analyze_cache_misses"),
        ),
        "core.batch.matrix_batches": (
            statistics.mean(s["matrix_batches"] for s in stats)
            if stats else 0.0
        ),
        "core.batch.unique_retrieval_ratio": ratio(
            sum(s["unique_retrievals"] for s in stats),
            sum(
                s["unique_retrievals"] + s["retrieval_cache_hits"]
                for s in stats
            ),
        ),
        "core.batch.campaign_ms_p50": (
            statistics.median(s["stage_seconds"]["total"] for s in stats)
            * 1e3 if stats else 0.0
        ),
        "core.batch.retrieve_share": ratio(stage["retrieve"], stage["total"]),
        "core.batch.verify_share": ratio(stage["verify"], stage["total"]),
        "llm.calls_per_object": ratio(
            delta("repro_verifier_cache_misses"), served_objects
        ),
        "core.verifier.pairs_per_object": ratio(pairs, served_objects),
        "core.verifier.cache_hit_ratio": ratio(
            delta("repro_verifier_cache_hits"), pairs
        ),
        "provenance.records": float(
            served_objects + sum(
                len(mix.objects(r)) for r in mix.wire[:options.warmup_requests]
            )
        ),
        "serve.app.handler_ms_mean": ratio(
            delta("repro_serve_request_seconds_sum"),
            delta("repro_serve_request_seconds_count"),
        ) * 1e3,
        "serve.app.overhead_ms_p50": (
            statistics.median(route_ms) - statistics.median(in_process_ms)
            if route_ms and in_process_ms else 0.0
        ),
        "serve.admission.admitted": delta("repro_serve_admitted"),
        "serve.admission.shed": delta("repro_serve_shed"),
        "serve.admission.inflight_peak": load.metrics_after.get(
            "repro_serve_inflight_peak", 0.0
        ),
        "serve.closed.requests_per_s.c1": c1.per_second("requests"),
        "serve.closed.requests_per_s.c2": c2.per_second("requests"),
        "serve.route.verify.latency_p50_ms": (
            statistics.median(route_ms) if route_ms else 0.0
        ),
        "serve.route.verify_batch.latency_p50_ms": (
            statistics.median(c1.latencies_ms("/verify-batch"))
            if c1.latencies_ms("/verify-batch") else 0.0
        ),
        "latency_p95_ms": load.phases["r2"].slice_percentile_ms(95),
        "cpu_s_per_1k_objects": ratio(
            sum(piece.cpu for piece in c1.slices + c2.slices),
            sum(piece.objects for piece in c1.slices + c2.slices),
        ) * 1000.0,
        "serve.open.latency_p99_ms.r2": percentile(
            load.phases["r2"].latencies_ms(), 99
        ),
        "serve.open.lateness_p95_ms": percentile([
            sample.lateness * 1e3
            for name in RATES for piece in load.phases[name].slices
            for sample in piece.samples
        ], 95),
        "serve.open.backlog_end.r3": float(
            load.phases["r3"].slices[-1].backlog_end
        ),
        "serve.open.max_rate_ok_rps": max_rate_ok(load),
        "setup.server_start_s": load.setup_phases["server_start"],
        "bench.trace_overhead_ratio": ratio(
            times.walked_s() * 1e6, walks.verify_us()
        ),
        "bench.failed_share": 1.0 - result.passed_share(),
        "bench.host_speed_ratio": host_speed(load),
    })
    for name in RATES:
        metrics[f"serve.open.latency_p50_ms.{name}"] = statistics.median(
            load.phases[name].latencies_ms()
        )
        metrics[f"serve.open.latency_p95_ms.{name}"] = (
            load.phases[name].slice_percentile_ms(95)
        )
    result.metrics = metrics
    result.digests = _digests(options, lake, mix, head, verdicts)
    result.notes["trace_file"] = write_trace(
        options, "serve_mix", recorder.spans
    )
    result.notes["mix_digest"] = mix_digest(mix.planned)
    result.notes["latency_p95"] = tail_support(
        len(load.phases["r2"].samples)
    )
    return result
