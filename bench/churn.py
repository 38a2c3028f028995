"""``lake_churn``: writes beside reads on one live in-process system.

Each cycle is one mutation and 25 ``verify()`` reads.  A mutation is
cheap, but the next read of every modality it touched pays a full
re-seal of that modality's index, so most of a cycle's wall time is
write-induced: a change that makes sealed search faster by making
``seal()`` heavier gains on ``campaign_tuple`` and loses here.

It is also the only workload that re-verifies identical content.  On a
table write, a claim stating the cell's OLD value is verified before
the write and again after it.  ``VerifierModule`` keys its outcome
cache on the evidence's instance id, which a table keeps across
``update_instance``, so the second read is answered ``VERIFIED`` from
the cache while an uncached replay over the same live lake says
``REFUTED``.  That defect is measured here, not worked around: such
reads are counted as ``churn.stale_verdicts``, they lower ``accuracy``
(their gold label is REFUTED) and they lower the gated
``passed_share`` (1 - the issue's ``failed_share``), whose bound is
less than what they take from it.  They are not counted in the result
line's ``failed``: the driver wants workloads on which no operation
fails, and these operations completed; what is wrong is the answer.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import VerifAIConfig
from repro.core.pipeline import (
    DEFAULT_MODALITIES,
    STATUS_FAILED,
    VerifAI,
    VerificationReport,
)
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict

from bench import workloads
from bench.harness import (
    OVERRUN,
    CounterWindow,
    Options,
    Result,
    SetUp,
    accuracy_of,
    planned,
    set_up,
    write_trace,
)
from bench.layers import VerifyCall, Walks, layer_times, walk_metrics
from bench.measure import (
    Speedometer,
    cpu_now,
    now,
    peak_rss_mb,
    percentile,
    ratio,
    tail_support,
)
from bench.replay import Replay, seal_ms
from bench.spans import NullRecorder, Recorder
from bench.workloads import Cycle

#: cycles per second of ``--seconds``: ~55% of it on the builder's host
CYCLES_PER_S = 4.0


@dataclass
class Read:
    """One timed ``verify()``."""

    obj: DataObject
    gold: Optional[Verdict]
    report: VerificationReport
    start: float
    wall: float
    #: an index this read searched had lost its seal to a write
    after_write: bool
    #: the OLD-value probe, read again after the write
    reread: bool = False
    #: the uncached replay disagreed (``None``: not replayed)
    mismatch: Optional[bool] = None


@dataclass
class CycleRun:
    """One timed cycle."""

    kind: str
    reads: List[Read] = field(default_factory=list)
    mutate_wall: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    #: host speed around the cycle (``bench.measure``)
    speed: float = 1.0


class Churn:
    """Runs cycles over one system, replaying the reads it is asked to
    check through ``replay`` right after they ran, on the same lake."""

    def __init__(self, system: VerifAI, replay: Replay) -> None:
        self.system = system
        self.replay = replay
        self.walks = Walks()
        self.meter = Speedometer()
        self.cycles: List[CycleRun] = []

    def _unsealed(self, obj: DataObject) -> bool:
        indexer = self.system.indexer
        return any(
            not indexer.content_index(modality).is_sealed
            for modality in DEFAULT_MODALITIES[type(obj)]
        )

    def _read(
        self, run: CycleRun, obj: DataObject, gold: Optional[Verdict],
        check: bool, reread: bool = False,
    ) -> None:
        after_write = self._unsealed(obj)
        rec = self.replay.rec
        rec.begin_trace(f"cycle:{len(self.cycles)}")
        with rec.span("churn.read", after_write=after_write):
            cpu_start, start = cpu_now(), now()
            report = self.system.verify(obj)
            wall, cpu = now() - start, cpu_now() - cpu_start
        run.wall += wall
        run.cpu += cpu
        read = Read(obj, gold, report, start, wall, after_write, reread)
        if check:
            walked = self.replay.walk(obj)
            read.mismatch = not walked.agrees_with(report)
            self.walks.count(walked)
            self.walks.cold.append(obj.object_id)
        run.reads.append(read)

    def _mutate(self, run: CycleRun, cycle: Cycle) -> None:
        rec = self.replay.rec
        rec.begin_trace(f"cycle:{len(self.cycles)}")
        with rec.span("churn.mutate", kind=cycle.kind):
            cpu_start, start = cpu_now(), now()
            for operation, argument in cycle.mutations:
                if operation == "update":
                    self.system.update_instance(argument)
                elif operation == "remove":
                    self.system.remove_instance(argument)
                else:
                    self.system.lake.add_table(argument)
                    self.system.add_instance(argument)
            run.mutate_wall = now() - start
            run.cpu += cpu_now() - cpu_start
        run.wall += run.mutate_wall

    def cycle(self, cycle: Cycle, check_all: bool) -> None:
        """One cycle; the probes are always checked against the replay,
        the plain reads when ``check_all``."""
        run = CycleRun(cycle.kind)
        if cycle.probe_old is not None:
            self._read(run, cycle.probe_old, Verdict.VERIFIED, True)
        self._mutate(run, cycle)
        if cycle.probe_old is not None:
            self._read(
                run, cycle.probe_old, Verdict.REFUTED, True, reread=True
            )
            self._read(run, cycle.probe_new, Verdict.VERIFIED, True)
        for item in cycle.reads:
            self._read(run, item.obj, item.gold, check_all)
        run.speed = self.meter.lap()
        self.cycles.append(run)

    def run(
        self, schedule: Iterator[Cycle], count: int, seconds: float,
        checked_cycles: int,
    ) -> bool:
        """``count`` cycles (fewer if ``OVERRUN x seconds`` pass), the
        plain reads of the first ``checked_cycles`` replayed too.
        Returns whether the run was cut short."""
        self.meter.lap()
        deadline = now() + OVERRUN * seconds
        while len(self.cycles) < count and (
            now() < deadline or len(self.cycles) < checked_cycles
        ):
            self.cycle(next(schedule), len(self.cycles) < checked_cycles)
        return now() >= deadline

    # ------------------------------------------------------------------
    def reads(self) -> List[Tuple[CycleRun, Read]]:
        return [(run, read) for run in self.cycles for read in run.reads]

    def read_ms(
        self, after_write: Optional[bool] = None, normalised: bool = False
    ) -> List[float]:
        """ms of every read (or of those that did / did not follow a
        write), as measured or in reference-host ms."""
        return [
            read.wall * (run.speed if normalised else 1.0) * 1e3
            for run, read in self.reads()
            if after_write is None or read.after_write == after_write
        ]

    def objects_per_s(self, normalised: bool = False) -> float:
        """Reads per second of cycle time, writes in the denominator."""
        return len(self.reads()) / sum(
            run.wall * (run.speed if normalised else 1.0)
            for run in self.cycles
        )

    def host_speed(self) -> float:
        return statistics.median(run.speed for run in self.cycles)

    def stale(self) -> int:
        return sum(
            1 for _, read in self.reads() if read.reread and read.mismatch
        )


def set_up_churn(options: Options) -> Tuple[SetUp, Iterator[Cycle]]:
    built = set_up(options, VerifAIConfig(), workloads.mixed_stream)
    schedule = workloads.churn_schedule(
        built.bundle.lake, options.seed, [item.obj for item in built.warm]
    )
    return built, schedule


def check(result: Result, churn: Churn, checked_cycles: int) -> None:
    """Output checks: nothing FAILED, the oracle's sample is whole, and
    every replayed read but the stale re-reads agrees with its replay."""
    reads = churn.reads()
    result.attempted = len(reads)
    result.fail(
        sum(1 for _, r in reads if r.report.status == STATUS_FAILED),
        "status=FAILED",
    )
    if len(churn.cycles) < checked_cycles:
        result.fail(
            checked_cycles - len(churn.cycles), "cycles short of the sample"
        )
    result.fail(
        sum(1 for _, r in reads if r.mismatch and not r.reread),
        "verdict differs from the uncached staged replay",
    )


def _digests(
    built: SetUp, lake_digest: str, churn: Churn, checked_cycles: int
) -> Dict[str, str]:
    head = [
        read for run in churn.cycles[:checked_cycles] for read in run.reads
    ]
    return {
        "inputs": workloads.combine_digests({
            "lake": lake_digest,
            "warm": workloads.objects_digest(i.obj for i in built.warm),
            "checked": workloads.objects_digest(r.obj for r in head),
            "writes": workloads.verdicts_digest(
                run.kind for run in churn.cycles[:checked_cycles]
            ),
        }),
        "verdicts": workloads.verdicts_digest(
            read.report.final_verdict.name for read in head
        ),
    }


def run(options: Options) -> Result:
    if options.trace:
        return _traced(options)
    return _measured(options)


# ----------------------------------------------------------------------
# measured pass
# ----------------------------------------------------------------------
def _measured(options: Options) -> Result:
    built, schedule = set_up_churn(options)
    lake_digest = workloads.lake_digest(built.bundle.lake)
    churn = Churn(built.system, Replay(built.system, NullRecorder()))
    checked_cycles = -(-options.checked // workloads.READS_PER_CYCLE)
    cut_short = churn.run(
        schedule, planned(CYCLES_PER_S, options.seconds, checked_cycles),
        options.seconds, checked_cycles,
    )
    result = Result()
    check(result, churn, checked_cycles)
    reads = churn.reads()
    result.metrics = {
        "setup_s": built.seconds(normalised=True),
        "objects_per_s": churn.objects_per_s(normalised=True),
        "latency_p50_ms": statistics.median(churn.read_ms(normalised=True)),
        "passed_share": result.passed_share(churn.stale()),
        "accuracy": accuracy_of([
            (read.gold, read.report.final_verdict.name) for _, read in reads
        ]),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.digests = _digests(built, lake_digest, churn, checked_cycles)
    result.notes.update({
        "cycles": len(churn.cycles),
        "cut_short": cut_short,
        "stale_verdicts": churn.stale(),
        "timed_s": sum(run.wall for run in churn.cycles),
        "raw_setup_s": built.seconds(),
        "raw_objects_per_s": churn.objects_per_s(),
        "raw_latency_p50_ms": statistics.median(churn.read_ms()),
        "host_speed_ratio": churn.host_speed(),
    })
    return result


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def _traced(options: Options) -> Result:
    built, schedule = set_up_churn(options)
    system = built.system
    lake_digest = workloads.lake_digest(built.bundle.lake)
    recorder = Recorder()
    churn = Churn(system, Replay(system, recorder))
    checked_cycles = min(
        options.traced_cycles,
        -(-options.checked // workloads.READS_PER_CYCLE),
    )
    window = CounterWindow()
    # every read of the traced cycles is walked
    churn.run(
        schedule, options.traced_cycles, options.seconds,
        options.traced_cycles,
    )
    window.close()
    result = Result()
    check(result, churn, checked_cycles)
    reads = churn.reads()

    steady = churn.read_ms(after_write=False)
    first = churn.read_ms(after_write=True)
    steady_p50 = statistics.median(steady)
    mutate = [run.mutate_wall * 1e3 for run in churn.cycles]
    wall_ms = sum(run.wall for run in churn.cycles) * 1e3
    churn.walks.verify_calls = [
        VerifyCall(position, read.start, read.wall, True)
        for position, (_, read) in enumerate(reads) if not read.after_write
    ]
    times = layer_times(recorder, churn.walks)
    pairs = window.delta("verifier.verifications")
    metrics = walk_metrics(churn.walks, times, recorder)
    metrics.update(seal_ms(system))
    metrics.update(built.layer_metrics())
    metrics.update({
        "text.analyze_cache_hit_ratio": window.hit_ratio(
            "text.analyze_cache.hits", "text.analyze_cache.misses"
        ),
        # one chat per pair the outcome cache did not answer
        "llm.calls_per_object": ratio(
            window.delta("verifier.cache.misses"), len(reads)
        ),
        "core.verifier.pairs_per_object": ratio(pairs, len(reads)),
        "core.verifier.cache_hit_ratio": ratio(
            window.delta("verifier.cache.hits"), pairs
        ),
        "provenance.records": float(len(system.provenance)),
        "latency_p95_ms": percentile(churn.read_ms(), 95),
        "cpu_s_per_1k_objects": (
            sum(run.cpu for run in churn.cycles) / len(reads) * 1000.0
        ),
        "churn.mutate_ms_p50": statistics.median(mutate),
        "churn.first_read_after_write_ms_p50": (
            statistics.median(first) if first else 0.0
        ),
        "churn.steady_read_ms_p50": steady_p50,
        "churn.write_share": ratio(
            sum(mutate) + sum(max(0.0, ms - steady_p50) for ms in first),
            wall_ms,
        ),
        "churn.stale_verdicts": float(churn.stale()),
        "core.indexer.mutations": window.mutation_calls(),
        "bench.trace_overhead_ratio": ratio(
            times.walked_s() * 1e3, steady_p50
        ),
        "bench.failed_share": 1.0 - result.passed_share(churn.stale()),
        "bench.host_speed_ratio": churn.host_speed(),
    })
    result.metrics = metrics
    result.digests = _digests(built, lake_digest, churn, checked_cycles)
    result.notes["trace_file"] = write_trace(
        options, "lake_churn", recorder.spans
    )
    result.notes["latency_p95"] = tail_support(len(reads))
    return result
