"""The three campaign workloads: serial ``verify_batch`` campaigns of
unique objects over one in-process system.

* ``campaign_claim`` — default config, claims against TABLE evidence:
  verifier-heavy;
* ``campaign_tuple`` — default config, tuples against TUPLE + TEXT
  evidence: balanced between BM25 retrieval and verification;
* ``campaign_full`` — the paper's whole Figure-2 pipeline (semantic
  index + combiner + reranker): retrieval and rerank are ~all of it.

The timed unit is one campaign: throughput and CPU cost are those of
the median campaign, so a slow spell of the host that covers less than
half of the timed section moves neither.  The one operation a campaign
caller sees is the campaign, so ``latency_*`` is the wall time of one
campaign here (single ``verify()`` calls are what ``serve_mix`` and
``lake_churn`` time, and ``core.pipeline.verify_us`` in the traced
pass).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.config import VerifAIConfig
from repro.core.pipeline import STATUS_FAILED, VerificationReport

from bench import workloads
from bench.harness import (
    OVERRUN,
    CounterWindow,
    Options,
    Result,
    SetUp,
    StreamOf,
    accuracy_of,
    oracle_mismatches,
    planned,
    set_up,
    write_trace,
)
from bench.layers import layer_times, walk_metrics, walk_sample
from bench.measure import (
    Speedometer,
    cpu_now,
    now,
    peak_rss_mb,
    percentile,
    ratio,
    tail_support,
)
from bench.replay import seal_ms
from bench.spans import Recorder
from bench.workloads import Labelled


@dataclass(frozen=True)
class Campaign:
    """What distinguishes one campaign workload from another.

    The timed work is a fixed count per second of ``--seconds`` (so a
    seed's run verifies the same objects wherever it runs), sized to
    take ~55% of ``--seconds`` on the builder's host: the driver's
    budget has to hold on the hours when the host runs at half speed.
    """

    stream_of: StreamOf
    make_config: Callable[[], VerifAIConfig]
    #: objects per ``verify_batch`` call.  ``campaign_full`` verifies
    #: ~15 objects/s, so 50-object campaigns would leave a ten-second
    #: run two timed units; campaigns of 10 leave it ten.
    size: int
    #: campaigns per second of ``--seconds``
    campaigns_per_s: float

    def campaigns(self, seconds: float, at_least: int) -> int:
        return planned(self.campaigns_per_s, seconds, at_least)


WORKLOADS: Dict[str, Campaign] = {
    "campaign_claim": Campaign(
        workloads.claim_stream, VerifAIConfig, 50, 9.5,
    ),
    "campaign_tuple": Campaign(
        workloads.tuple_stream, VerifAIConfig, 50, 5.3,
    ),
    "campaign_full": Campaign(
        workloads.tuple_stream,
        lambda: VerifAIConfig(use_semantic_index=True, use_reranker=True),
        10, 1.0,
    ),
}

Done = List[Tuple[Labelled, VerificationReport]]


@dataclass
class Unit:
    """One timed campaign."""

    wall: float
    cpu: float
    #: host speed around the campaign (``bench.measure``)
    speed: float
    traced: bool
    stats: object


@dataclass
class Timed:
    """What the timed section of a run produced."""

    units: List[Unit]
    #: every object with its report, in order
    done: Done
    cut_short: bool

    def campaign_ms(self, normalised: bool = False) -> List[float]:
        """ms of every campaign, as measured or in reference-host ms."""
        return [
            unit.wall * (unit.speed if normalised else 1.0) * 1e3
            for unit in self.units
        ]

    def host_speed(self) -> float:
        return statistics.median(unit.speed for unit in self.units)


def run_campaigns(
    built: SetUp,
    campaign: Campaign,
    count: int,
    seconds: float,
    alternate_trace: bool = False,
) -> Timed:
    """``count`` campaigns of fresh objects, fewer if ``OVERRUN x
    seconds`` pass or the stream runs dry.  With ``alternate_trace``
    every second campaign runs ``trace=True``."""
    meter = Speedometer()
    deadline = now() + OVERRUN * seconds
    timed = Timed([], [], False)
    while len(timed.units) < count and now() < deadline:
        group = workloads.take(built.stream, campaign.size)
        if len(group) < campaign.size:
            break
        traced = alternate_trace and len(timed.units) % 2 == 1
        wall_start, cpu_start = now(), cpu_now()
        report = built.system.verify_batch(
            [item.obj for item in group], max_workers=1, trace=traced
        )
        wall, cpu = now() - wall_start, cpu_now() - cpu_start
        timed.done.extend(zip(group, report.reports))
        timed.units.append(
            Unit(wall, cpu, meter.lap(), traced, report.stats)
        )
    timed.cut_short = now() >= deadline
    return timed


def _digests(
    built: SetUp, traced: List[Labelled], done: Done, checked: int
) -> Dict[str, str]:
    head = done[:checked]
    return {
        "inputs": workloads.combine_digests({
            "lake": workloads.lake_digest(built.bundle.lake),
            "warm": workloads.objects_digest(i.obj for i in built.warm),
            "traced": workloads.objects_digest(i.obj for i in traced),
            "checked": workloads.objects_digest(i.obj for i, _ in head),
        }),
        "verdicts": workloads.verdicts_digest(
            report.final_verdict.name for _, report in head
        ),
    }


def _check(result: Result, built: SetUp, done: Done, checked: int) -> None:
    """Output checks shared by both passes."""
    result.fail(
        sum(1 for _, report in done if report.status == STATUS_FAILED),
        "status=FAILED",
    )
    head = done[:checked]
    if len(head) < checked:
        result.fail(checked - len(head), "operations short of the sample")
    result.fail(
        oracle_mismatches(built.system, head),
        "verdict differs from the uncached staged replay",
    )


def run(name: str, options: Options) -> Result:
    campaign = WORKLOADS[name]
    if name == "campaign_full":
        options.traced = min(options.traced, workloads.TRACED_OBJECTS_FULL)
        options.checked = min(options.checked, workloads.TRACED_OBJECTS_FULL)
    if options.trace:
        return _traced(name, options, campaign)
    return _measured(options, campaign)


# ----------------------------------------------------------------------
# measured pass (tracing off): the end-to-end metrics
# ----------------------------------------------------------------------
def _measured(options: Options, campaign: Campaign) -> Result:
    built = set_up(options, campaign.make_config(), campaign.stream_of)
    traced = workloads.take(built.stream, options.traced)  # kept disjoint
    timed = run_campaigns(
        built, campaign,
        campaign.campaigns(
            options.seconds, -(-options.checked // campaign.size)
        ),
        options.seconds,
    )
    result = Result(attempted=len(timed.done))
    if not timed.units:
        result.fail(1, "the object stream ran dry before the timed work")
        return result
    _check(result, built, timed.done, options.checked)
    campaign_ms = statistics.median(timed.campaign_ms(normalised=True))
    raw_campaign_ms = statistics.median(timed.campaign_ms())
    result.metrics = {
        "setup_s": built.seconds(normalised=True),
        "objects_per_s": campaign.size / campaign_ms * 1e3,
        "latency_p50_ms": campaign_ms,
        "passed_share": result.passed_share(),
        "accuracy": accuracy_of([
            (item.gold, report.final_verdict.name)
            for item, report in timed.done
        ]),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.digests = _digests(built, traced, timed.done, options.checked)
    result.notes.update({
        "campaigns": len(timed.units),
        "cut_short": timed.cut_short,
        "timed_s": sum(unit.wall for unit in timed.units),
        "raw_setup_s": built.seconds(),
        "raw_objects_per_s": campaign.size / raw_campaign_ms * 1e3,
        "raw_latency_p50_ms": raw_campaign_ms,
        "host_speed_ratio": timed.host_speed(),
    })
    return result


# ----------------------------------------------------------------------
# traced pass: the per-layer metrics
# ----------------------------------------------------------------------
def _traced(name: str, options: Options, campaign: Campaign) -> Result:
    built = set_up(options, campaign.make_config(), campaign.stream_of)
    system = built.system
    sample = workloads.take(built.stream, options.traced)
    result = Result()

    recorder = Recorder()
    walks = walk_sample(
        system, [item.obj for item in sample], campaign.size, recorder
    )
    result.fail(
        walks.mismatches, "replay verdict differs from system.verify()"
    )
    times = layer_times(recorder, walks)

    # untraced and traced campaigns, alternating, for the counters the
    # program exports and the cost of its own tracing
    window = CounterWindow()
    timed = run_campaigns(
        built, campaign, campaign.campaigns(options.seconds / 2.0, 2),
        options.seconds, alternate_trace=True,
    )
    window.close()
    units, done = timed.units, timed.done
    verified = len(done)
    result.attempted = len(sample) + verified
    _check(result, built, done, min(options.checked, len(done)))
    plain = [u for u in units if not u.traced]
    traced_units = [u for u in units if u.traced]
    if not plain or not traced_units:
        result.fail(1, "too few campaigns for the counter section")
        return result

    campaign_s = statistics.median(u.wall for u in plain)
    per_object_s = campaign_s / campaign.size
    stage = {
        key: sum(u.stats.stage_seconds[key] for u in plain)
        for key in ("retrieve", "verify", "total")
    }
    pairs = window.delta("verifier.verifications")
    metrics = walk_metrics(walks, times, recorder)
    metrics.update(seal_ms(system))
    metrics.update(built.layer_metrics())
    metrics.update({
        "text.analyze_cache_hit_ratio": window.hit_ratio(
            "text.analyze_cache.hits", "text.analyze_cache.misses"
        ),
        "core.batch.matrix_batches": statistics.mean(
            u.stats.matrix_batches for u in units
        ),
        "core.batch.unique_retrieval_ratio": ratio(
            sum(u.stats.unique_retrievals for u in units),
            sum(
                u.stats.unique_retrievals + u.stats.retrieval_cache_hits
                for u in units
            ),
        ),
        "core.indexer.payload_cache_hit_ratio": window.hit_ratio(
            "indexer.payload_cache.hits", "indexer.payload_cache.misses"
        ),
        # one chat per pair the outcome cache did not answer
        "llm.calls_per_object": (
            window.delta("verifier.cache.misses") / verified
        ),
        "core.verifier.pairs_per_object": pairs / verified,
        "core.verifier.cache_hit_ratio": ratio(
            window.delta("verifier.cache.hits"), pairs
        ),
        "provenance.records": float(len(system.provenance)),
        "latency_p95_ms": percentile([u.wall * 1e3 for u in plain], 95),
        "cpu_s_per_1k_objects": (
            statistics.median(u.cpu for u in plain) / campaign.size * 1000.0
        ),
        "core.batch.campaign_ms_p50": campaign_s * 1e3,
        "core.batch.retrieve_share": ratio(stage["retrieve"], stage["total"]),
        "core.batch.verify_share": ratio(stage["verify"], stage["total"]),
        "core.batch.overhead_us_per_object": (
            per_object_s - times.attributed_s()
        ) * 1e6,
        "core.indexer.mutations": window.mutation_calls(),
        "obs.trace_overhead_ratio": ratio(
            statistics.median(u.wall for u in traced_units), campaign_s
        ),
        "bench.trace_overhead_ratio": ratio(times.walked_s(), per_object_s),
        "bench.failed_share": 1.0 - result.passed_share(),
        "bench.host_speed_ratio": timed.host_speed(),
    })
    result.metrics = metrics
    result.digests = _digests(built, sample, done, options.checked)
    result.notes["trace_file"] = write_trace(options, name, recorder.spans)
    result.notes["latency_p95"] = tail_support(len(plain))
    return result
