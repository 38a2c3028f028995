"""From spans and counters to per-layer metric values.

A layer is a module under ``src/repro``; its time metrics are the mean
*self* time per call of the spans the replay records around its public
functions, in microseconds.  Three metrics are whole-call times because the
issue defines them so: ``verify.agent_verify_us`` (one evidence pair),
``core.indexer.search_batch_us_per_query.*`` (one matrix pass divided
by its queries) and ``core.pipeline.verify_us`` (the program's own
``verify()``, timed beside the walks).
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.core.pipeline import VerifAI, VerificationReport
from repro.verify.objects import DataObject

from bench.measure import now, ratio
from bench.replay import Replay, Walked
from bench.spans import Recorder, Span, self_times

#: spans reported once per evidence modality
_BY_MODALITY = (
    "index.bm25_search", "core.indexer.search", "core.indexer.search_batch",
)

#: metric name -> span key whose mean self time (us per call) it is
SELF_TIME_METRICS = {
    "verify.query_text_us": "verify.query_text",
    "text.analyze_us": "text.analyze",
    "index.bm25_search_us.tuple": "index.bm25_search.tuple",
    "index.bm25_search_us.text": "index.bm25_search.text",
    "index.bm25_search_us.table": "index.bm25_search.table",
    "core.indexer.search_us.tuple": "core.indexer.search.tuple",
    "core.indexer.search_us.text": "core.indexer.search.text",
    "core.indexer.search_us.table": "core.indexer.search.table",
    "index.vector_search_us": "index.vector_search",
    "index.combiner_fuse_us": "index.combiner_fuse",
    "core.reranker.rerank_us": "core.reranker.rerank",
    "core.indexer.fetch_payload_us": "core.indexer.fetch_payload",
    "datalake.resolve_us": "datalake.resolve",
    "datalake.serialize_instance_us": "datalake.serialize_instance",
    "llm.prompt_build_us": "llm.prompt_build",
    "llm.chat_us": "llm.chat",
    "llm.parse_response_us": "llm.parse_response",
    "core.verifier.verify_pool_us": "core.verifier.verify_pool",
    "trust.weighted_vote_us": "trust.weighted_vote",
    "provenance.record_us": "provenance.record",
    "serve.http.read_request_us": "serve.http.read_request",
    "serve.protocol.parse_object_us": "serve.protocol.parse_object",
    "serve.protocol.report_to_dict_us": "serve.protocol.report_to_dict",
    "serve.http.response_bytes_us": "serve.http.response_bytes",
}

ROOT_SPAN = "core.pipeline.verify"


def span_key(span: Span) -> str:
    modality = span.attrs.get("modality")
    if span.name in _BY_MODALITY and modality:
        return f"{span.name}.{modality}"
    return span.name


class LayerTimes:
    """Self and wall seconds per span key."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)

    def add(self, spans: Iterable[Span]) -> None:
        spans = list(spans)
        own = self_times(spans)
        for span in spans:
            key = span_key(span)
            self.calls[key] += 1
            self.self_s[key] += own[span.span_id]
            self.wall_s[key] += span.duration

    def mean_self_us(self, key: str) -> float:
        return ratio(self.self_s[key], self.calls[key]) * 1e6

    def mean_wall_us(self, key: str) -> float:
        return ratio(self.wall_s[key], self.calls[key]) * 1e6

    def attributed_s(self) -> float:
        """Mean seconds of one walk that some layer span below the root
        accounts for: the roots' durations minus the roots' own self
        time, per walk."""
        return ratio(
            self.wall_s[ROOT_SPAN] - self.self_s[ROOT_SPAN],
            self.calls[ROOT_SPAN],
        )

    def walked_s(self) -> float:
        """Mean seconds one walk took, root span to root span."""
        return ratio(self.wall_s[ROOT_SPAN], self.calls[ROOT_SPAN])


def time_metrics(times: LayerTimes, spans: Sequence[Span]) -> Dict[str, float]:
    """Every span-derived time metric a workload reports."""
    metrics = {
        name: times.mean_self_us(key)
        for name, key in SELF_TIME_METRICS.items()
    }
    metrics["verify.agent_verify_us"] = times.mean_wall_us(
        "verify.agent_verify"
    )
    queries: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name == "core.indexer.search_batch":
            queries[span_key(span)] += int(span.attrs["queries"])
    for modality in ("tuple", "text", "table"):
        key = f"core.indexer.search_batch.{modality}"
        metrics[f"core.indexer.search_batch_us_per_query.{modality}"] = (
            ratio(times.wall_s[key], queries[key]) * 1e6
        )
    return metrics


# ----------------------------------------------------------------------
# walking a sample beside the program's own verify()
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifyCall:
    """One timed call of the program's own ``verify()``."""

    position: int
    start: float
    seconds: float
    #: it ran before its object's walk, on caches the walk had not warmed
    first: bool


@dataclass
class Walks:
    """What walking a sample beside ``verify()`` found."""

    #: the program's own report of every sampled object, in order
    reports: List[VerificationReport] = field(default_factory=list)
    #: objects whose walk disagreed with ``verify()``
    mismatches: int = 0
    verify_calls: List[VerifyCall] = field(default_factory=list)
    #: trace ids of the walks that ran before their object's ``verify()``
    cold: List[str] = field(default_factory=list)
    walked: int = 0
    serialize_calls: int = 0
    prompt_chars: int = 0
    response_chars: int = 0
    rerank_candidates: int = 0
    rerank_calls: int = 0
    evidence_seen: set = field(default_factory=set)

    def count(self, walked: Walked) -> None:
        self.walked += 1
        self.serialize_calls += len(walked.outcomes)
        self.prompt_chars += walked.prompt_chars
        self.response_chars += walked.response_chars
        self.rerank_candidates += walked.rerank_candidates
        self.rerank_calls += walked.rerank_calls
        self.evidence_seen.update(walked.evidence_ids)

    def verify_us(self, first_only: bool = True) -> float:
        """Mean microseconds of the ``verify()`` calls (of those that
        ran before their object's walk, by default)."""
        calls = [c for c in self.verify_calls if c.first or not first_only]
        return ratio(sum(c.seconds for c in calls), len(calls)) * 1e6


def walk_sample(
    system: VerifAI, sample: Sequence[DataObject], batch: int,
    recorder: Recorder,
) -> Walks:
    """Walk every sampled object (spans), call the program's own
    ``verify()`` on it, and compare the two.

    Whichever runs second finds the analysis of the query text (and, in
    ``campaign_full``, the candidates' payloads) already cached by the
    first, so the order alternates and each side's *time* is taken only
    where it ran first: layer times from the walks at odd positions,
    ``verify()`` time from the calls at even ones.  The *share* of
    ``verify()`` the layers account for is taken over all of both, so
    that the same objects, half of them warm, stand on either side of
    the ratio.  After every ``batch`` objects their queries go through
    ``search_batch`` once.

    The collector runs between blocks of eight objects, not inside
    them: a full collection of this heap takes ~30 ms, and landing in
    one 200 us span it would be charged to whichever layer was unlucky.
    """
    replay = Replay(system, recorder)
    walks = Walks()
    gc.disable()
    try:
        for position, obj in enumerate(sample):
            if position % 8 == 0:
                gc.collect()
            walked = replay.walk(obj) if position % 2 else None
            start = now()
            report = system.verify(obj)
            elapsed = now() - start
            walks.verify_calls.append(
                VerifyCall(position, start, elapsed, walked is None)
            )
            if walked is None:
                walked = replay.walk(obj)
            else:
                walks.cold.append(obj.object_id)
            replay.probe_indexes(obj)
            walks.reports.append(report)
            walks.count(walked)
            if not walked.agrees_with(report):
                walks.mismatches += 1
            if (position + 1) % batch == 0 or position + 1 == len(sample):
                first = position - position % batch
                replay.probe_search_batch(sample[first:position + 1])
    finally:
        gc.enable()
    return walks


def layer_times(recorder: Recorder, walks: Walks) -> LayerTimes:
    """Layer times over the walks that ran cold, plus every span that
    belongs to no walk (probes, serve layers)."""
    cold = set(walks.cold)
    times = LayerTimes()
    times.add(
        span for span in recorder.spans
        if span.trace_id in cold or ":" in span.trace_id
    )
    return times


def walk_metrics(
    walks: Walks, times: LayerTimes, recorder: Recorder
) -> Dict[str, float]:
    """The layer metrics a walked sample yields, whatever the workload."""
    metrics = time_metrics(times, recorder.spans)
    every_walk = LayerTimes()
    every_walk.add(
        span for span in recorder.spans if ":" not in span.trace_id
    )
    metrics.update({
        "core.reranker.candidates_per_call": ratio(
            walks.rerank_candidates, walks.rerank_calls
        ),
        "datalake.serialize_calls_per_object": ratio(
            walks.serialize_calls, walks.walked
        ),
        "datalake.serialize_distinct_ratio": ratio(
            len(walks.evidence_seen), walks.serialize_calls
        ),
        "llm.prompt_chars_per_call": ratio(
            walks.prompt_chars, walks.serialize_calls
        ),
        "llm.response_chars_per_call": ratio(
            walks.response_chars, walks.serialize_calls
        ),
        "core.pipeline.verify_us": walks.verify_us(),
        "core.pipeline.attributed_share": ratio(
            every_walk.attributed_s() * 1e6,
            walks.verify_us(first_only=False),
        ),
    })
    return metrics
