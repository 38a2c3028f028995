"""What every workload shares: options, results, in-process set-up,
the uncached oracle, counter deltas, and the trace file."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI, VerificationReport
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import get_registry
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeBundle

from bench import workloads
from bench.measure import Speedometer, now
from bench.replay import Replay
from bench.spans import NullRecorder, Span
from bench.workloads import Labelled

StreamOf = Callable[[LakeBundle, int], Iterator[Labelled]]

#: a run's timed work is a fixed count per second of ``--seconds``; on
#: a host so slow that it has taken this many times ``--seconds``, the
#: rest of it is dropped (and the run says so in its notes)
OVERRUN = 2.5


#: speed readings around each phase of a set-up (``Speedometer``)
SETUP_READINGS = 5


def planned(per_second: float, seconds: float, at_least: int = 1) -> int:
    """Units of timed work for a run of ``seconds``."""
    return max(at_least, round(per_second * seconds))


@dataclass
class Options:
    """One run's knobs (the driver sets seed, seconds and trace)."""

    seed: int
    seconds: float
    trace: bool
    tables: int = workloads.LAKE_TABLES
    warmup: int = workloads.WARMUP_OBJECTS
    warmup_requests: int = workloads.WARMUP_REQUESTS
    checked: int = workloads.CHECKED_OPERATIONS
    traced: int = workloads.TRACED_OBJECTS
    traced_cycles: int = workloads.TRACED_CYCLES
    #: seconds one open-loop slice of serve_mix lasts
    open_slice_s: float = 0.5
    out_dir: str = ".bench_out"


@dataclass
class Result:
    """What a workload hands back to ``bench.run``."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def passed_share(self, wrong_answers: int = 0) -> float:
        """1 - the issue's ``failed_share``: the share of attempted
        operations that neither failed a check nor (``wrong_answers``:
        lake_churn's stale re-reads) completed with a wrong verdict."""
        return 1.0 - (self.failed + wrong_answers) / self.attempted

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations and mark the run incorrect."""
        if count:
            self.failed += count
            self.correct = False
            self.notes.setdefault("failures", []).append(f"{count} x {why}")


# ----------------------------------------------------------------------
# in-process set-up (campaigns and lake_churn)
# ----------------------------------------------------------------------
@dataclass
class SetUp:
    """A built, warmed system and what building it cost: seconds per
    phase as measured, and the host speed around each phase
    (``bench.measure``)."""

    bundle: LakeBundle
    system: VerifAI
    stream: Iterator[Labelled]
    warm: List[Labelled]
    phases: Dict[str, float]
    speeds: Dict[str, float]

    def seconds(self, normalised: bool = False) -> float:
        return phase_seconds(self.phases, self.speeds, normalised)

    def layer_metrics(self) -> Dict[str, float]:
        """The ``setup.*`` layer metrics of an in-process set-up."""
        return {
            "setup.build_lake_s": self.phases["build_lake"],
            "setup.build_indexes_s": self.phases["build_indexes"],
            "setup.first_query_seal_s": self.phases["first_query"],
        }


def phase_seconds(
    phases: Dict[str, float], speeds: Dict[str, float], normalised: bool
) -> float:
    """Total of a set-up's phases, as measured or in reference-host
    seconds."""
    return sum(
        seconds * (speeds[name] if normalised else 1.0)
        for name, seconds in phases.items()
    )


def set_up(
    options: Options, config: VerifAIConfig, stream_of: StreamOf
) -> SetUp:
    """Build the lake, the system and its indexes, and warm it up."""
    meter = Speedometer(SETUP_READINGS)
    phases: Dict[str, float] = {}
    speeds: Dict[str, float] = {}

    start = now()
    bundle = workloads.build_bundle(options.seed, options.tables)
    phases["build_lake"] = now() - start
    speeds["build_lake"] = meter.lap()

    start = now()
    system = VerifAI(
        bundle.lake,
        llm=SimulatedLLM(knowledge=None, seed=options.seed + 4),
        config=config,
    ).build_indexes()
    phases["build_indexes"] = now() - start
    speeds["build_indexes"] = meter.lap()

    stream = stream_of(bundle, options.seed)
    warm = workloads.take(stream, options.warmup)
    meter.lap()
    start = now()
    system.verify(warm[0].obj)
    phases["first_query"] = now() - start
    speeds["first_query"] = meter.lap()
    start = now()
    system.verify_batch([item.obj for item in warm[1:]], max_workers=1)
    phases["warm_up"] = now() - start
    speeds["warm_up"] = meter.lap()
    return SetUp(bundle, system, stream, warm, phases, speeds)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def oracle_mismatches(
    system: VerifAI,
    checked: Sequence[Tuple[Labelled, VerificationReport]],
) -> int:
    """How many reports disagree with an uncached staged replay of the
    same object (verdict or evidence list)."""
    replay = Replay(system, NullRecorder())
    return sum(
        1 for item, report in checked
        if not replay.walk(item.obj).agrees_with(report)
    )


def accuracy_of(pairs: Sequence[Tuple[Optional[Verdict], str]]) -> float:
    """Share of ``(gold label, verdict name)`` pairs that agree, over
    the labelled ones."""
    # Verdict.VERIFIED is 0: test for None, not truth
    labelled = [
        (gold, verdict) for gold, verdict in pairs if gold is not None
    ]
    if not labelled:
        raise ValueError("accuracy over no labelled objects")
    return sum(
        1 for gold, verdict in labelled if gold.name == verdict
    ) / len(labelled)


# ----------------------------------------------------------------------
# counters the program already exports
# ----------------------------------------------------------------------
class CounterWindow:
    """Deltas of ``get_registry()`` values over a section."""

    def __init__(self) -> None:
        self._before = get_registry().snapshot()
        self._after: Dict[str, float] = {}

    def close(self) -> "CounterWindow":
        self._after = get_registry().snapshot()
        return self

    def delta(self, name: str) -> float:
        return self._after.get(name, 0.0) - self._before.get(name, 0.0)

    def mutation_calls(self) -> float:
        """Indexer mutation calls in the section: an update counts in
        all three of the program's counters, so it is subtracted once."""
        return (
            self.delta("indexer.mutations.added")
            + self.delta("indexer.mutations.removed")
            - self.delta("indexer.mutations.updated")
        )

    def hit_ratio(self, hits: str, misses: str) -> float:
        """hits / (hits + misses), 0 when the section saw neither."""
        good, bad = self.delta(hits), self.delta(misses)
        return good / (good + bad) if good + bad else 0.0


def write_trace(
    options: Options, workload: str, spans: Sequence[Span]
) -> str:
    """Write the run's spans to ``<out>/trace-<workload>.json``."""
    os.makedirs(options.out_dir, exist_ok=True)
    path = os.path.join(options.out_dir, f"trace-{workload}.json")
    payload = {
        "workload": workload,
        "seed": options.seed,
        "clock": "time.perf_counter seconds",
        "spans": [span.to_dict() for span in spans],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path
