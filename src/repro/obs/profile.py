"""Per-stage wall/CPU profiling and a thread-sampling stack profiler.

Two complementary answers to "*why* is this slow":

* :class:`StageProfile` — deterministic attribution.  A profiled
  ``verify_batch`` run (``profile=True``) records the usual span tree
  plus thread-CPU stamps (both read through injectable
  :class:`~repro.obs.clock.Clock` seams, so TickClock tests stay
  byte-stable) and folds it into per-stage **self time**: the wall and
  CPU seconds spent in a stage itself, children excluded.  Self times
  sum to the campaign's total by construction, so the profile says
  exactly where every second went.  The collapsed-stack rendering
  (``name;name;name <microseconds>``) is the format flamegraph
  tooling eats directly;
* :class:`StackSampler` — statistical attribution for code that is not
  span-instrumented.  A daemon thread snapshots every live thread's
  Python stack at a fixed interval via :func:`sys._current_frames` and
  aggregates the frames into the same collapsed-stack format, sample
  counts as values.  ``repro profile -- <cmd>`` wraps any CLI
  subcommand in one.

Neither path touches default-config traces: CPU stamps appear only when
a ``cpu_clock`` was injected into the tracer, and the sampler observes
from outside the instrumented code entirely.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import Span, Trace

#: separator collapsed-stack tooling expects between frames
STACK_SEP = ";"


@dataclass(frozen=True)
class StageEntry:
    """Aggregated self-time of one stage path (root → stage names)."""

    stack: Tuple[str, ...]
    wall_seconds: float
    cpu_seconds: Optional[float]
    count: int

    @property
    def label(self) -> str:
        return STACK_SEP.join(self.stack)


class StageProfile:
    """Self-time attribution of one profiled campaign.

    Entries are keyed by the stack of span *names* from the root
    (``verify_batch;verify;verify_pool``); multiple spans with the same
    name stack (every per-object ``verify``) aggregate into one entry.
    """

    def __init__(self) -> None:
        self._wall: Dict[Tuple[str, ...], float] = {}
        self._cpu: Dict[Tuple[str, ...], float] = {}
        self._cpu_known: Dict[Tuple[str, ...], bool] = {}
        self._count: Dict[Tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(
        self,
        stack: Sequence[str],
        wall_seconds: float,
        cpu_seconds: Optional[float] = None,
        count: int = 1,
    ) -> None:
        """Fold one measured slice of self-time into the profile."""
        key = tuple(stack)
        if not key:
            raise ValueError("stage stack must not be empty")
        self._wall[key] = self._wall.get(key, 0.0) + max(0.0, wall_seconds)
        if cpu_seconds is not None:
            self._cpu[key] = self._cpu.get(key, 0.0) + max(0.0, cpu_seconds)
            self._cpu_known[key] = True
        self._count[key] = self._count.get(key, 0) + count

    @classmethod
    def from_trace(cls, trace: Trace) -> "StageProfile":
        """Fold a finished trace into per-stage self times.

        A span's self time is its duration minus its children's
        durations (clamped at zero — a parent stamped by one thread and
        children by another can disagree by a scheduler quantum).
        """
        profile = cls()
        children: Dict[str, List[Span]] = {}
        for span in trace.spans:
            if span.parent_id:
                children.setdefault(span.parent_id, []).append(span)
        stacks: Dict[str, Tuple[str, ...]] = {}
        for span in trace.spans:  # depth-first: parents precede children
            parent_stack = stacks.get(span.parent_id, ())
            stack = parent_stack + (span.name,)
            stacks[span.span_id] = stack
            child_wall = sum(
                c.duration for c in children.get(span.span_id, ())
            )
            self_wall = max(0.0, span.duration - child_wall)
            self_cpu: Optional[float] = None
            cpu = span.cpu_duration
            if cpu is not None:
                child_cpu = sum(
                    c.cpu_duration or 0.0
                    for c in children.get(span.span_id, ())
                )
                self_cpu = max(0.0, cpu - child_cpu)
            profile.add(stack, self_wall, self_cpu)
        return profile

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def entries(self) -> List[StageEntry]:
        """All stages, sorted by stack (deterministic)."""
        return [
            StageEntry(
                stack=key,
                wall_seconds=self._wall[key],
                cpu_seconds=(
                    self._cpu.get(key, 0.0)
                    if self._cpu_known.get(key) else None
                ),
                count=self._count[key],
            )
            for key in sorted(self._wall)
        ]

    @property
    def total_wall_seconds(self) -> float:
        """Sum of all self times == the profiled run's wall time."""
        return sum(self._wall.values())

    def attributed_fraction(self) -> float:
        """Share of wall time landing in *named* stages below the root.

        ``1.0`` means every second is explained by a specific pipeline
        stage; the remainder is the root span's own bookkeeping
        (planning, record allocation, stats assembly).
        """
        total = self.total_wall_seconds
        if total <= 0:
            return 0.0
        root_self = sum(
            wall for key, wall in self._wall.items() if len(key) == 1
        )
        return (total - root_self) / total

    def collapsed(self, cpu: bool = False) -> str:
        """Collapsed-stack text: one ``a;b;c <microseconds>`` line per
        stage, sorted by stack.  ``cpu=True`` emits CPU self time
        instead of wall (stages without CPU stamps are dropped)."""
        lines = []
        for entry in self.entries():
            value = entry.cpu_seconds if cpu else entry.wall_seconds
            if value is None:
                continue
            lines.append(f"{entry.label} {int(round(value * 1e6))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def table(self) -> str:
        """Human-readable per-stage table (self wall/CPU, call counts)."""
        rows: List[Tuple[str, str, str, str]] = [
            ("stage", "self wall", "self cpu", "count")
        ]
        for entry in self.entries():
            cpu = (
                f"{entry.cpu_seconds:.4f}s"
                if entry.cpu_seconds is not None else "-"
            )
            rows.append((
                entry.label,
                f"{entry.wall_seconds:.4f}s",
                cpu,
                str(entry.count),
            ))
        widths = [
            max(len(row[col]) for row in rows) for col in range(4)
        ]
        lines = [
            "  ".join(
                cell.ljust(widths[col]) if col == 0 else
                cell.rjust(widths[col])
                for col, cell in enumerate(row)
            ).rstrip()
            for row in rows
        ]
        total = self.total_wall_seconds
        lines.append(
            f"attributed {self.attributed_fraction():.1%} of "
            f"{total:.4f}s wall to named stages"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-shaped view (sorted stages)."""
        return {
            "attributed_fraction": self.attributed_fraction(),
            "stages": [
                {
                    "stack": entry.label,
                    "wall_seconds": entry.wall_seconds,
                    "cpu_seconds": entry.cpu_seconds,
                    "count": entry.count,
                }
                for entry in self.entries()
            ],
            "total_wall_seconds": self.total_wall_seconds,
        }


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------
def _frame_label(frame) -> str:
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


class StackSampler:
    """Periodic whole-process Python stack sampler.

    A daemon thread wakes every ``interval`` seconds, snapshots every
    thread's stack (:func:`sys._current_frames` — no cooperation needed
    from the sampled code), and counts leaf-to-root frame paths.  The
    output is collapsed-stack text whose values are sample counts; at
    interval ``i`` a stage sampled ``n`` times consumed roughly
    ``n * i`` seconds of wall time.

    Sampling is wall-clock-paced by nature (``time.sleep``), so the
    sampler never participates in deterministic tests — it is the
    opt-in, production-debugging half of the profiler; the span-based
    :class:`StageProfile` is the deterministic half.
    """

    def __init__(self, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self._samples: Dict[Tuple[str, ...], int] = {}
        self._sample_count = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        return self

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def sample_for(self, seconds: float) -> "StackSampler":
        """Run for ``seconds`` of wall time, blocking, then stop."""
        if seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        self.start()
        time.sleep(seconds)
        return self.stop()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._take_sample(me)

    def _take_sample(self, skip_ident: int) -> None:
        frames = sys._current_frames()
        stacks: List[Tuple[str, ...]] = []
        for ident, frame in frames.items():
            if ident == skip_ident:
                continue
            labels: List[str] = []
            while frame is not None:
                labels.append(_frame_label(frame))
                frame = frame.f_back
            stacks.append(tuple(reversed(labels)))
        with self._lock:
            self._sample_count += 1
            for stack in stacks:
                self._samples[stack] = self._samples.get(stack, 0) + 1

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        with self._lock:
            return self._sample_count

    def collapsed(self) -> str:
        """Collapsed-stack text (values are sample counts), sorted."""
        with self._lock:
            samples = dict(self._samples)
        lines = [
            f"{STACK_SEP.join(stack)} {samples[stack]}"
            for stack in sorted(samples)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class SampledRun:
    """What ``repro profile -- <cmd>`` hands back."""

    exit_code: int
    collapsed: str
    samples: int = 0
    #: seconds of wall time one sample represents
    interval: float = 0.0


def sample_callable(fn, interval: float = 0.005) -> SampledRun:
    """Run ``fn()`` under a :class:`StackSampler`; fn's return value is
    the exit code (``None`` maps to 0)."""
    sampler = StackSampler(interval=interval)
    with sampler:
        result = fn()
    return SampledRun(
        exit_code=int(result or 0),
        collapsed=sampler.collapsed(),
        samples=sampler.sample_count,
        interval=interval,
    )
