"""Clocks, the reference burst, process counters, and order statistics.

The hosts this benchmark runs on change speed under it, for minutes at
a time, by more than any bound a gate could use: eight runs of one
workload at one seed, made one after the other while the host went from
slow to fast, read a median ``campaign_claim`` campaign of 93, 86, 83,
77, 53, 52, 49 and 52 ms.  CPU time stretches with wall time, so it is
no way out.

So the gated wall-clock metrics (``setup_s``, ``objects_per_s``,
``latency_p50_ms``) are reported in **reference-host seconds**: each
timed unit of the measured pass (one campaign, one churn cycle,
one slice of requests, one phase of the set-up) is bracketed by a short
fixed *reference burst* -- dict look-ups, list reads, integer
arithmetic and string splitting over a few megabytes, the mix the
program is made of, none of its code -- and its wall time is multiplied
by ``BURST_REFERENCE_S / burst``: what the unit would have taken on a
host that runs the burst in exactly ``BURST_REFERENCE_S``.  On those
eight runs that brings the quartile spread of the median campaign from
52% to 6%, and of ``lake_churn``'s throughput from 68% to 7%
(bench/README.md has the table, and what a smaller burst does).

Everything else is reported as measured: CPU time, memory, every
per-layer time and the trace files; the open loop's arrival rates are
real requests per second.  Each run also reports the raw counterparts
of the normalised numbers and the host speed it saw (``raw_setup_s``,
``raw_objects_per_s``, ``raw_latency_p50_ms``, ``host_speed_ratio`` in
its notes).
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

now = time.perf_counter
cpu_now = time.process_time

#: one burst's wall time on the reference host.  A constant, not a
#: calibration: it defines the unit.
BURST_REFERENCE_S = 0.0035


def _burst_inputs() -> Tuple[Dict[str, int], List[str], List[int], List[int], str]:
    rng = random.Random(1)
    table = {f"key{i}": i for i in range(20000)}
    keys = [f"key{rng.randrange(20000)}" for _ in range(4000)]
    cells = list(range(100000))
    picks = [rng.randrange(100000) for _ in range(5000)]
    sentence = "the quick brown fox jumps over the lazy dog %d " * 40
    return table, keys, cells, picks, sentence


_TABLE, _KEYS, _CELLS, _PICKS, _SENTENCE = _burst_inputs()


def _burst() -> float:
    start = now()
    acc = 0
    for i in range(6000):
        acc += i * i
    table = _TABLE
    for key in _KEYS:
        acc += table[key]
    cells = _CELLS
    for pick in _PICKS:
        acc += cells[pick]
    for i in range(60):
        words = (_SENTENCE % ((i,) * 40)).lower().split()
        acc += len(" | ".join(words))
    return now() - start


def host_speed(readings: int = 1) -> float:
    """Speed of this host right now relative to the reference (1.0 =
    reference, 0.5 = half as fast).  A reading is the faster of two
    bursts, so one preempted burst does not read as a slow host; the
    result is the median of ``readings`` of them."""
    return statistics.median(
        BURST_REFERENCE_S / min(_burst(), _burst()) for _ in range(readings)
    )


class Speedometer:
    """Host speed over consecutive timed units: ``lap()`` samples the
    speed and returns the mean of this and the previous sample, the
    speed that applied to whatever ran between the two calls.

    One reading per sample suits units of a tenth of a second, of which
    a run has a hundred and reports the median.  A phase of the set-up
    lasts seconds and there is one of each, so the set-up asks for more
    ``readings`` per sample.
    """

    def __init__(self, readings: int = 1) -> None:
        self._readings = readings
        self._last = host_speed(readings)

    def lap(self) -> float:
        current = host_speed(self._readings)
        speed = (self._last + current) / 2.0
        self._last = current
        return speed


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100; raises on empty input."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the
    nearest-rank q-th percentile."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(count * q / 100.0))


def highest_supported_percentile(
    count: int,
    candidates: Iterable[float] = (99.9, 99.0, 95.0, 90.0),
    beyond: int = 10,
) -> Optional[float]:
    """The highest candidate percentile with at least ``beyond``
    samples past it, or ``None`` when the sample supports none."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= beyond:
            return q
    return None


def tail_support(count: int) -> Dict[str, object]:
    """What a latency sample of ``count`` supports, for a run's notes:
    a percentile is only reported with its sample count beside it."""
    return {
        "samples": count,
        "beyond_p95": samples_beyond(count, 95),
        "highest_percentile_with_10_beyond": highest_supported_percentile(
            count
        ),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``:
    the run-to-run spread the benchmark's bounds are set against."""
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if quartiles[2] == quartiles[0] else math.inf
    return (quartiles[2] - quartiles[0]) / abs(middle)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# process counters (Linux /proc)
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process in MB (this process when ``pid`` is None)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def process_cpu_s(pid: int) -> float:
    """user + system CPU seconds of another process, from
    ``/proc/<pid>/stat`` (10 ms ticks)."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        stat = handle.read()
    # the command name may contain spaces; fields resume after ')'
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# ----------------------------------------------------------------------
# host stamp
# ----------------------------------------------------------------------
def host_stamp(root: str) -> Dict[str, object]:
    """What a results file is stamped with: commit, cores, versions."""
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "burst_reference_s": BURST_REFERENCE_S,
    }
