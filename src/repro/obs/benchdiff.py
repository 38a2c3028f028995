"""Benchmark regression gate: compare two BENCH_*.json snapshots.

``repro bench diff OLD NEW`` loads two
pytest-benchmark JSON files — or two directories of ``BENCH_*.json``
files paired by filename — matches benchmarks by ``fullname``, and
compares one summary statistic (``mean`` by default) with a noise
tolerance.  A benchmark whose NEW time exceeds OLD by more than
``threshold`` percent is a **regression**; the command prints the
comparison table, writes stable JSON with ``--json``, and exits
non-zero, which is what lets CI refuse a perf-regressing change the
same way it refuses a failing test.

Comparisons are directional on purpose: getting *faster* than the
baseline is reported (``improved``) but never fails the gate — the fix
is to refresh the committed baseline, not to block the change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: default noise tolerance, percent
DEFAULT_THRESHOLD_PCT = 25.0

#: comparison statuses
STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"


class BenchDiffError(ValueError):
    """A snapshot could not be loaded or compared (usage error)."""


def load_benchmarks(path) -> Dict[str, Dict[str, float]]:
    """``fullname -> stats`` from one pytest-benchmark JSON file."""
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchDiffError(f"{source}: cannot read ({exc})")
    except json.JSONDecodeError as exc:
        raise BenchDiffError(f"{source}: not valid JSON ({exc})")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise BenchDiffError(
            f"{source}: not a pytest-benchmark file "
            f"(missing 'benchmarks' list)"
        )
    table: Dict[str, Dict[str, float]] = {}
    for entry in benchmarks:
        if not isinstance(entry, dict):
            raise BenchDiffError(f"{source}: malformed benchmark entry")
        fullname = entry.get("fullname") or entry.get("name")
        stats = entry.get("stats")
        if not isinstance(fullname, str) or not isinstance(stats, dict):
            raise BenchDiffError(
                f"{source}: benchmark entry without fullname/stats"
            )
        table[fullname] = stats
    return table


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark's OLD-vs-NEW comparison."""

    fullname: str
    status: str
    old: Optional[float]
    new: Optional[float]

    @property
    def change_pct(self) -> Optional[float]:
        """Percent change NEW vs OLD (positive = slower); ``None`` when
        either side is missing or OLD is zero."""
        if self.old is None or self.new is None or self.old == 0:
            return None
        return (self.new - self.old) / self.old * 100.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "change_pct": self.change_pct,
            "fullname": self.fullname,
            "new": self.new,
            "old": self.old,
            "status": self.status,
        }


def diff_benchmarks(
    old: Dict[str, Dict[str, float]],
    new: Dict[str, Dict[str, float]],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    metric: str = "mean",
) -> List[BenchDelta]:
    """Compare matched benchmarks; sorted by fullname.

    Benchmarks present on only one side are reported ``added`` /
    ``removed`` — informational, never a gate failure: renames and new
    benchmarks must not require two-step landings.
    """
    if threshold_pct < 0:
        raise BenchDiffError(
            f"threshold must be >= 0, got {threshold_pct:g}"
        )
    deltas: List[BenchDelta] = []
    for fullname in sorted(set(old) | set(new)):
        old_stats = old.get(fullname)
        new_stats = new.get(fullname)
        if old_stats is None:
            value = _metric(new_stats, metric, fullname)
            deltas.append(BenchDelta(fullname, STATUS_ADDED, None, value))
            continue
        if new_stats is None:
            value = _metric(old_stats, metric, fullname)
            deltas.append(
                BenchDelta(fullname, STATUS_REMOVED, value, None)
            )
            continue
        old_value = _metric(old_stats, metric, fullname)
        new_value = _metric(new_stats, metric, fullname)
        if old_value > 0 and (
            (new_value - old_value) / old_value * 100.0 > threshold_pct
        ):
            status = STATUS_REGRESSION
        elif old_value > 0 and (
            (old_value - new_value) / old_value * 100.0 > threshold_pct
        ):
            status = STATUS_IMPROVED
        else:
            status = STATUS_OK
        deltas.append(BenchDelta(fullname, status, old_value, new_value))
    return deltas


def _metric(stats: Dict[str, float], metric: str, fullname: str) -> float:
    value = stats.get(metric)
    if not isinstance(value, (int, float)):
        raise BenchDiffError(
            f"benchmark {fullname!r} has no {metric!r} statistic"
        )
    return float(value)


def _pair_directories(
    old_dir: Path, new_dir: Path
) -> List[Tuple[Path, Path]]:
    """Pair ``BENCH_*.json`` files by filename across two directories.

    Only files present on *both* sides compare (a brand-new benchmark
    file has no baseline yet); at least one pair must exist.
    """
    old_files = {p.name: p for p in sorted(old_dir.glob("BENCH_*.json"))}
    new_files = {p.name: p for p in sorted(new_dir.glob("BENCH_*.json"))}
    pairs = [
        (old_files[name], new_files[name])
        for name in sorted(set(old_files) & set(new_files))
    ]
    if not pairs:
        raise BenchDiffError(
            f"no BENCH_*.json files common to {old_dir} and {new_dir}"
        )
    return pairs


@dataclass
class BenchDiffReport:
    """The gate's verdict over every compared snapshot."""

    threshold_pct: float
    metric: str
    deltas: List[BenchDelta]

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.status == STATUS_REGRESSION]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-shaped view (deltas sorted by fullname)."""
        return {
            "deltas": [
                d.to_dict()
                for d in sorted(self.deltas, key=lambda d: d.fullname)
            ],
            "metric": self.metric,
            "passed": self.passed,
            "regressions": len(self.regressions),
            "threshold_pct": self.threshold_pct,
        }

    def table(self) -> str:
        """Human-readable comparison table plus a verdict line."""
        rows = [("benchmark", "old", "new", "change", "status")]
        for delta in sorted(self.deltas, key=lambda d: d.fullname):
            change = delta.change_pct
            rows.append((
                delta.fullname,
                "-" if delta.old is None else f"{delta.old:.6f}s",
                "-" if delta.new is None else f"{delta.new:.6f}s",
                "-" if change is None else f"{change:+.1f}%",
                delta.status,
            ))
        widths = [
            max(len(row[col]) for row in rows) for col in range(5)
        ]
        lines = [
            "  ".join(
                cell.ljust(widths[col]) if col in (0, 4)
                else cell.rjust(widths[col])
                for col, cell in enumerate(row)
            ).rstrip()
            for row in rows
        ]
        if self.passed:
            lines.append(
                f"OK: no {self.metric} regression beyond "
                f"{self.threshold_pct:g}% across "
                f"{len(self.deltas)} benchmark(s)"
            )
        else:
            names = ", ".join(d.fullname for d in self.regressions)
            lines.append(
                f"REGRESSION: {len(self.regressions)} benchmark(s) "
                f"slower than baseline by more than "
                f"{self.threshold_pct:g}% ({self.metric}): {names}"
            )
        return "\n".join(lines)


def compare_paths(
    old_path,
    new_path,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    metric: str = "mean",
) -> BenchDiffReport:
    """The full gate: files compare directly, directories pair their
    ``BENCH_*.json`` files by name first."""
    old_p, new_p = Path(old_path), Path(new_path)
    if old_p.is_dir() != new_p.is_dir():
        raise BenchDiffError(
            f"cannot compare a directory with a file: {old_p} vs {new_p}"
        )
    pairs = (
        _pair_directories(old_p, new_p)
        if old_p.is_dir() else [(old_p, new_p)]
    )
    deltas: List[BenchDelta] = []
    for old_file, new_file in pairs:
        deltas.extend(diff_benchmarks(
            load_benchmarks(old_file),
            load_benchmarks(new_file),
            threshold_pct=threshold_pct,
            metric=metric,
        ))
    return BenchDiffReport(
        threshold_pct=threshold_pct, metric=metric, deltas=deltas
    )
