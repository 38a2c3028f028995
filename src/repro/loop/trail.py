"""The orchestration audit trail (JSONL, schema ``loop-trail/v1``).

Every decision the orchestrate-until-pass loop makes lands here as one
JSON object per line, in the order it happened: the run header, each
draft the generator produced, each verdict the verifier returned (with
the provenance ``record_id`` and trace id it cross-links to), each
task's terminal state, and the run summary.

Determinism contract: under a frozen
:class:`~repro.obs.clock.TickClock`, two runs of the same seeded loop
serialize to **byte-identical** JSONL.  That is why entries carry
nothing run-shape-dependent (no wall-clock durations) and why
serialization pins key order and separators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.clock import Clock, MonotonicClock

#: schema tag stamped on every run header
SCHEMA = "loop-trail/v1"

#: value types a trail entry field may carry
TrailValue = Union[str, int, float, bool, None]


def _dumps(entry: Dict[str, TrailValue]) -> str:
    """One trail entry as canonical compact JSON (sorted keys, no
    whitespace) — the byte-stability contract of the trail."""
    return json.dumps(
        entry, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


@dataclass
class AuditTrail:
    """An append-only record of one orchestration run.

    Entries are plain dicts (JSON-shaped); :meth:`append` stamps each
    with the injected clock's time and a per-trail sequence number, so
    a reader can detect truncation and order entries without trusting
    timestamps (a frozen test clock makes them all equal).
    """

    clock: Clock = field(default_factory=MonotonicClock)
    entries: List[Dict[str, TrailValue]] = field(default_factory=list)

    def append(self, kind: str, **fields: TrailValue) -> Dict[str, TrailValue]:
        """Record one entry; returns it (mainly for tests)."""
        entry: Dict[str, TrailValue] = {
            "seq": len(self.entries) + 1,
            "time": self.clock.now(),
            "kind": kind,
        }
        for key, value in fields.items():
            if key in entry:
                raise ValueError(f"reserved trail field {key!r}")
            entry[key] = value
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # structured appenders (the schema lives here, not at call sites)
    # ------------------------------------------------------------------
    def start(self, *, tasks: int, max_iters: int, seed: Optional[int]) -> None:
        self.append(
            "start",
            schema=SCHEMA,
            tasks=tasks,
            max_iters=max_iters,
            seed=seed,
        )

    def draft(
        self,
        *,
        task_id: str,
        iteration: int,
        column: str,
        value: str,
        revised: bool,
    ) -> None:
        self.append(
            "draft",
            task_id=task_id,
            iteration=iteration,
            column=column,
            value=value,
            revised=revised,
        )

    def verdict(
        self,
        *,
        task_id: str,
        iteration: int,
        verdict: str,
        margin: float,
        record_id: str,
        trace_id: str,
        evidence: int,
        stated_value: Optional[str],
        stated_evidence_id: Optional[str],
    ) -> None:
        self.append(
            "verdict",
            task_id=task_id,
            iteration=iteration,
            verdict=verdict,
            margin=margin,
            record_id=record_id,
            trace_id=trace_id,
            evidence=evidence,
            stated_value=stated_value,
            stated_evidence_id=stated_evidence_id,
        )

    def task_end(self, *, task_id: str, state: str, iterations: int) -> None:
        self.append(
            "task_end", task_id=task_id, state=state, iterations=iterations
        )

    def summary(
        self,
        *,
        passed: int,
        exhausted: int,
        rounds: int,
        drafts: int,
        revisions: int,
    ) -> None:
        self.append(
            "summary",
            passed=passed,
            exhausted=exhausted,
            rounds=rounds,
            drafts=drafts,
            revisions=revisions,
        )

    # ------------------------------------------------------------------
    # reading / serialization
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Dict[str, TrailValue]]:
        return iter(self.entries)

    def of_kind(self, kind: str) -> List[Dict[str, TrailValue]]:
        return [entry for entry in self.entries if entry["kind"] == kind]

    def to_jsonl(self) -> str:
        """The whole trail, one canonical JSON object per line."""
        lines = [_dumps(entry) for entry in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


def read_trail(text: str) -> List[Dict[str, TrailValue]]:
    """Parse a JSONL trail back into entries (schema-checked header)."""
    entries: List[Dict[str, TrailValue]] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    if entries and entries[0].get("kind") == "start":
        schema = entries[0].get("schema")
        if schema != SCHEMA:
            raise ValueError(f"unsupported trail schema {schema!r}")
    return entries
