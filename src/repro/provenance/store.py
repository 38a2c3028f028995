"""Verification lineage records.

A :class:`VerificationRecord` captures one end-to-end verification: the
query, every index's raw hits, the reranked shortlist, each verifier
outcome, and the final decision.  The store supports the debugging
queries Section 5 motivates: "which evidence drove this verdict?",
"which records relied on instance X?", "where did retrieval and
reranking disagree?".
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.snapshot import write_json
from repro.verify.verdict import Verdict

#: lifecycle states of a :class:`VerificationRecord`
RECORD_OPEN = "open"            # created, verification still running
RECORD_FINALIZED = "finalized"  # verification completed normally
RECORD_FAILED = "failed"        # verification aborted; ``error`` says why


@dataclass(frozen=True)
class RetrievalStep:
    """One stage of retrieval: which index/reranker returned which ids."""

    stage: str                       # e.g. "index:bm25", "combiner", "rerank"
    hits: Tuple[Tuple[str, float], ...]  # (instance_id, score), ranked


@dataclass
class VerificationRecord:
    """Lineage of one verify(g, L) call."""

    record_id: str
    object_id: str
    query: str
    retrieval: List[RetrievalStep] = field(default_factory=list)
    outcomes: List[Tuple[str, str, int, str]] = field(default_factory=list)
    # outcomes: (evidence_id, verifier, verdict int, explanation)
    final_verdict: Optional[int] = None
    final_margin: float = 0.0
    status: str = RECORD_OPEN
    error: str = ""
    #: id of the observability trace that covered this verification
    #: ("" when the run was not traced); the trace's spans carry this
    #: record's id back, so lineage and timing cross-link both ways
    trace_id: str = ""

    def add_stage(self, stage: str, hits) -> None:
        """Record one retrieval/rerank stage."""
        self.retrieval.append(
            RetrievalStep(
                stage=stage,
                hits=tuple((hit.instance_id, float(hit.score)) for hit in hits),
            )
        )

    def add_outcome(
        self, evidence_id: str, verifier: str, verdict: Verdict, explanation: str
    ) -> None:
        self.outcomes.append((evidence_id, verifier, int(verdict), explanation))

    def record_outcomes(self, outcomes) -> None:
        """Append every :class:`VerificationOutcome` in one call — the
        single shared recording path for the serial and batch engines."""
        for outcome in outcomes:
            self.add_outcome(
                outcome.evidence_id, outcome.verifier, outcome.verdict,
                outcome.explanation,
            )

    def finalize(self, final_verdict: Verdict, margin: float) -> None:
        """Close the record with the pooled decision."""
        self.final_verdict = int(final_verdict)
        self.final_margin = float(margin)
        self.status = RECORD_FINALIZED

    def mark_failed(self, error: str) -> None:
        """Close the record with a failure instead of leaving it open.

        The verdict is pinned to NOT_RELATED (a failed verification
        asserts nothing about the object) and the error is kept for the
        audit trail."""
        self.final_verdict = int(Verdict.NOT_RELATED)
        self.final_margin = 0.0
        self.status = RECORD_FAILED
        self.error = error

    @property
    def is_open(self) -> bool:
        """Whether the record is still dangling (never finalized)."""
        return self.status == RECORD_OPEN

    def evidence_ids(self) -> List[str]:
        """Every instance id this record touched, in stage order."""
        seen: Dict[str, None] = {}
        for step in self.retrieval:
            for instance_id, _ in step.hits:
                seen.setdefault(instance_id, None)
        return list(seen)


class ProvenanceStore:
    """Append-only store of verification records."""

    def __init__(self) -> None:
        self._records: Dict[str, VerificationRecord] = {}
        self._by_object: Dict[str, List[str]] = {}
        self._counter = 0
        # concurrent server requests open records from different
        # threads; an unguarded ``_counter += 1`` would hand two
        # requests the same record id
        self._lock = threading.Lock()

    def new_record(self, object_id: str, query: str) -> VerificationRecord:
        """Open a record for one verification run (thread-safe)."""
        with self._lock:
            self._counter += 1
            record = VerificationRecord(
                record_id=f"rec-{self._counter:06d}",
                object_id=object_id,
                query=query,
            )
            self._records[record.record_id] = record
            self._by_object.setdefault(object_id, []).append(record.record_id)
        return record

    def get(self, record_id: str) -> VerificationRecord:
        return self._records[record_id]

    def records_for_object(self, object_id: str) -> List[VerificationRecord]:
        """All verification runs for one data object."""
        return [self._records[r] for r in self._by_object.get(object_id, [])]

    def open_records(self) -> List[VerificationRecord]:
        """Records that were opened but never finalized or failed —
        dangling lineage a crashed campaign would leave behind.  A
        healthy store returns an empty list between campaigns."""
        return [r for r in self._records.values() if r.is_open]

    def records_using_evidence(self, instance_id: str) -> List[VerificationRecord]:
        """Every record whose pipeline touched ``instance_id`` — the
        query to run when a lake instance turns out to be flawed."""
        return [
            record
            for record in self._records.values()
            if instance_id in record.evidence_ids()
        ]

    def explain(self, record_id: str) -> str:
        """Human-readable replay of one verification."""
        record = self.get(record_id)
        lines = [
            f"record {record.record_id} for object {record.object_id}",
            f"query: {record.query}",
        ]
        if record.trace_id:
            lines.append(f"trace: {record.trace_id}")
        for step in record.retrieval:
            rendered = ", ".join(f"{i}:{s:.3f}" for i, s in step.hits[:5])
            lines.append(f"  [{step.stage}] {rendered}")
        for evidence_id, verifier, verdict, explanation in record.outcomes:
            lines.append(
                f"  verify({evidence_id}) by {verifier} -> "
                f"{Verdict(verdict)}: {explanation}"
            )
        if record.status == RECORD_FAILED:
            lines.append(f"  FAILED: {record.error}")
        if record.final_verdict is not None:
            lines.append(
                f"  final: {Verdict(record.final_verdict)} "
                f"(margin {record.final_margin:.2f})"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Dump all records as JSON."""
        payload = [asdict(record) for record in self._records.values()]
        write_json(payload, Path(path))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProvenanceStore":
        """Reload a store written by :meth:`save`."""
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        store = cls()
        for entry in payload:
            record = VerificationRecord(
                record_id=entry["record_id"],
                object_id=entry["object_id"],
                query=entry["query"],
                retrieval=[
                    RetrievalStep(
                        stage=step["stage"],
                        hits=tuple((i, s) for i, s in step["hits"]),
                    )
                    for step in entry["retrieval"]
                ],
                outcomes=[tuple(o) for o in entry["outcomes"]],
                final_verdict=entry["final_verdict"],
                final_margin=entry["final_margin"],
                # stores written before record lifecycles only persisted
                # completed runs
                status=entry.get("status", RECORD_FINALIZED),
                error=entry.get("error", ""),
                # stores written before the observability layer carry no
                # trace linkage
                trace_id=entry.get("trace_id", ""),
            )
            store._records[record.record_id] = record
            store._by_object.setdefault(record.object_id, []).append(
                record.record_id
            )
            number = int(record.record_id.rsplit("-", 1)[1])
            store._counter = max(store._counter, number)
        return store
