"""Verifier interface and outcome record."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.datalake.types import DataInstance, instance_id_of
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict


class VerificationError(RuntimeError):
    """A verifier (or a stage feeding it) failed on one object.

    The batch engine's per-object error boundary treats this — like any
    other ``Exception`` — as a per-object failure: the object's report
    comes back ``FAILED`` and its provenance record is finalized with
    the error instead of the whole campaign aborting.  Raise it from
    custom verifiers to signal a fault that is *about the input*.
    """


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one verify(g, x) call, with its explanation trail."""

    verdict: Verdict
    explanation: str
    verifier: str
    evidence_id: str

    @property
    def is_verified(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    @property
    def is_refuted(self) -> bool:
        return self.verdict is Verdict.REFUTED


class Verifier(abc.ABC):
    """Maps a (data object, data instance) pair to a ternary verdict."""

    name: str = "verifier"

    @abc.abstractmethod
    def verify(self, obj: DataObject, evidence: DataInstance) -> VerificationOutcome:
        """Verify ``obj`` against one retrieved ``evidence`` instance."""

    @abc.abstractmethod
    def supports(self, obj: DataObject, evidence: DataInstance) -> bool:
        """Whether this verifier handles the given pair type."""

    def _outcome(
        self, verdict: Verdict, explanation: str, evidence: DataInstance
    ) -> VerificationOutcome:
        return VerificationOutcome(
            verdict=verdict,
            explanation=explanation,
            verifier=self.name,
            evidence_id=instance_id_of(evidence),
        )
