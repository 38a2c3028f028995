"""The Agent: chooses which Verifier handles a (object, evidence) pair.

Section 3.3: "It utilizes multiple Verifiers, each tailored to a
specific task.  An Agent decides which Verifier to use for a given
task."  Local verifiers are preferred when they support the pair (data
privacy + in-distribution accuracy); the generic LLM verifier is the
fallback.  ``prefer_local=False`` flips the policy, which is how the
Table 2 comparison runs both sides.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.datalake.types import DataInstance
from repro.verify.base import VerificationOutcome, Verifier
from repro.verify.objects import DataObject


class VerifierAgent:
    """Dispatch policy over a pool of verifiers."""

    def __init__(
        self,
        local_verifiers: Sequence[Verifier] = (),
        fallback: Optional[Verifier] = None,
        prefer_local: bool = True,
    ) -> None:
        if fallback is None and not local_verifiers:
            raise ValueError("agent needs at least one verifier")
        self.local_verifiers: List[Verifier] = list(local_verifiers)
        self.fallback = fallback
        self.prefer_local = prefer_local

    def choose(self, obj: DataObject, evidence: DataInstance) -> Verifier:
        """The verifier that will handle this pair."""
        if self.prefer_local:
            for verifier in self.local_verifiers:
                if verifier.supports(obj, evidence):
                    return verifier
        if self.fallback is not None and self.fallback.supports(obj, evidence):
            return self.fallback
        # fallback unavailable: last resort is any local verifier that fits
        for verifier in self.local_verifiers:
            if verifier.supports(obj, evidence):
                return verifier
        raise LookupError(
            f"no verifier supports ({type(obj).__name__}, "
            f"{type(evidence).__name__})"
        )

    def verify(
        self,
        obj: DataObject,
        evidence: DataInstance,
        evidence_text: Optional[str] = None,
    ) -> VerificationOutcome:
        """Dispatch and verify one pair.

        ``evidence_text`` — ``serialize_instance(evidence)``, when the
        caller has rendered it already — goes only to a verifier whose
        ``verify`` is marked :func:`~repro.verify.base.reads_evidence_text`;
        every other verifier is called as ``verify(obj, evidence)``."""
        verify = self.choose(obj, evidence).verify
        if evidence_text is not None and getattr(
            verify, "reads_evidence_text", False
        ):
            return verify(obj, evidence, evidence_text)
        return verify(obj, evidence)

    def verify_all(
        self, obj: DataObject, evidence_list: Sequence[DataInstance]
    ) -> List[VerificationOutcome]:
        """Verify ``obj`` against every retrieved instance."""
        return [self.verify(obj, evidence) for evidence in evidence_list]
