"""The one-size-fits-all LLM verifier.

Builds the paper's verification prompt, sends it to the (simulated)
chat model, and parses the free-text verdict.  This is the default
Verifier in VerifAI: strong generalization — especially at recognizing
NOT_RELATED evidence — at the cost of noisier multi-step table
arithmetic.
"""

from __future__ import annotations

from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import parse_verification_response, verification_prompt
from repro.verify.base import VerificationOutcome, Verifier
from repro.verify.objects import ClaimObject, DataObject, TupleObject
from repro.verify.verdict import Verdict


class LLMVerifier(Verifier):
    """ChatGPT-style verifier over any (object, evidence) pair."""

    name = "llm"

    def __init__(self, llm: SimulatedLLM) -> None:
        self.llm = llm

    def supports(self, obj: DataObject, evidence: DataInstance) -> bool:
        """The generic model accepts every pair type."""
        return True

    def verify(
        self, obj: DataObject, evidence: DataInstance
    ) -> VerificationOutcome:
        evidence_text = serialize_instance(evidence)
        if isinstance(obj, TupleObject):
            prompt = verification_prompt(
                evidence=evidence_text,
                data=obj.query_text(),
                attribute=obj.attribute,
            )
        else:
            assert isinstance(obj, ClaimObject)
            prompt = verification_prompt(
                evidence=evidence_text,
                data=obj.text,
                context=obj.context or None,
            )
        response = self.llm.chat(prompt)
        verdict_text, explanation = parse_verification_response(response)
        verdict = Verdict.from_string(verdict_text)
        if verdict is None:
            # the model failed to follow the output format — treat as
            # unusable evidence rather than guessing a direction
            verdict = Verdict.NOT_RELATED
            explanation = f"unparseable response: {response[:120]}"
        return self._outcome(verdict, explanation, evidence)
