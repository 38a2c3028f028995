"""The Verifier module (Section 3.3).

``verify(g, x) -> VERIFIED | REFUTED | NOT_RELATED`` for a generated
data object ``g`` and a retrieved data instance ``x``.  Two families of
verifiers, as in the paper:

* :class:`LLMVerifier` — the one-size-fits-all model (ChatGPT stand-in),
  strong at generalization / relatedness detection;
* local, task-specific models: :class:`PastaVerifier` for (text, table)
  — exact table-operation execution, binary output, brittle on
  out-of-distribution evidence — and :class:`TupleVerifier`, a trained
  classifier for (tuple, tuple) pairs (the RoBERTa stand-in).

A :class:`VerifierAgent` decides which verifier handles a given
(object, evidence) pair.
"""

from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationError, VerificationOutcome, Verifier
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, DataObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.tuple_verifier import TupleVerifier
from repro.verify.verdict import Verdict

__all__ = [
    "ClaimObject",
    "DataObject",
    "LLMVerifier",
    "PastaVerifier",
    "TupleObject",
    "TupleVerifier",
    "VerificationError",
    "VerificationOutcome",
    "Verdict",
    "Verifier",
    "VerifierAgent",
]
