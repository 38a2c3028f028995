"""End-to-end pipeline accuracy (retrieval × verification combined).

The paper evaluates retrieval (Table 1) and verification (Table 2)
separately; a deployment cares about their product: *given a generated
object and nothing else, does VerifAI's final pooled verdict match the
ground truth?*  This experiment measures that for both object types and
for two Agent configurations:

* **generic** — the paper's default: every pair goes to the LLM verifier,
  and the first decisive pair in rank order decides;
* **local** — `prefer_local` with the PASTA verifier behind an
  aggressive reranker (k' = 1 table), the configuration the paper's
  privacy discussion motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.experiments.setup import Case, ExperimentContext, score
from repro.verify.pasta import PastaVerifier


@dataclass(frozen=True)
class EndToEndResult:
    """Final-verdict accuracies of one pipeline configuration."""

    configuration: str
    tuple_accuracy: float
    claim_accuracy: float
    tuple_undecided: float   # fraction ending NOT_RELATED (no usable evidence)
    claim_undecided: float


def _row(
    configuration: str, system: VerifAI, tuples: Sequence[Case],
    claims: Sequence[Case],
) -> EndToEndResult:
    """One configuration's row: a ``verify_batch`` campaign per stream,
    its final verdicts scored against gold."""
    scores = []
    for cases in (tuples, claims):
        batch = system.verify_batch([case.obj for case in cases])
        scores.append(score(
            [report.final_verdict for report in batch],
            [case.gold for case in cases],
        ))
    (tuple_acc, tuple_und), (claim_acc, claim_und) = scores
    return EndToEndResult(
        configuration, tuple_acc, claim_acc, tuple_und, claim_und
    )


def _local_system(context: ExperimentContext) -> VerifAI:
    """The local configuration: PASTA preferred behind the reranker, one
    table on the shortlist."""
    return VerifAI(
        context.bundle.lake,
        llm=context.verifier_llm,
        config=VerifAIConfig(
            prefer_local=True,
            use_reranker=True,
            k_coarse=50,
            k_fine={Modality.TUPLE: 3, Modality.TEXT: 3, Modality.TABLE: 1},
        ),
        local_verifiers=[PastaVerifier()],
    ).build_indexes()


def run_end_to_end(
    context: ExperimentContext, claim_limit: int = 150
) -> List[EndToEndResult]:
    """Measure final-verdict accuracy for both configurations."""
    tuples, claims = context.tuple_cases, context.claim_cases[:claim_limit]
    return [
        # the generic system is built once in the shared context
        _row("generic (LLM verifier)", context.system, tuples, claims),
        _row("local (PASTA + reranker k'=1)", _local_system(context),
             tuples, claims),
    ]
