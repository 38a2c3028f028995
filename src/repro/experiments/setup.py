"""Shared experiment fixtures.

Everything the Section 4 experiments need — the lake, the workloads, the
generator LLM with noisy parametric knowledge, the evidence-grounded
verifier LLM, and the generated tuples — built once per scale profile
and cached in-process.

Scale profiles
--------------
* ``small`` — CI-sized (fast; same relevance structure);
* ``medium`` — the default benchmark scale;
* ``paper`` — a larger lake approximating the paper's corpus shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.claims.engine import TableQueryEngine
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.llm.knowledge import WorldKnowledge
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import parse_completed_table, tuple_completion_prompt
from repro.workloads.builder import LakeBundle, LakeConfig, build_lake
from repro.workloads.claimwl import ClaimWorkload, build_claim_workload
from repro.workloads.tuplecomp import (
    TupleCompletionWorkload,
    build_tuple_workload,
)

SCALES: Dict[str, Dict[str, int]] = {
    "small": {"num_tables": 150, "num_tuples": 60, "num_claims": 120},
    "medium": {"num_tables": 400, "num_tuples": 100, "num_claims": 300},
    "paper": {"num_tables": 1200, "num_tuples": 100, "num_claims": 1300},
}


@dataclass
class GeneratedTuple:
    """One tuple completion produced by the generator LLM."""

    task_id: str
    table_id: str
    row_index: int
    column: str
    true_value: str
    generated_value: str

    @property
    def is_correct(self) -> bool:
        return TableQueryEngine.values_match(self.generated_value, self.true_value)


@dataclass
class ExperimentContext:
    """Everything Section 4 needs, built for one scale profile."""

    scale: str
    seed: int
    bundle: LakeBundle
    tuple_workload: TupleCompletionWorkload
    claim_workload: ClaimWorkload
    generator: SimulatedLLM        # has noisy parametric knowledge
    verifier_llm: SimulatedLLM     # evidence-grounded, no knowledge needed
    system: VerifAI
    generated: List[GeneratedTuple] = field(default_factory=list)

    @property
    def completion_accuracy(self) -> float:
        """No-evidence imputation accuracy of the generator."""
        if not self.generated:
            return 0.0
        return sum(1 for g in self.generated if g.is_correct) / len(self.generated)


_CACHE: Dict[Tuple[str, int], ExperimentContext] = {}


def _generate_completions(
    context_bundle: LakeBundle,
    workload: TupleCompletionWorkload,
    generator: SimulatedLLM,
) -> List[GeneratedTuple]:
    """Ask the generator to impute every blanked cell (batched per table,
    as the paper's prompt template batches same-schema tuples)."""
    generated: List[GeneratedTuple] = []
    for task in workload:
        masked = task.masked_row()
        table = context_bundle.lake.table(task.row.table_id)
        prompt = tuple_completion_prompt(
            table.caption, masked.columns, [masked.values]
        )
        response = generator.chat(prompt)
        parsed = parse_completed_table(response)
        if parsed is None:
            value = ""
        else:
            header, rows = parsed
            value = dict(zip(header, rows[0])).get(task.column, "")
        generated.append(
            GeneratedTuple(
                task_id=task.task_id,
                table_id=task.row.table_id,
                row_index=task.row.row_index,
                column=task.column,
                true_value=task.true_value,
                generated_value=value,
            )
        )
    return generated


def get_context(
    scale: str = "small",
    seed: int = 3,
    config: Optional[VerifAIConfig] = None,
) -> ExperimentContext:
    """Build (or fetch from cache) the experiment context for a scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    cache_key = (scale, seed)
    if config is None and cache_key in _CACHE:
        return _CACHE[cache_key]
    sizes = SCALES[scale]
    bundle = build_lake(LakeConfig(num_tables=sizes["num_tables"], seed=seed))
    tuple_workload = build_tuple_workload(
        bundle, num_tasks=sizes["num_tuples"], seed=seed + 1
    )
    claim_workload = build_claim_workload(
        bundle, num_claims=sizes["num_claims"], seed=seed + 2
    )
    knowledge = WorldKnowledge(bundle.tables, seed=seed + 3)
    generator = SimulatedLLM(knowledge=knowledge, seed=seed + 4)
    verifier_llm = SimulatedLLM(knowledge=None, seed=seed + 5)
    system = VerifAI(
        bundle.lake, llm=verifier_llm, config=config or VerifAIConfig()
    ).build_indexes()
    context = ExperimentContext(
        scale=scale,
        seed=seed,
        bundle=bundle,
        tuple_workload=tuple_workload,
        claim_workload=claim_workload,
        generator=generator,
        verifier_llm=verifier_llm,
        system=system,
        generated=_generate_completions(bundle, tuple_workload, generator),
    )
    if config is None:
        _CACHE[cache_key] = context
    return context
