"""Shared experiment fixtures.

Everything the Section 4 experiments need — the lake, the workloads, the
generator LLM with noisy parametric knowledge, the evidence-grounded
verifier LLM, the generated tuples, and the labelled objects built from
them and from the claims — built once per scale profile and cached
in-process; and the one way the experiments score verdicts against
gold (:func:`score`, :func:`pair_accuracy`).

Scale profiles
--------------
* ``small`` — CI-sized (fast; same relevance structure);
* ``medium`` — the default benchmark scale;
* ``paper`` — a larger lake approximating the paper's corpus shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.claims.engine import TableQueryEngine
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import DataInstance, Modality
from repro.llm.knowledge import WorldKnowledge
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import parse_completed_table, tuple_completion_prompt
from repro.metrics.evaluation import accuracy
from repro.verify.base import VerificationOutcome
from repro.verify.objects import ClaimObject, DataObject, TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeBundle, LakeConfig, build_lake
from repro.workloads.claimwl import ClaimWorkload, build_claim_workload
from repro.workloads.tuplecomp import (
    TupleCompletionTask,
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


class Case(NamedTuple):
    """One labelled object and its relevant instances per modality."""

    obj: DataObject
    gold: Verdict
    relevant: Dict[Modality, FrozenSet[str]]


def gold_of(correct: bool) -> Verdict:
    """The gold final verdict of an object that is (not) correct."""
    return Verdict.VERIFIED if correct else Verdict.REFUTED


def score(
    predictions: Sequence[Verdict], gold: Sequence[Verdict]
) -> Tuple[float, float]:
    """(accuracy, undecided share): how many ``predictions`` equal their
    gold verdict, and how many are NOT_RELATED."""
    undecided = list(predictions).count(Verdict.NOT_RELATED)
    return accuracy(predictions, gold), undecided / (len(gold) or 1)


def pair_accuracy(
    verify: Callable[[DataObject, DataInstance], VerificationOutcome],
    pairs: Sequence[Tuple[DataObject, DataInstance, Verdict]],
) -> float:
    """Accuracy of ``verify(obj, evidence).verdict`` over (object,
    evidence, gold) ``pairs``."""
    return accuracy(
        [verify(obj, evidence).verdict for obj, evidence, _ in pairs],
        [gold for _, _, gold in pairs],
    )


@dataclass
class ExperimentContext:
    """Everything Section 4 needs, built for one scale profile.

    ``tuple_cases`` (one per generated tuple, in order: the row with the
    generated value, ``NaN`` where none was generated, its original the
    relevant tuple and its entities' pages the relevant text) and
    ``claim_cases`` (one per claim task, its gold table the relevant
    TABLE instance) are the labelled objects every experiment verifies,
    built once with the context.
    """

    scale: str
    seed: int
    bundle: LakeBundle
    tuple_workload: TupleCompletionWorkload
    claim_workload: ClaimWorkload
    generator: SimulatedLLM        # has noisy parametric knowledge
    verifier_llm: SimulatedLLM     # evidence-grounded, no knowledge needed
    system: VerifAI
    generated: List[GeneratedTuple] = field(default_factory=list)
    tuple_cases: List[Case] = field(init=False)
    claim_cases: List[Case] = field(init=False)

    def __post_init__(self) -> None:
        lake = self.bundle.lake
        self.tuple_cases = []
        for generated in self.generated:
            row = lake.table(generated.table_id).row(generated.row_index)
            self.tuple_cases.append(Case(
                TupleObject(
                    object_id=generated.task_id,
                    row=row.replace_value(
                        generated.column, generated.generated_value or "NaN"
                    ),
                    attribute=generated.column,
                ),
                gold_of(generated.is_correct),
                {
                    Modality.TUPLE: frozenset([row.instance_id]),
                    Modality.TEXT: frozenset(
                        self.bundle.relevant_pages_for_row(row)
                    ),
                },
            ))
        self.claim_cases = [
            Case(
                ClaimObject(
                    object_id=task.claim.claim_id,
                    text=task.claim.text,
                    context=task.claim.context,
                ),
                gold_of(task.label),
                {Modality.TABLE: frozenset([task.table_id])},
            )
            for task in self.claim_workload
        ]

    @property
    def completion_accuracy(self) -> float:
        """No-evidence imputation accuracy of the generator."""
        return accuracy(
            [g.is_correct for g in self.generated], [True] * len(self.generated)
        )


_CACHE: Dict[Tuple[str, int], ExperimentContext] = {}


def generate_completions(
    context_bundle: LakeBundle,
    tasks: Iterable[TupleCompletionTask],
    generator: SimulatedLLM,
) -> List[GeneratedTuple]:
    """Ask the generator to impute every blanked cell of ``tasks``
    (batched per table, as the paper's prompt template batches
    same-schema tuples); a response that does not parse imputes ``""``."""
    generated: List[GeneratedTuple] = []
    for task in tasks:
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
        generated=generate_completions(bundle, tuple_workload, generator),
    )
    if config is None:
        _CACHE[cache_key] = context
    return context
