"""Rerank routes, arm by arm: does a route earn its reranker?

From one coarse list of depth ``k_coarse`` under the full pipeline's
configuration, three shortlists of k': coarse (its head), rerank (the
evidence modality's scorer over it) and rrf (the two fused by
reciprocal rank).  Each is scored on retrieval against the Table 1
relevance and end to end, the object's other routes reading coarse,
pooled by ``VerifierModule.verify_pool``.  The rule these arms decided
by is in docs/performance.md ("The tuple routes stop reranking").
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.experiments.setup import Case, ExperimentContext, gold_of, score
from repro.index.combiner import Combiner
from repro.metrics.evaluation import macro_recall_at_k
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.table import TableReranker
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeBundle
from repro.workloads.tuplecomp import build_tuple_workload

#: each modality's rerank arm (the tuple-pair scorer went with its route)
SCORERS = {Modality.TEXT: LateInteractionReranker, Modality.TABLE: TableReranker}


class ArmResult(NamedTuple):
    """One arm of one route."""

    route: str
    arm: str
    precision_at_1: float
    recall: float
    accuracy: float
    undecided: float


def _corrupt_digits(value: str, rng: random.Random) -> str:
    """The bench tuple stream's corruption: one digit changed, or ``x``."""
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    if not digits:
        return value + "x"
    slot = digits[rng.randrange(len(digits))]
    new = str((int(value[slot]) + 1 + rng.randrange(9)) % 10)
    return value[:slot] + new + value[slot + 1:]


def labelled_tuples(bundle: LakeBundle, count: int, seed: int) -> List[Case]:
    """The first ``count`` objects of ``bench.workloads.tuple_stream``
    over ``bundle`` at ``seed``: rows of ``build_tuple_workload``, the
    true value and a digit-corrupted one in turn, each object once."""
    tasks = build_tuple_workload(
        bundle, num_tasks=sum(t.num_rows for t in bundle.tables),
        seed=seed + 1,
    ).tasks
    rng = random.Random(seed + 11)
    seen = set()
    cases: List[Case] = []
    for position, task in enumerate(tasks):
        if len(cases) == count:
            break
        corrupted = position % 2 == 1
        row = task.row
        if corrupted:
            row = task.completed_row(_corrupt_digits(task.true_value, rng))
        obj = TupleObject(f"route-{len(cases):06d}", row, attribute=task.column)
        key = (obj.query_text(), task.column)
        if key in seen:
            continue
        seen.add(key)
        cases.append(Case(
            obj, gold_of(not corrupted),
            {
                Modality.TUPLE: frozenset([f"{row.table_id}#r{row.row_index}"]),
                Modality.TEXT: frozenset(bundle.relevant_pages_for_row(row)),
            },
        ))
    return cases


def run_route_arms(
    system: VerifAI, cases: Sequence[Case], modalities: Sequence[Modality]
) -> List[ArmResult]:
    """Every arm of every route of ``cases``, one object type whose
    evidence is read in ``modalities`` order."""
    indexer = system.indexer
    kind = "tuple" if isinstance(cases[0].obj, TupleObject) else "claim"
    shortlists: Dict[Modality, List[Dict[str, list]]] = {}
    for modality in modalities:
        k = system.config.fine_k(modality)
        scorer = SCORERS[modality]() if modality in SCORERS else None
        fuser = Combiner([indexer.content_index(modality)])  # fuse() only
        shortlists[modality] = []
        coarse_lists = indexer.search_batch(
            [case.obj.query_text() for case in cases], modality, None
        )
        for case, coarse in zip(cases, coarse_lists):
            arms = {"coarse": coarse[:k]}
            if scorer is not None:
                ranked = scorer.rerank(
                    case.obj.query_text(), coarse, indexer.fetch_payload,
                    len(coarse),
                )
                arms.update(rerank=ranked[:k], rrf=fuser.fuse([coarse, ranked], k))
            shortlists[modality].append(arms)

    def pool(judged: Modality, arm: str) -> Tuple[float, float]:
        finals = []
        for index, case in enumerate(cases):
            hits = [
                hit for m in modalities
                for hit in shortlists[m][index][arm if m is judged else "coarse"]
            ]
            finals.append(
                system.verifier.verify_pool(case.obj, system.resolve(hits))[1]
            )
        return score(finals, [case.gold for case in cases])

    baseline = pool(modalities[0], "coarse")
    results = []
    for modality in modalities:
        for arm in shortlists[modality][0]:
            runs = [
                ([hit.instance_id for hit in arms[arm]], case.relevant[modality])
                for arms, case in zip(shortlists[modality], cases)
                if case.relevant[modality]
            ]
            first = sum(bool(ids) and ids[0] in rel for ids, rel in runs)
            results.append(ArmResult(
                f"{kind}→{modality.value}", arm, first / (len(runs) or 1),
                macro_recall_at_k(runs, system.config.fine_k(modality)),
                *(baseline if arm == "coarse" else pool(modality, arm)),
            ))
    return results


def run_rerank_routes(
    context: ExperimentContext, count: int = 600
) -> List[ArmResult]:
    """The route table: tuple routes over the first ``count`` objects of
    the bench tuple stream, claim→table over the first ``count`` claims
    of the context's workload."""
    system = VerifAI(
        context.bundle.lake, llm=context.verifier_llm,
        config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
    ).build_indexes()
    return run_route_arms(
        system, labelled_tuples(context.bundle, count, context.seed),
        (Modality.TUPLE, Modality.TEXT),
    ) + run_route_arms(system, context.claim_cases[:count], (Modality.TABLE,))
