"""Ablations of the design choices DESIGN.md calls out.

* retrieval-depth sweep — the paper anticipates tuple→text recall "will
  improve when we expand the number of retrieved files";
* combiner — content-only vs semantic-only vs combined (Section 3.1:
  "combining these two approaches can enhance recall");
* vector index — flat vs IVF vs HNSW recall/latency (the Faiss
  trade-off);
* trust — trust-weighted evidence pooling vs uniform voting when the
  lake contains an unreliable source (Section 5 / challenge C3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import VerifAI
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance, serialize_row
from repro.datalake.types import Modality, Source, Table
from repro.embed.vectorizers import HashingVectorizer
from repro.experiments.setup import ExperimentContext
from repro.experiments.table1 import tuple_text_runs
from repro.index.combiner import Combiner, FusionMethod
from repro.index.hnsw import HNSWIndex
from repro.index.inverted import InvertedIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.vector import FlatVectorIndex
from repro.metrics.evaluation import macro_recall_at_k
from repro.obs.clock import Clock, MonotonicClock
from repro.trust.model import weighted_vote
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict


# ---------------------------------------------------------------------------
# retrieval-depth sweep
# ---------------------------------------------------------------------------
def run_k_sweep(
    context: ExperimentContext, ks: Sequence[int] = (1, 3, 5, 10, 20)
) -> List[Tuple[int, float]]:
    """tuple→text recall as the number of retrieved files grows."""
    out = []
    for k in ks:
        out.append((k, macro_recall_at_k(tuple_text_runs(context, k), k)))
    return out


# ---------------------------------------------------------------------------
# combiner ablation
# ---------------------------------------------------------------------------
def run_combiner_ablation(
    context: ExperimentContext, k: int = 3, dim: int = 256
) -> Dict[str, float]:
    """tuple→text recall with content-only, semantic-only, and combined.

    The semantic index uses corpus-fit TF-IDF embeddings (the stronger
    encoder); fusion uses max-of-normalized-scores, which preserves each
    index's confident hits (RRF is also reported for comparison).
    """
    from repro.embed.vectorizers import TfidfVectorizer

    content = InvertedIndex(name="bm25")
    payloads = [
        (doc.doc_id, serialize_instance(doc))
        for doc in context.bundle.lake.documents()
    ]
    vectorizer = TfidfVectorizer(dim=dim).fit(p for _, p in payloads)
    semantic = FlatVectorIndex(dim=dim, encoder=vectorizer.transform, name="vec")
    for doc_id, payload in payloads:
        content.add(doc_id, payload)
        semantic.add(doc_id, payload)
    combined_max = Combiner([content, semantic], method=FusionMethod.MAX)
    combined_rrf = Combiner([content, semantic], method=FusionMethod.RRF)

    def recall_with(search) -> float:
        runs = []
        for generated in context.generated:
            table = context.bundle.lake.table(generated.table_id)
            row = table.row(generated.row_index)
            query = serialize_row(row)
            relevant = context.bundle.relevant_pages_for_row(row)
            if not relevant:
                continue
            hits = search(query)
            runs.append(([h.instance_id for h in hits], relevant))
        return macro_recall_at_k(runs, k)

    return {
        "content-only": recall_with(lambda q: content.search(q, k)),
        "semantic-only": recall_with(lambda q: semantic.search(q, k)),
        "combined-max": recall_with(lambda q: combined_max.search(q, k)),
        "combined-rrf": recall_with(lambda q: combined_rrf.search(q, k)),
    }


# ---------------------------------------------------------------------------
# vector-index ablation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VectorIndexResult:
    """Recall (vs exact flat search) and latency of one ANN index."""

    name: str
    recall_at_10: float
    build_seconds: float
    search_seconds: float


def run_vector_index_ablation(
    context: ExperimentContext,
    dim: int = 128,
    num_queries: int = 50,
    clock: Optional[Clock] = None,
) -> List[VectorIndexResult]:
    """Flat vs IVF vs HNSW over the text-page embeddings.

    ``clock`` is the timing source (injectable so tests can freeze it;
    defaults to the monotonic process clock).
    """
    clock = clock or MonotonicClock()
    vectorizer = HashingVectorizer(dim=dim)
    docs = context.bundle.lake.documents()
    payloads = [(d.doc_id, serialize_instance(d)) for d in docs]
    queries = [
        serialize_row(context.bundle.lake.table(g.table_id).row(g.row_index))
        for g in context.generated[:num_queries]
    ]
    query_vectors = [vectorizer.transform(q) for q in queries]

    indexes = {
        "flat": FlatVectorIndex(dim=dim, name="flat"),
        "ivf(nlist=32,nprobe=4)": IVFFlatIndex(
            dim=dim, nlist=32, nprobe=4, name="ivf"
        ),
        "hnsw(m=8)": HNSWIndex(dim=dim, m=8, name="hnsw"),
    }
    results: List[VectorIndexResult] = []
    exact_top: List[set] = []
    for name, index in indexes.items():
        start = clock.now()
        for doc_id, payload in payloads:
            index.add_vector(doc_id, vectorizer.transform(payload))
        if isinstance(index, IVFFlatIndex):
            index.train()
        build_seconds = clock.now() - start
        start = clock.now()
        retrieved = [
            {h.instance_id for h in index.search_vector(v, 10)}
            for v in query_vectors
        ]
        search_seconds = clock.now() - start
        if name == "flat":
            exact_top = retrieved
            recall = 1.0
        else:
            recall = sum(
                len(r & e) / len(e) for r, e in zip(retrieved, exact_top) if e
            ) / max(1, len(exact_top))
        results.append(
            VectorIndexResult(name, recall, build_seconds, search_seconds)
        )
    return results


# ---------------------------------------------------------------------------
# profile sensitivity sweeps
# ---------------------------------------------------------------------------
def run_arithmetic_sensitivity(
    context: ExperimentContext,
    slips: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    num_claims: int = 120,
) -> List[Tuple[float, float]]:
    """(text, relevant table) LLM accuracy as arithmetic noise grows.

    Demonstrates that the Table 2 row-2 number is a smooth function of
    one mechanism knob, not a tuned constant: exact reasoning tops out
    near the gold engine, and accuracy falls as per-item slips rise.
    """
    from repro.llm.model import SimulatedLLM
    from repro.llm.profile import LLMProfile
    from repro.verify.objects import ClaimObject

    tasks = list(context.claim_workload)[:num_claims]
    out: List[Tuple[float, float]] = []
    for slip in slips:
        profile = LLMProfile(arithmetic_slip=slip)
        verifier = LLMVerifier(SimulatedLLM(knowledge=None, profile=profile,
                                            seed=61))
        correct = 0
        for task in tasks:
            table = context.bundle.lake.table(task.table_id)
            obj = ClaimObject(
                object_id=task.claim.claim_id,
                text=task.claim.text,
                context=task.claim.context,
            )
            gold = Verdict.VERIFIED if task.label else Verdict.REFUTED
            if verifier.verify(obj, table).verdict is gold:
                correct += 1
        out.append((slip, correct / len(tasks) if tasks else 0.0))
    return out


def run_coverage_sensitivity(
    context: ExperimentContext,
    coverages: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    num_tasks: int = 60,
) -> List[Tuple[float, float]]:
    """No-evidence imputation accuracy as parametric coverage grows.

    The headline 0.52 tracks the coverage knob roughly linearly — the
    motivating observation is a statement about how much of the corpus
    the model memorized.
    """
    from repro.claims.engine import TableQueryEngine
    from repro.llm.knowledge import WorldKnowledge
    from repro.llm.model import SimulatedLLM
    from repro.llm.prompts import parse_completed_table, tuple_completion_prompt

    tasks = list(context.tuple_workload)[:num_tasks]
    out: List[Tuple[float, float]] = []
    for coverage in coverages:
        knowledge = WorldKnowledge(
            context.bundle.tables,
            coverage=coverage,
            wrong_rate=min(0.2, 1.0 - coverage),
            seed=62,
        )
        generator = SimulatedLLM(knowledge=knowledge, seed=63)
        correct = 0
        for task in tasks:
            masked = task.masked_row()
            table = context.bundle.lake.table(task.row.table_id)
            parsed = parse_completed_table(
                generator.chat(
                    tuple_completion_prompt(
                        table.caption, masked.columns, [masked.values]
                    )
                )
            )
            if parsed is None:
                continue
            header, rows = parsed
            value = dict(zip(header, rows[0])).get(task.column, "")
            if TableQueryEngine.values_match(value, task.true_value):
                correct += 1
        out.append((coverage, correct / len(tasks) if tasks else 0.0))
    return out


# ---------------------------------------------------------------------------
# local (tuple, tuple) verifier comparison
# ---------------------------------------------------------------------------
def run_tuple_verifier_comparison(
    context: ExperimentContext, k: int = 3
) -> Dict[str, float]:
    """LLM vs trained local classifier on (tuple, tuple) pairs.

    The paper: "In the case of evaluating (tuple, tuple) pairs, the
    local model's accuracy is comparable to ChatGPT; therefore, we only
    present ChatGPT's results."  This run presents both.

    Pairs are the top-k retrieved tuples per generated tuple; gold
    follows Section 4 (the original counterpart supports/refutes, every
    other tuple is not related).
    """
    from repro.experiments.table2 import gold_tuple_verdict
    from repro.verify.tuple_verifier import (
        TupleVerifier,
        training_pairs_from_tables,
    )

    llm_verifier = LLMVerifier(context.verifier_llm)
    local = TupleVerifier(seed=31).train(
        training_pairs_from_tables(context.bundle.tables, num_pairs=400, seed=32)
    )
    llm_correct = local_correct = total = 0
    for generated in context.generated:
        table = context.bundle.lake.table(generated.table_id)
        row = table.row(generated.row_index).replace_value(
            generated.column, generated.generated_value or "NaN"
        )
        obj = TupleObject(
            object_id=generated.task_id, row=row, attribute=generated.column
        )
        hits = context.system.indexer.search(obj.query_text(), Modality.TUPLE, k)
        for hit in hits:
            evidence = context.bundle.lake.instance(hit.instance_id)
            gold = gold_tuple_verdict(context, generated, evidence)
            if llm_verifier.verify(obj, evidence).verdict is gold:
                llm_correct += 1
            if local.verify(obj, evidence).verdict is gold:
                local_correct += 1
            total += 1
    total = total or 1
    return {
        "llm_accuracy": llm_correct / total,
        "local_accuracy": local_correct / total,
    }


# ---------------------------------------------------------------------------
# (text, text) fact-checking extension
# ---------------------------------------------------------------------------
def run_text_fact_checking(
    context: ExperimentContext, num_claims: int = 80, k: int = 3
) -> Dict[str, float]:
    """Standard fact checking: entity claims verified against text pages.

    The paper skips (text, text) because it "is essentially equivalent
    to the standard fact-checking problem ... already demonstrated to be
    viable"; this extension measures it on the synthetic lake: lookup
    claims about entities, retrieved against the text modality, verified
    by the LLM.  Reports retrieval recall@k and per-pair verifier
    accuracy.
    """
    import random

    from repro.verify.objects import ClaimObject
    from repro.verify.verdict import Verdict as V

    rng = random.Random(71)
    llm_verifier = LLMVerifier(context.verifier_llm)
    cases = []
    for table in context.bundle.tables:
        if len(cases) >= num_claims:
            break
        if not table.entity_columns:
            continue
        entity_column = table.entity_columns[0]
        row = table.row(rng.randrange(table.num_rows))
        entity = row.get(entity_column)
        if entity is None or context.bundle.pages_of(entity) is None:
            continue
        fact_columns = [
            c for c in table.columns
            if c not in (entity_column, table.key_column)
        ]
        if not fact_columns:
            continue
        column = rng.choice(fact_columns)
        true_value = row.get(column)
        positive = len(cases) % 2 == 0
        value = true_value
        if not positive:
            alternatives = sorted({
                v for v in table.column_values(column) if v != true_value
            })
            if not alternatives:
                continue
            value = rng.choice(alternatives)
        claim_text = f"the {column} of {entity} is {value}"
        cases.append((claim_text, positive, context.bundle.pages_of(entity)))

    recall_hits = 0
    verifier_correct = 0
    pair_total = 0
    for claim_text, positive, gold_page in cases:
        obj = ClaimObject(object_id=claim_text[:40], text=claim_text)
        hits = context.system.indexer.search(claim_text, Modality.TEXT, k)
        retrieved_ids = [h.instance_id for h in hits]
        if gold_page in retrieved_ids:
            recall_hits += 1
        for instance_id in retrieved_ids:
            page = context.bundle.lake.document(instance_id)
            gold = V.NOT_RELATED
            if instance_id == gold_page:
                gold = V.VERIFIED if positive else V.REFUTED
            if llm_verifier.verify(obj, page).verdict is gold:
                verifier_correct += 1
            pair_total += 1
    return {
        "num_claims": float(len(cases)),
        "retrieval_recall": recall_hits / len(cases) if cases else 0.0,
        "verifier_accuracy": verifier_correct / pair_total if pair_total else 0.0,
    }


# ---------------------------------------------------------------------------
# trust ablation
# ---------------------------------------------------------------------------
def _build_dirty_lake(
    context: ExperimentContext, dirty_sources: Sequence[str] = ("scrape-a", "scrape-b", "scrape-c")
) -> DataLake:
    """A lake where every table exists four times: the original, a clean
    mirror (curated data is commonly mirrored across sites), and two
    independently corrupted scrapes.  A vote over every copy would see
    the two dirty ones tie the two clean ones; pooling reads the hits in
    rank order, and truth discovery ranks the sources by trust."""
    from repro.llm.knowledge import rng_for

    lake = DataLake(name="lake-with-dirty-sources")
    for table in context.bundle.tables:
        lake.add_table(table)
        lake.add_table(
            Table(
                table_id=f"mirror-{table.table_id}",
                caption=table.caption,
                columns=table.columns,
                rows=[tuple(row) for row in table.rows],
                source=Source("mirror"),
                entity_columns=table.entity_columns,
                key_column=table.key_column,
                metadata=dict(table.metadata),
            )
        )
        for dirty_index, source_name in enumerate(dirty_sources):
            rng = rng_for(97, source_name, table.table_id)
            corrupted_rows = []
            for row in table.rows:
                cells = list(row)
                for index, column in enumerate(table.columns):
                    if column == table.key_column:
                        continue
                    if rng.random() >= 0.9:
                        continue
                    from repro.text.numbers import format_number, parse_number

                    number = parse_number(cells[index])
                    if number is None or abs(number) <= 4:
                        # corrupt numeric cells only: the scrape keeps
                        # entity strings intact (so its rows still look
                        # related) but garbles the measurements — and two
                        # independent perturbations never agree
                        continue
                    wrong = number * rng.uniform(1.07, 1.9)
                    if "," in cells[index]:
                        cells[index] = f"{int(wrong):,}"
                    else:
                        cells[index] = format_number(round(wrong, 1))
                corrupted_rows.append(tuple(cells))
            lake.add_table(
                Table(
                    table_id=f"{source_name}-{table.table_id}",
                    caption=table.caption,
                    columns=table.columns,
                    rows=corrupted_rows,
                    source=Source(source_name),
                    entity_columns=table.entity_columns,
                    key_column=table.key_column,
                    metadata=dict(table.metadata),
                )
            )
    for doc in context.bundle.lake.documents():
        lake.add_document(doc)
    return lake


def run_trust_ablation(context: ExperimentContext, num_objects: int = 60):
    """Final-verdict accuracy with uniform vs trust-weighted pooling when
    unreliable sources pollute the lake.

    Source trust is estimated *without labels* by value-level truth
    discovery (the Knowledge-Based-Trust setting the paper cites):
    sources that keep agreeing with somebody earn trust, independent
    corruptions disagree even with each other.
    """
    from repro.trust.model import ValueClaim, ValueTrustModel

    lake = _build_dirty_lake(context)
    system = VerifAI(lake, llm=context.verifier_llm).build_indexes()
    verifier = LLMVerifier(context.verifier_llm)

    # phase 1: estimate source trust from the lake's value agreements
    claims: List[ValueClaim] = []
    for table in lake.tables():
        prefix = f"{table.source.name}-"
        base_id = (
            table.table_id[len(prefix):]
            if table.table_id.startswith(prefix)
            else table.table_id
        )
        for row in table.iter_rows():
            key_value = row.get(table.key_column) if table.key_column else None
            if key_value is None:
                continue
            for column in table.columns:
                if column == table.key_column:
                    continue
                value = row.get(column)
                if value is None:
                    continue
                claims.append(
                    ValueClaim(
                        source=table.source.name,
                        fact_key=f"{base_id}|{key_value}|{column}",
                        value=value,
                    )
                )
    scores = ValueTrustModel().fit(claims)

    # phase 2: verify generated tuples against the polluted lake and pool
    uniform_correct = weighted_correct = 0
    total = 0
    for generated in context.generated[:num_objects]:
        table = lake.table(generated.table_id)
        row = table.row(generated.row_index).replace_value(
            generated.column, generated.generated_value or "NaN"
        )
        obj = TupleObject(
            object_id=generated.task_id, row=row, attribute=generated.column
        )
        hits = system.indexer.search(obj.query_text(), Modality.TUPLE, 8)
        votes = []
        for hit in hits:
            evidence = lake.instance(hit.instance_id)
            outcome = verifier.verify(obj, evidence)
            votes.append((system.verifier.source_of(evidence), outcome.verdict))
        gold = Verdict.VERIFIED if generated.is_correct else Verdict.REFUTED
        uniform, _ = weighted_vote(votes, {}, default_trust=1.0)
        weighted, _ = weighted_vote(votes, scores.source_trust)
        if uniform is gold:
            uniform_correct += 1
        if weighted is gold:
            weighted_correct += 1
        total += 1
    total = total or 1
    return {
        "uniform_accuracy": uniform_correct / total,
        "trust_weighted_accuracy": weighted_correct / total,
        "trust_clean": scores.trust_of("webtables"),
        "trust_dirty_a": scores.trust_of("scrape-a"),
        "trust_dirty_b": scores.trust_of("scrape-b"),
        "trust_dirty_c": scores.trust_of("scrape-c"),
    }
