"""Smoke tests of every experiment runner at tiny scale.

``tests/paper/`` asserts the paper's shapes at full scale; these tests only
assert that each runner executes end-to-end and returns sane structures,
so the full test suite stays fast.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.experiments.ablations import (
    run_arithmetic_sensitivity,
    run_combiner_ablation,
    run_coverage_sensitivity,
    run_k_sweep,
    run_trust_ablation,
    run_vector_index_ablation,
)
from repro.experiments.endtoend import run_end_to_end
from repro.experiments.figures import run_figure1, run_figure4
from repro.experiments.headline import run_headline
from repro.experiments.routes import run_rerank_routes
from repro.experiments.setup import SCALES, ExperimentContext, get_context
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.llm.knowledge import WorldKnowledge
from repro.llm.model import SimulatedLLM
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.claimwl import build_claim_workload
from repro.workloads.tuplecomp import build_tuple_workload


@pytest.fixture(scope="module")
def tiny_context(tiny_experiment_context):
    """The shared miniature context (see conftest)."""
    return tiny_experiment_context


class TestSetup:
    def test_scales_registered(self):
        assert {"small", "medium", "paper"} <= set(SCALES)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_context("galactic")

    def test_completions_populated(self, tiny_context):
        assert len(tiny_context.generated) == 15
        assert 0.0 <= tiny_context.completion_accuracy <= 1.0

    def test_a_context_is_built_once_per_scale(self):
        context = get_context("small")
        assert get_context("small") is context
        assert get_context("small", config=VerifAIConfig()) is not context

    def test_tuple_cases_are_the_generated_tuples(self, tiny_context):
        cases = tiny_context.tuple_cases
        assert len(cases) == len(tiny_context.generated)
        for generated, case in zip(tiny_context.generated, cases):
            assert case.obj.object_id == generated.task_id
            assert case.obj.attribute == generated.column
            assert case.obj.row.get(generated.column) == (
                generated.generated_value or "NaN"
            )
            assert case.gold is (
                Verdict.VERIFIED if generated.is_correct else Verdict.REFUTED
            )
            assert case.relevant[Modality.TUPLE] == frozenset(
                [f"{generated.table_id}#r{generated.row_index}"]
            )

    def test_claim_cases_are_the_claim_tasks(self, tiny_context):
        tasks = list(tiny_context.claim_workload)
        cases = tiny_context.claim_cases
        assert len(cases) == len(tasks)
        for task, case in zip(tasks, cases):
            assert case.obj.object_id == task.claim.claim_id
            assert case.obj.query_text().startswith(task.claim.text)
            assert case.gold is (
                Verdict.VERIFIED if task.label else Verdict.REFUTED
            )
            assert case.relevant == {Modality.TABLE: frozenset([task.table_id])}


class TestRunners:
    def test_headline(self, tiny_context):
        result = run_headline(tiny_context)
        assert 0.0 <= result.completion_accuracy <= 1.0
        assert 0.0 <= result.claim_accuracy <= 1.0

    def test_table1(self, tiny_context):
        rows = run_table1(tiny_context)
        assert len(rows) == 3
        assert all(0.0 <= row.recall <= 1.0 for row in rows)
        assert rows[0].recall >= 0.8  # tuple->tuple is easy at any scale

    def test_table2(self, tiny_context):
        rows = run_table2(tiny_context)
        assert len(rows) == 3
        assert rows[0].pasta is None
        assert all(
            0.0 <= value <= 1.0
            for row in rows
            for value in (row.chatgpt, row.pasta)
            if value is not None
        )

    def test_figures(self, tiny_context):
        fig1 = run_figure1(tiny_context)
        assert fig1.verified_case.is_correct
        assert not fig1.refuted_case.is_correct
        fig4 = run_figure4(tiny_context)
        assert fig4.refuting_explanations

    def test_k_sweep(self, tiny_context):
        sweep = run_k_sweep(tiny_context, ks=(1, 3))
        assert sweep[1][1] >= sweep[0][1] - 1e-9

    def test_combiner(self, tiny_context):
        results = run_combiner_ablation(tiny_context)
        assert set(results) == {
            "content-only", "semantic-only", "combined-max", "combined-rrf",
        }

    def test_reranker(self, tiny_context):
        results = run_rerank_routes(tiny_context, count=20)
        assert [(r.route, r.arm) for r in results] == [
            ("tuple→tuple", "coarse"),
            ("tuple→text", "coarse"), ("tuple→text", "rerank"),
            ("tuple→text", "rrf"),
            ("claim→table", "coarse"), ("claim→table", "rerank"),
            ("claim→table", "rrf"),
        ]
        for result in results:
            for value in (result.precision_at_1, result.recall,
                          result.accuracy, result.undecided):
                assert 0.0 <= value <= 1.0

    def test_vector_index(self, tiny_context):
        results = run_vector_index_ablation(tiny_context, num_queries=5)
        assert {r.name.split("(")[0] for r in results} == {"flat", "ivf", "hnsw"}

    def test_trust(self, tiny_context):
        results = run_trust_ablation(tiny_context, num_objects=10)
        assert 0.0 <= results["uniform_accuracy"] <= 1.0
        assert results["trust_clean"] > results["trust_dirty_a"]

    def test_the_trust_runs_shortlist_eight_tuples_by_config(
        self, tiny_context
    ):
        from repro.experiments.ablations import _build_dirty_lake, _trust_runs

        runs = _trust_runs(
            tiny_context, _build_dirty_lake(tiny_context),
            tiny_context.tuple_cases[:4], {},
        )
        for batch in runs.values():
            assert {len(report.evidence_ids) for report in batch} == {8}

    def test_tuple_verifier_comparison(self, tiny_context):
        from repro.experiments.ablations import run_tuple_verifier_comparison

        results = run_tuple_verifier_comparison(tiny_context)
        assert 0.0 <= results["llm_accuracy"] <= 1.0
        assert 0.0 <= results["local_accuracy"] <= 1.0

    def test_text_fact_checking(self, tiny_context):
        from repro.experiments.ablations import run_text_fact_checking

        results = run_text_fact_checking(tiny_context, num_claims=15)
        assert results["num_claims"] > 0
        assert 0.0 <= results["verifier_accuracy"] <= 1.0

    def test_end_to_end(self, tiny_context):
        results = run_end_to_end(tiny_context, claim_limit=10)
        assert [r.configuration.split()[0] for r in results] == [
            "generic", "local",
        ]
        for result in results:
            for value in (result.tuple_accuracy, result.claim_accuracy,
                          result.tuple_undecided, result.claim_undecided):
                assert 0.0 <= value <= 1.0
            assert result.tuple_accuracy + result.tuple_undecided <= 1.0
            assert result.claim_accuracy + result.claim_undecided <= 1.0

    def test_arithmetic_sensitivity(self, tiny_context):
        results = run_arithmetic_sensitivity(
            tiny_context, slips=(0.0, 0.3), num_claims=20
        )
        assert [slip for slip, _ in results] == [0.0, 0.3]
        assert all(0.0 <= accuracy <= 1.0 for _, accuracy in results)

    def test_coverage_sensitivity(self, tiny_context):
        results = run_coverage_sensitivity(
            tiny_context, coverages=(0.2, 0.8), num_tasks=10
        )
        assert [coverage for coverage, _ in results] == [0.2, 0.8]
        assert all(0.0 <= accuracy <= 1.0 for _, accuracy in results)
