"""Smoke tests of every experiment runner at tiny scale.

``tests/paper/`` asserts the paper's shapes at full scale; these tests only
assert that each runner executes end-to-end and returns sane structures,
so the full test suite stays fast.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.experiments.ablations import (
    run_combiner_ablation,
    run_k_sweep,
    run_reranker_ablation,
    run_trust_ablation,
    run_vector_index_ablation,
)
from repro.experiments.figures import run_figure1, run_figure4
from repro.experiments.headline import run_headline
from repro.experiments.setup import SCALES, ExperimentContext, get_context
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.llm.knowledge import WorldKnowledge
from repro.llm.model import SimulatedLLM
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
        results = run_reranker_ablation(tiny_context, k_coarse=20)
        assert len(results) == 2

    def test_vector_index(self, tiny_context):
        results = run_vector_index_ablation(tiny_context, num_queries=5)
        assert {r.name.split("(")[0] for r in results} == {"flat", "ivf", "hnsw"}

    def test_trust(self, tiny_context):
        results = run_trust_ablation(tiny_context, num_objects=10)
        assert 0.0 <= results["uniform_accuracy"] <= 1.0
        assert results["trust_clean"] > results["trust_dirty_a"]

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
