"""The experiments run the system, and it reads what the loops it
replaced read.

The trust ablation's two rows are two ``VerifAI`` campaigns that differ
only in ``source_trust``; the oracle here is the hand loop they replaced:
search depth 8 in the tuple index, verify every pair with a private
``LLMVerifier`` and pool the votes with ``weighted_vote``.  A run's
margin is the trust of the source that decided it, so handing one run
the other's trust map changes every margin even where no verdict moves.

The end-to-end rows are ``verify_batch`` campaigns; the oracle is
``verify`` one object at a time, counted by hand.
"""

import pytest

from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.experiments.ablations import (
    _build_dirty_lake,
    _fit_source_trust,
    _trust_runs,
    run_trust_ablation,
)
from repro.experiments.endtoend import _local_system, run_end_to_end
from repro.trust.model import weighted_vote
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.verdict import Verdict


@pytest.fixture(scope="module")
def context(tiny_experiment_context):
    return tiny_experiment_context


@pytest.fixture(scope="module")
def trust(context):
    """(dirty lake, fitted trusts, both runs' reports)."""
    lake = _build_dirty_lake(context)
    fitted = _fit_source_trust(lake).source_trust
    return lake, fitted, _trust_runs(context, lake, context.tuple_cases, fitted)


def hand_pooled(context, lake, source_trust, default_trust):
    """(verdict, margin) per tuple case: every depth-8 tuple pair verified
    by a private LLM verifier, pooled by ``weighted_vote``."""
    system = VerifAI(lake, llm=context.verifier_llm)
    verifier = LLMVerifier(context.verifier_llm)
    pooled = []
    for case in context.tuple_cases:
        votes = []
        for hit in system.indexer.search(case.obj.query_text(), Modality.TUPLE, 8):
            evidence = lake.instance(hit.instance_id)
            votes.append((
                system.verifier.source_of(evidence),
                verifier.verify(case.obj, evidence).verdict,
            ))
        pooled.append(weighted_vote(votes, source_trust, default_trust))
    return pooled


class TestTrustRuns:
    def test_the_fitted_map_scores_every_tuple_source(self, trust):
        lake, fitted, _ = trust
        assert {table.source.name for table in lake.tables()} <= set(fitted)

    @pytest.mark.parametrize("run", ["uniform", "trust_weighted"])
    def test_each_verdict_is_the_hand_pooled_vote(self, context, trust, run):
        lake, fitted, runs = trust
        # the deleted loop: uniform trusted every source at 1.0, the
        # weighted vote read the fitted map at weighted_vote's default
        source_trust, default = ({}, 1.0) if run == "uniform" else (fitted, 0.5)
        expected = hand_pooled(context, lake, source_trust, default)
        assert [
            (report.final_verdict, report.margin) for report in runs[run]
        ] == expected

    def test_the_runs_differ_in_their_margins(self, trust):
        _, _, runs = trust
        assert [r.margin for r in runs["uniform"]] != [
            r.margin for r in runs["trust_weighted"]
        ]

    def test_the_accuracies_score_the_runs(self, context, trust):
        _, _, runs = trust
        results = run_trust_ablation(context)
        gold = [case.gold for case in context.tuple_cases]
        for name, batch in runs.items():
            verdicts = [report.final_verdict for report in batch]
            assert results[f"{name}_accuracy"] == (
                sum(v is g for v, g in zip(verdicts, gold)) / len(gold)
            )
        assert list(results) == [
            "uniform_accuracy", "trust_weighted_accuracy", "trust_clean",
            "trust_dirty_a", "trust_dirty_b", "trust_dirty_c",
        ]


class TestEndToEnd:
    CLAIMS = 12

    @pytest.fixture(scope="class")
    def systems(self, context):
        return [context.system, _local_system(context)]

    def test_batch_verdicts_are_per_object_verdicts(self, context, systems):
        cases = context.tuple_cases + context.claim_cases[:self.CLAIMS]
        objects = [case.obj for case in cases]
        for system in systems:
            assert [r.final_verdict for r in system.verify_batch(objects)] == [
                system.verify(obj).final_verdict for obj in objects
            ]

    def test_rows_count_the_per_object_verdicts(self, context, systems):
        results = run_end_to_end(context, claim_limit=self.CLAIMS)
        assert len(results) == len(systems)
        for result, system in zip(results, systems):
            for cases, accuracy, undecided in (
                (context.tuple_cases, result.tuple_accuracy,
                 result.tuple_undecided),
                (context.claim_cases[:self.CLAIMS], result.claim_accuracy,
                 result.claim_undecided),
            ):
                verdicts = [system.verify(case.obj).final_verdict
                            for case in cases]
                correct = sum(
                    v is case.gold for v, case in zip(verdicts, cases)
                )
                assert accuracy == correct / len(cases)
                assert undecided == (
                    verdicts.count(Verdict.NOT_RELATED) / len(cases)
                )
