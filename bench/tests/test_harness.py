"""What the workloads share."""

import pytest

from repro.verify.verdict import Verdict

from bench.harness import Result, accuracy_of, planned


def test_accuracy_counts_verified_labels_too():
    # Verdict.VERIFIED is 0 and so falsy: a truth test on the label
    # would silently score the REFUTED-labelled objects only
    pairs = [
        (Verdict.VERIFIED, "VERIFIED"),
        (Verdict.VERIFIED, "REFUTED"),
        (Verdict.REFUTED, "REFUTED"),
        (Verdict.REFUTED, "REFUTED"),
        (None, "NOT_RELATED"),
    ]
    assert accuracy_of(pairs) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        accuracy_of([(None, "VERIFIED")])


def test_planned_work_scales_with_seconds_and_has_a_floor():
    assert planned(10.0, 10.0) == 100
    assert planned(1.2, 10.0) == 12
    assert planned(1.2, 0.3, at_least=2) == 2
    assert planned(0.6, 10.0) == 6


def test_passed_share_counts_failures_and_wrong_answers():
    result = Result(attempted=200)
    assert result.passed_share() == 1.0
    result.fail(2, "status=FAILED")
    assert result.correct is False
    assert result.passed_share() == pytest.approx(0.99)
    # lake_churn's stale re-reads completed, with the wrong verdict
    assert result.passed_share(wrong_answers=4) == pytest.approx(0.97)
