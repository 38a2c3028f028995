"""Bounds from spreads, and agreement within bounds."""

import copy
import math

import pytest

from bench.calibrate import (
    bound_of,
    disagreements,
    range_spread,
    summarise,
    unfit_rows,
)

METRICS = [
    {"name": "objects_per_s", "unit": "objects/s", "better": "higher",
     "bound": 0.10},
    {"name": "accuracy", "unit": "ratio", "better": "higher", "bound": 0.05},
]


def document(seed, rate, accuracy, verdicts="aa", attempted=500):
    return {
        "seed": seed,
        "workloads": {
            "campaign_claim": {
                "attempted": attempted,
                "failed": 0,
                "metrics": {
                    "objects_per_s": {"value": rate, "unit": "objects/s"},
                    "accuracy": {"value": accuracy, "unit": "ratio"},
                },
                "digests": {"inputs": "11", "verdicts": verdicts},
            },
        },
    }


def table(rates, accuracies):
    runs = [document(3, r, a) for r, a in zip(rates, accuracies)]
    return summarise(runs, METRICS, ["campaign_claim"])


def test_bound_is_the_larger_of_run_to_run_noise_and_spread_across_seeds():
    calm = table([100.0, 101.0, 99.0, 100.0], [0.9] * 4)
    # 2 x a 2% range is under the 5% floor; nothing varies across seeds
    assert bound_of("objects_per_s", calm, calm) == 0.05
    noisy = table([100.0, 104.0, 98.0, 100.0], [0.9] * 4)
    assert bound_of("objects_per_s", noisy, calm) == 0.12   # 2 x 6%
    # ten seeds spreading 7% between quartiles ask for three times that
    seeds = table([100.0 + i for i in range(10)], [0.9] * 10)
    spread = seeds["campaign_claim"]["objects_per_s"]["spread"]
    assert bound_of("objects_per_s", calm, seeds) == pytest.approx(
        math.ceil(300 * spread) / 100
    )
    wild = table([100.0, 150.0, 60.0, 100.0], [0.9] * 4)
    assert bound_of("objects_per_s", wild, calm) == 0.25    # the driver's cap
    assert range_spread([90.0, 100.0, 110.0]) == 0.2


def test_what_a_seed_decides_is_bounded_by_its_spread_across_seeds_only():
    one = table([100.0] * 4, [0.9] * 4)
    assert bound_of("accuracy", one, one) == 0.01
    seeds = table([100.0] * 10, [0.80 + 0.01 * i for i in range(10)])
    spread = seeds["campaign_claim"]["accuracy"]["spread"]
    assert bound_of("accuracy", one, seeds) == pytest.approx(
        math.ceil(300 * spread) / 100
    )


def test_summarise_takes_the_median_of_each_row():
    runs = [document(s, r, 0.9) for s, r in ((1, 100.0), (2, 104.0), (3, 96.0))]
    row = summarise(runs, METRICS, ["campaign_claim"])["campaign_claim"]
    assert row["objects_per_s"]["value"] == 100.0
    assert row["objects_per_s"]["range"] == 0.08
    assert row["accuracy"]["spread"] == 0.0


def test_a_row_wider_than_its_bound_or_over_ten_percent_is_unfit():
    steady = table([100.0, 101.0, 99.0, 100.5], [0.9] * 4)
    bounds = {"objects_per_s": 0.25, "accuracy": 0.05}
    assert unfit_rows(steady, steady, bounds) == []
    wild = table([100.0, 70.0, 130.0, 100.0, 100.0], [0.9] * 5)
    found = unfit_rows(wild, steady, bounds)
    assert len(found) == 2  # range 60% > 25%, quartile spread 30% > 10%
    assert all(f.startswith("campaign_claim objects_per_s:") for f in found)
    # setup_s cannot be demoted and its bound is capped: it is not judged
    setup = summarise(
        [
            {"workloads": {"campaign_claim": {"metrics": {
                "setup_s": {"value": value, "unit": "s"},
            }}}}
            for value in (4.0, 6.0, 5.0, 5.0)
        ],
        [{"name": "setup_s", "unit": "s"}], ["campaign_claim"],
    )
    assert unfit_rows(setup, setup, {"setup_s": 0.25}) == []
    # a spread across seeds the driver would refuse the bound for
    found = unfit_rows(steady, wild, bounds)
    assert found == [
        "campaign_claim objects_per_s: quartile spread 30.0% across seeds "
        "is wider than its bound 25%"
    ]


def test_two_passes_within_bounds_agree():
    assert disagreements(
        document(3, 100.0, 0.90), document(3, 108.0, 0.90), METRICS
    ) == []
    # other seeds are other inputs: accuracy is held to its bound only
    assert disagreements(
        document(3, 100.0, 0.90), document(4, 108.0, 0.91), METRICS
    ) == []


def test_same_seed_must_give_exactly_the_same_accuracy_and_counts():
    found = disagreements(
        document(3, 100.0, 0.90), document(3, 100.0, 0.91), METRICS
    )
    assert found == ["campaign_claim accuracy: 0.9 vs 0.91 (same seed)"]
    found = disagreements(
        document(3, 100.0, 0.90), document(3, 100.0, 0.90, attempted=499),
        METRICS,
    )
    assert found == ["campaign_claim attempted: 500 vs 499 (same seed)"]


def test_a_row_beyond_its_bound_is_named():
    found = disagreements(
        document(3, 100.0, 0.90), document(3, 120.0, 0.90), METRICS
    )
    assert len(found) == 1
    assert found[0].startswith("campaign_claim objects_per_s:")


def test_same_seed_must_give_the_same_digests():
    found = disagreements(
        document(3, 100.0, 0.90), document(3, 100.0, 0.90, verdicts="bb"),
        METRICS,
    )
    assert found == ["campaign_claim digest.verdicts: aa vs bb (same seed)"]
    # another seed is another input: digests are not compared
    assert disagreements(
        document(3, 100.0, 0.90), document(4, 100.0, 0.90, verdicts="bb"),
        METRICS,
    ) == []


def test_a_missing_metric_or_workload_disagrees():
    other = copy.deepcopy(document(3, 100.0, 0.90))
    del other["workloads"]["campaign_claim"]["metrics"]["accuracy"]
    assert disagreements(document(3, 100.0, 0.90), other, METRICS) == [
        "campaign_claim accuracy: missing on one side"
    ]
    assert disagreements(
        document(3, 100.0, 0.90), {"seed": 3, "workloads": {}}, METRICS
    ) == ["the two documents share no workload"]
