"""The generate-verify-revise loop's EXPERIMENTS.md row: over the
default mix a generator drafting at <= 0.6 first-pass accuracy ends at
>= 0.9 within 4 rounds.  The mix builds its own 48-table lakes, so the
row does not follow ``REPRO_SCALE``."""

from repro.experiments.report import render_loop
from repro.loop import DEFAULT_MIX, run_mix


def test_default_mix_converges_within_four_rounds():
    report = run_mix(max_iters=4)
    table = render_loop(report)
    print()
    print(table)
    assert [r.scenario.name for r in report] == [
        s.name for s in DEFAULT_MIX
    ]
    assert table.splitlines()[-1].startswith("| mix | 72 |")
    assert report.first_pass_accuracy <= 0.6
    assert report.end_accuracy >= 0.9
    for result in report:
        for outcome in result.result.outcomes:
            assert outcome.iterations <= 4
