"""End-to-end pipeline accuracy: the deployment-facing number.

Without evidence the generator is right about half the time (the
headline); with the full Indexer → Reranker → Verifier pipeline, the
final pooled verdict is right on about three quarters of all objects
and on ~0.9 of the objects it decides — the quantitative version of the
paper's thesis.

The tuple floors were written for the seed (0.91 accurate, nothing
undecided at ``medium``).  Commit ``c269d80`` (PR 3) made an exact
support/against tie in ``trust.weighted_vote`` abstain instead of
resolving to VERIFIED, which moved a sixth of the tuples from
"verified" to NOT_RELATED: 0.78 accurate / 0.17 undecided at
``medium``, 0.75 / 0.14 at ``paper``.  The tie rule is right (a tie is
not support) and stays; the floors below are re-derived from those two
runs, each at least 0.05 clear of the worse one, and the accuracy over
*decided* tuples (0.94 / 0.87) is asserted so the gap stays explained.
"""

from repro.experiments.endtoend import run_end_to_end
from repro.experiments.headline import run_headline
from repro.metrics.tables import format_table


def test_end_to_end(context):
    results = run_end_to_end(context)
    headline = run_headline(context)
    print()
    print(
        format_table(
            ["configuration", "tuple acc", "claim acc",
             "tuple undecided", "claim undecided"],
            [
                [r.configuration, r.tuple_accuracy, r.claim_accuracy,
                 r.tuple_undecided, r.claim_undecided]
                for r in results
            ],
            title="End-to-end final-verdict accuracy",
        )
    )
    generic, local = results
    # the thesis: verification lifts reliability far above the
    # no-evidence baseline for both object types
    assert generic.tuple_accuracy >= headline.completion_accuracy + 0.15
    assert generic.claim_accuracy >= headline.claim_accuracy + 0.15
    assert generic.tuple_accuracy >= 0.7
    # a tied vote abstains, so what is lost to the tie rule is coverage,
    # not correctness: of the tuples that get a verdict, few are wrong
    decided = 1.0 - generic.tuple_undecided
    assert generic.tuple_accuracy / decided >= 0.8
    # the local configuration is competitive (the privacy trade costs
    # little when the reranker feeds it only the best table)
    assert local.claim_accuracy >= generic.claim_accuracy - 0.05
    # most objects find evidence that does not tie
    assert generic.tuple_undecided <= 0.25
