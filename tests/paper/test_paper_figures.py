"""Figure 1 and Figure 4 case studies as regression tests."""

from repro.experiments.figures import run_figure1, run_figure4
from repro.verify.verdict import Verdict


def test_figure1(context):
    result = run_figure1(context)
    print()
    print("figure 1(a) correct imputation :", result.verified_report.summary())
    print("figure 1(a) wrong imputation   :", result.refuted_report.summary())
    print("figure 1(b) wrong generated text:", result.text_report.summary())
    # panel (a): a correct imputation is verified with supporting evidence
    assert result.verified_report.final_verdict is Verdict.VERIFIED
    assert len(result.verified_report.supporting) >= 1
    # panel (a): a wrong imputation is refuted
    assert result.refuted_report.final_verdict is Verdict.REFUTED
    assert len(result.refuted_report.refuting) >= 1
    # panel (b): wrong generated text refuted by text and tuple evidence
    assert result.text_report.final_verdict is Verdict.REFUTED


def test_figure4(context):
    result = run_figure4(context)
    print()
    print("claim:", result.claim_text)
    print(result.report.summary())
    for explanation in result.refuting_explanations:
        print("  E1:", explanation)
    for explanation in result.unrelated_explanations[:2]:
        print("  E2:", explanation)
    # the claim is refuted via an aggregation over the evidence table
    assert result.report.final_verdict is Verdict.REFUTED
    # the Verifier stopped at that table, its first decisive pair
    verdicts = [o.verdict for o in result.report.outcomes]
    assert verdicts[-1] is Verdict.REFUTED
    assert set(verdicts[:-1]) <= {Verdict.NOT_RELATED}
    assert len(verdicts) < len(result.report.evidence_ids)
    assert any("total" in e for e in result.refuting_explanations)
    # and other retrieved tables are explained away (by year mismatch —
    # the paper's E2 — or by scope mismatch)
    assert result.unrelated_explanations
    assert any(
        "year" in e or "claim concerns" in e or "scope" in e
        for e in result.unrelated_explanations
    )
