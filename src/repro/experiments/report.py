"""Render experiment results as text/markdown (drives EXPERIMENTS.md).

``render_experiment(name, context)`` produces one experiment's table;
``render_full_report(context)`` produces the complete paper-vs-measured
markdown document.
"""

from __future__ import annotations

from typing import List

from repro.datalake.types import modality_of
from repro.experiments.ablations import (
    run_arithmetic_sensitivity,
    run_combiner_ablation,
    run_coverage_sensitivity,
    run_k_sweep,
    run_text_fact_checking,
    run_trust_ablation,
    run_tuple_verifier_comparison,
    run_vector_index_ablation,
)
from repro.experiments.endtoend import run_end_to_end
from repro.experiments.figures import run_figure1, run_figure4
from repro.experiments.headline import run_headline
from repro.experiments.routes import run_rerank_routes
from repro.experiments.setup import ExperimentContext
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.loop import MixReport, run_mix


def _markdown_table(headers, rows) -> str:
    def render(cell):
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell) if cell is not None else "NA"

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(render(c) for c in row) + " |")
    return "\n".join(lines)


def render_headline(context: ExperimentContext) -> str:
    result = run_headline(context)
    return _markdown_table(
        ["task", "paper", "measured"],
        [
            ["tuple imputation accuracy (no evidence)",
             result.paper_completion_accuracy, result.completion_accuracy],
            ["claim correctness accuracy (no evidence)",
             result.paper_claim_accuracy, result.claim_accuracy],
        ],
    )


def render_table1(context: ExperimentContext) -> str:
    rows = run_table1(context)
    return _markdown_table(
        ["generated data type", "retrieved data type", "k", "paper recall",
         "measured recall"],
        [[r.generated_type, r.retrieved_type, r.k, r.paper_recall, r.recall]
         for r in rows],
    )


def render_table2(context: ExperimentContext) -> str:
    rows = run_table2(context)
    return _markdown_table(
        ["pair", "ChatGPT (paper)", "ChatGPT (measured)", "PASTA (paper)",
         "PASTA (measured)"],
        [[r.pair, r.paper_chatgpt, r.chatgpt, r.paper_pasta, r.pasta]
         for r in rows],
    )


def _instances(context: ExperimentContext, outcomes, kind: str) -> str:
    """``"1 refuting instance: tuple"``: how many, and their modalities."""
    modalities = sorted({
        modality_of(context.system.lake.instance(o.evidence_id)).value
        for o in outcomes
    })
    plural = "" if len(outcomes) == 1 else "s"
    return f"{len(outcomes)} {kind} instance{plural}: {', '.join(modalities)}"


def render_figures(context: ExperimentContext) -> str:
    fig1 = run_figure1(context)
    fig4 = run_figure4(context)
    verified, refuted = fig1.verified_report, fig1.refuted_report
    lines = [
        "### Figure 1 (case studies)",
        "",
        f"* correct imputation: **{verified.final_verdict}** "
        f"({_instances(context, verified.supporting, 'supporting')})",
        f"* wrong imputation: **{refuted.final_verdict}** "
        f"({_instances(context, refuted.refuting, 'refuting')})",
        f"* wrong generated text: **{fig1.text_report.final_verdict}**",
        "",
        "### Figure 4 (aggregation refutation)",
        "",
        f"* claim: `{fig4.claim_text}`",
        f"* final verdict: **{fig4.report.final_verdict}**",
        f"* E1-style refutation: `{fig4.refuting_explanations[0]}`",
    ]
    if fig4.unrelated_explanations:
        lines.append(
            f"* E2-style rejection: `{fig4.unrelated_explanations[0]}`"
        )
    return "\n".join(lines)


def render_ablations(context: ExperimentContext) -> str:
    parts: List[str] = []
    sweep = run_k_sweep(context)
    parts.append("### Retrieval depth (tuple→text)\n")
    parts.append(_markdown_table(["k", "recall"], [[k, r] for k, r in sweep]))

    combiner = run_combiner_ablation(context)
    parts.append("\n### Combiner (content + semantic fusion, tuple→text)\n")
    parts.append(_markdown_table(
        ["configuration", "recall@3"], [[k, v] for k, v in combiner.items()]
    ))

    routes = run_rerank_routes(context)
    parts.append("\n### Rerank routes, arm by arm (full pipeline)\n")
    parts.append(_markdown_table(
        ["route", "arm", "precision@1", "recall@k'", "accuracy", "undecided"],
        [[r.route, r.arm] + [
            f"{value:.3f}" for value in
            (r.precision_at_1, r.recall, r.accuracy, r.undecided)
        ] for r in routes],
    ))
    parts.append(
        "\nCoarse is the head of the full pipeline's coarse list (`k_coarse` "
        "50), rerank the modality's scorer over it (ColBERT on text, "
        "OpenTFV-style on tables), rrf the two fused by reciprocal rank; end "
        "to end, the other routes read coarse. Only claim→table keeps its "
        "reranker: docs/performance.md (\"The tuple routes stop "
        "reranking\") has the rule, committed first, and the arms at three "
        "seeds that retired the tuple routes and the tuple-pair scorer."
    )

    vectors = run_vector_index_ablation(context)
    parts.append("\n### Vector indexes (Faiss trade-off)\n")
    parts.append(_markdown_table(
        ["index", "recall@10 vs flat", "build (s, host-dependent)",
         "search (s, host-dependent)"],
        [[r.name, r.recall_at_10, round(r.build_seconds, 3),
          round(r.search_seconds, 4)] for r in vectors],
    ))

    trust = run_trust_ablation(context)
    parts.append("\n### Trust-weighted pooling (challenge C3)\n")
    parts.append(_markdown_table(
        ["metric", "value"], [[k, v] for k, v in trust.items()]
    ))
    parts.append(
        "\nBoth rows are `VerifAI` runs over the dirty lake that differ "
        "only in `source_trust`: each verifies the same objects against "
        "their depth-8 tuple evidence, and the first decisive verdict in "
        "rank order from a trusted source decides (uniform: no trust map, "
        "every source trusted alike; trust-weighted: the fitted trusts, "
        "where a source below 0.5 decides only when no trusted source is "
        "decisive). Reading the hits in rank order alone recovers most of "
        "what the dirty sources cost a vote over every hit, so passing "
        "over the distrusted sources has little left to win here. Fitting "
        "trust inside the pipeline is left to ROADMAP.md (\"Trust runs "
        "through the pipeline, not beside it\")."
    )

    comparison = run_tuple_verifier_comparison(context)
    parts.append(
        "\n### Local (tuple, tuple) verifier vs LLM "
        "(paper: \"comparable to ChatGPT\")\n"
    )
    parts.append(_markdown_table(
        ["verifier", "accuracy on retrieved (tuple, tuple) pairs"],
        [["LLM (ChatGPT stand-in)", comparison["llm_accuracy"]],
         ["trained local classifier", comparison["local_accuracy"]]],
    ))

    text_fc = run_text_fact_checking(context)
    parts.append(
        "\n### (text, text) fact checking (the pair type the paper "
        "declares viable and skips)\n"
    )
    parts.append(_markdown_table(
        ["metric", "value"], [[k, v] for k, v in text_fc.items()]
    ))

    end_to_end = run_end_to_end(context)
    parts.append("\n### End-to-end final-verdict accuracy (full pipeline)\n")
    parts.append(_markdown_table(
        ["configuration", "tuple accuracy", "claim accuracy",
         "tuple undecided", "claim undecided"],
        [[r.configuration, r.tuple_accuracy, r.claim_accuracy,
          r.tuple_undecided, r.claim_undecided] for r in end_to_end],
    ))

    sensitivity = run_arithmetic_sensitivity(context)
    parts.append("\n### Sensitivity: arithmetic noise vs verifier accuracy\n")
    parts.append(_markdown_table(
        ["arithmetic_slip", "(text, relevant table) accuracy"],
        [[slip, acc] for slip, acc in sensitivity],
    ))

    coverage = run_coverage_sensitivity(context)
    parts.append("\n### Sensitivity: parametric coverage vs imputation accuracy\n")
    parts.append(_markdown_table(
        ["coverage", "imputation accuracy"],
        [[cov, acc] for cov, acc in coverage],
    ))

    parts.append(
        "\n### Generate-verify-revise loop (the default mix, at most 4 "
        "rounds)\n"
    )
    parts.append(render_loop(run_mix()))
    parts.append(
        "\nEach scenario builds its own 48-table lake, so this table does "
        "not follow the scale. A first draft comes from a generator with "
        "poor parametric memory; each refuted draft is revised with the "
        "verifier's feedback (docs/orchestration.md)."
    )
    return "\n".join(parts)


def render_loop(report: MixReport) -> str:
    """The generate-verify-revise loop's convergence, scenario by
    scenario and over the mix."""
    rows = [
        [r.scenario.name, len(r.result), r.result.first_pass_accuracy,
         r.result.end_accuracy, r.result.convergence_rate,
         r.result.mean_iterations_to_pass]
        for r in report
    ]
    rows.append([
        "mix", report.tasks, report.first_pass_accuracy, report.end_accuracy,
        report.convergence_rate, report.mean_iterations_to_pass,
    ])
    return _markdown_table(
        ["scenario", "tasks", "first-pass accuracy", "end accuracy",
         "converged", "mean rounds to pass"],
        rows,
    )


_RENDERERS = {
    "headline": render_headline,
    "table1": render_table1,
    "table2": render_table2,
    "figures": render_figures,
    "ablations": render_ablations,
}


def render_experiment(name: str, context: ExperimentContext) -> str:
    """Render one experiment by name."""
    if name not in _RENDERERS:
        raise ValueError(f"unknown experiment {name!r}; choose from "
                         f"{sorted(_RENDERERS)}")
    return _RENDERERS[name](context)


def render_full_report(context: ExperimentContext) -> str:
    """The complete EXPERIMENTS.md body for one context."""
    stats = context.bundle.lake.stats()
    sections = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "This file is the output of `PYTHONPATH=src python "
        "examples/run_paper_experiments.py %s` (`make experiments` runs "
        "it at the `paper` scale); `tests/paper/` asserts the same shapes "
        "in tier-1.  Every number is seeded and reproducible except the "
        "vector-index build/search seconds, which depend on the host."
        % context.scale,
        "",
        f"Corpus: {stats.num_tables} tables / {stats.num_tuples} tuples / "
        f"{stats.num_text_files} text files (scale `{context.scale}`, "
        "seeded, deterministic).  Paper corpus: 19,498 tables / 269,622 "
        "tuples / 13,796 text files.",
        "",
        "## Headline (Section 4, 'Results')",
        "",
        render_headline(context),
        "",
        "## Table 1 — recall on retrieved data instances",
        "",
        render_table1(context),
        "",
        "## Table 2 — evaluation on Verifier",
        "",
        render_table2(context),
        "",
        "## Figures",
        "",
        render_figures(context),
        "",
        "## Ablations",
        "",
        render_ablations(context),
    ]
    return "\n".join(sections)
