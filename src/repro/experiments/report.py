"""Render experiment results as text/markdown (drives EXPERIMENTS.md).

``render_experiment(name, context)`` produces one experiment's table;
``render_full_report(context)`` produces the complete paper-vs-measured
markdown document.
"""

from __future__ import annotations

from typing import List

from repro.experiments.ablations import (
    run_arithmetic_sensitivity,
    run_combiner_ablation,
    run_coverage_sensitivity,
    run_k_sweep,
    run_reranker_ablation,
    run_text_fact_checking,
    run_text_reranker_ablation,
    run_trust_ablation,
    run_tuple_verifier_comparison,
    run_vector_index_ablation,
)
from repro.experiments.figures import run_figure1, run_figure4
from repro.experiments.headline import run_headline
from repro.experiments.setup import ExperimentContext
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2


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


def render_figures(context: ExperimentContext) -> str:
    fig1 = run_figure1(context)
    fig4 = run_figure4(context)
    lines = [
        "### Figure 1 (case studies)",
        "",
        f"* correct imputation: **{fig1.verified_report.final_verdict}** "
        f"({len(fig1.verified_report.supporting)} supporting instances)",
        f"* wrong imputation: **{fig1.refuted_report.final_verdict}** "
        f"({len(fig1.refuted_report.refuting)} refuting instances, tuple "
        "and text)",
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

    reranker = run_reranker_ablation(context)
    parts.append("\n### Reranker (claim→table)\n")
    parts.append(_markdown_table(
        ["configuration", "recall@5"], [[k, v] for k, v in reranker.items()]
    ))

    text_reranker = run_text_reranker_ablation(context)
    parts.append("\n### Reranker (tuple→text, ColBERT-style)\n")
    parts.append(_markdown_table(
        ["configuration", "recall@3"],
        [[k, v] for k, v in text_reranker.items()],
    ))

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

    from repro.experiments.endtoend import run_end_to_end

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
    return "\n".join(parts)


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
