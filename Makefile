# Convenience targets for the VerifAI reproduction.

.PHONY: check test test-slow trace-demo loop-demo experiments examples lint coverage

# the default CI gate: static analysis, the whole of tests/, the slow
# soak tier-1 deselects, and the coverage floor.  A target stays in
# this file only if `check` depends on it or it runs something no
# single pytest path does; timing is `python3 -m bench.run`
check: lint test test-slow coverage

# tests/ includes tests/paper/, the paper's tables, figures and
# ablations as shape assertions at the medium scale (REPRO_SCALE=paper
# for the full corpus EXPERIMENTS.md reports)
test:
	PYTHONPATH=src pytest tests/ -q

# the slow tests tier-1 deselects: the soak of the churn differential
# suite, and the 2,400-table lake's byte pin (-m slow overrides the
# default -m "not slow" addopts; the non-slow rest of these files runs
# in `test`)
test-slow:
	PYTHONPATH=src pytest tests/test_index_churn.py tests/test_workloads.py \
		-m slow -q

# end-to-end trace demo: build a small lake, run a traced campaign,
# render the span tree (artifacts land in /tmp)
trace-demo:
	PYTHONPATH=src python -m repro.cli build-lake --tables 40 \
		--out /tmp/repro-trace-lake.json
	PYTHONPATH=src python -m repro.cli verify-batch \
		--lake /tmp/repro-trace-lake.json --sample 8 \
		--trace /tmp/repro-trace.json
	PYTHONPATH=src python -m repro.cli trace /tmp/repro-trace.json

# the stdlib line-coverage gate (no coverage.py in the image): rerun
# the suites that exercise the orchestration loop, the repairer, the
# simulated LLM's prompt handlers, the rerankers and the module that
# routes to them, the Agent and the LLM verifier, the pipeline config's
# validation, the token embedder, the hashing vectorizers' block kernel,
# the flat vector index, the inverted
# index (compile, view, compaction, seeded churn against the dict
# oracle), the text layer's
# analysis and similarity, the campaign path's glue (prompt splitting
# and response parsing, the verifier module, the combiner and the
# ranking type it fuses, the data objects), the evidence form's writers
# and readers, the indexer's build-on-first-read lifecycle, the corpus
# generator's name and page draws, the trust model with its pooling
# rule, the experiment runners that verify through the system (the
# labelled cases, the end-to-end and trust campaigns, Table 2, the
# figures, the headline; on the tiny context), and the provenance store
# the campaigns write their stages into, in a fresh interpreter
# under the settrace tracer, failing (exit 4) if any measured file dips
# below the committed 90% floor
coverage:
	PYTHONPATH=src python -m repro.cli coverage --floor 0.9 \
		--target src/repro/loop --target src/repro/repair.py \
		--target src/repro/llm/model.py --target src/repro/rerank \
		--target src/repro/embed/token_embed.py \
		--target src/repro/embed/vectorizers.py \
		--target src/repro/index/vector.py \
		--target src/repro/index/inverted.py \
		--target src/repro/text/tokenize.py \
		--target src/repro/text/similarity.py \
		--target src/repro/llm/prompts.py \
		--target src/repro/core/verifier.py \
		--target src/repro/verify/agent.py \
		--target src/repro/verify/llm_verifier.py \
		--target src/repro/core/reranker.py \
		--target src/repro/core/config.py \
		--target src/repro/index/combiner.py \
		--target src/repro/index/base.py \
		--target src/repro/datalake/serialize.py \
		--target src/repro/verify/objects.py \
		--target src/repro/core/indexer.py \
		--target src/repro/workloads/vocab.py \
		--target src/repro/workloads/textgen.py \
		--target src/repro/trust/model.py \
		--target src/repro/experiments/setup.py \
		--target src/repro/experiments/endtoend.py \
		--target src/repro/experiments/ablations.py \
		--target src/repro/experiments/table2.py \
		--target src/repro/experiments/figures.py \
		--target src/repro/experiments/headline.py \
		--target src/repro/provenance/store.py -- -q \
		tests/test_loop.py tests/test_repair.py tests/test_llm_model.py \
		tests/test_llm_readings.py tests/test_rerank.py \
		tests/test_embed_token.py tests/test_index_vector.py \
		tests/test_rerank_readings.py tests/test_index_patch.py \
		tests/test_index_view.py tests/test_index_one_per_modality.py \
		tests/test_index_matrix.py tests/test_index_churn.py \
		tests/test_core_indexer_mutation.py tests/test_text_tokenize.py \
		tests/test_text_similarity.py tests/test_llm_prompts.py \
		tests/test_core_verifier_module.py tests/test_index_combiner.py \
		tests/test_verdict_glue.py \
		tests/test_datalake_serialize.py tests/test_index_ranking.py \
		tests/test_rerank_vocabulary.py tests/test_indexer_lazy.py \
		tests/test_core_indexer.py tests/test_core_indexer_extensions.py \
		tests/test_workloads.py tests/test_workloads_textgen_kinds.py \
		tests/test_trust.py tests/test_core_pipeline.py \
		tests/test_experiments_smoke.py tests/test_experiments_harness.py \
		tests/test_provenance.py tests/test_verify_verifiers.py \
		tests/test_memos.py tests/test_embed_vectorizers.py

lint:
	PYTHONPATH=src python -m repro.cli lint src/repro

# orchestrate-until-pass demo: run the default convergence mix and
# print per-round verdict deltas plus the mix summary (write audit
# trails with --trail DIR)
loop-demo:
	PYTHONPATH=src python -m repro.cli orchestrate --max-iters 4

# regenerate EXPERIMENTS.md: every table, figure and ablation at the
# paper scale (the build/search seconds of the vector-index ablation
# are the only host-dependent cells)
experiments:
	PYTHONPATH=src python examples/run_paper_experiments.py paper > EXPERIMENTS.md

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; done
