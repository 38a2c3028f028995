# Convenience targets for the VerifAI reproduction.

.PHONY: install check test test-shard serve-demo trace-demo loop-demo experiments examples lint sanitize coverage

install:
	pip install -e . --no-build-isolation

# the default CI gate, each test file once: static analysis, the whole
# of tests/, the slow soak tier-1 deselects, the concurrency suites
# under the lockset race sanitizer, and the coverage floor.  A target
# stays in this file only if `check` depends on it or it runs something
# no single pytest path does; timing is `python3 -m bench.run`
check: lint test test-shard sanitize coverage

# tests/ includes tests/paper/, the paper's tables, figures and
# ablations as shape assertions at the medium scale (REPRO_SCALE=paper
# for the full corpus EXPERIMENTS.md reports)
test:
	PYTHONPATH=src pytest tests/ -q

# the slow soak of the sharding equivalence + churn differential suite
# that tier-1 deselects (-m slow overrides the default -m "not slow"
# addopts; the non-slow half of both files runs in `test`)
test-shard:
	PYTHONPATH=src pytest tests/test_index_sharding.py tests/test_index_churn.py \
		-m slow -q

# serve a small lake, replay a seeded load mix against ourselves,
# print the p50/p95/p99 + shed report, and exit
serve-demo:
	PYTHONPATH=src python -m repro.cli build-lake --tables 40 \
		--out /tmp/repro-serve-lake.json
	PYTHONPATH=src python -m repro.cli serve \
		--lake /tmp/repro-serve-lake.json --port 0 --demo 32

# end-to-end trace demo: build a small lake, run a traced campaign,
# render the span tree (artifacts land in /tmp)
trace-demo:
	PYTHONPATH=src python -m repro.cli build-lake --tables 40 \
		--out /tmp/repro-trace-lake.json
	PYTHONPATH=src python -m repro.cli verify-batch \
		--lake /tmp/repro-trace-lake.json --sample 8 --workers 4 \
		--trace /tmp/repro-trace.json
	PYTHONPATH=src python -m repro.cli trace /tmp/repro-trace.json

# the stdlib line-coverage gate (no coverage.py in the image): rerun
# the suites that exercise the orchestration loop, the repairer, the
# simulated LLM's prompt handlers (with their readings memos), the
# rerankers, the token embedder, the flat vector index, the inverted
# index (dict form, compile, patch), the sharded indexes, the text
# layer's analysis and similarity, the campaign path's glue (prompt
# splitting and response parsing, the verifier module, the combiner and
# the ranking type it fuses, the data objects), the evidence form's
# writers and readers, the indexer's build-on-first-read lifecycle and
# the cross-modal discovery index in a fresh interpreter
# under the settrace tracer, failing (exit 4) if any measured file dips
# below the committed 90% floor
coverage:
	PYTHONPATH=src python -m repro.cli coverage --floor 0.9 \
		--target src/repro/loop --target src/repro/repair.py \
		--target src/repro/llm/model.py --target src/repro/rerank \
		--target src/repro/embed/token_embed.py \
		--target src/repro/index/vector.py \
		--target src/repro/index/inverted.py \
		--target src/repro/index/shard.py \
		--target src/repro/text/tokenize.py \
		--target src/repro/text/similarity.py \
		--target src/repro/llm/prompts.py \
		--target src/repro/core/verifier.py \
		--target src/repro/index/combiner.py \
		--target src/repro/index/base.py \
		--target src/repro/datalake/serialize.py \
		--target src/repro/verify/objects.py \
		--target src/repro/core/indexer.py \
		--target src/repro/discovery/crossmodal.py -- -q \
		tests/test_loop.py tests/test_repair.py tests/test_llm_model.py \
		tests/test_llm_readings.py tests/test_rerank.py \
		tests/test_embed_token.py tests/test_index_vector.py \
		tests/test_rerank_readings.py tests/test_index_patch.py \
		tests/test_index_matrix.py tests/test_index_churn.py \
		tests/test_core_indexer_mutation.py tests/test_text_tokenize.py \
		tests/test_text_similarity.py tests/test_llm_prompts.py \
		tests/test_core_verifier_module.py tests/test_index_combiner.py \
		tests/test_verdict_glue.py tests/test_index_sharding.py \
		tests/test_datalake_serialize.py tests/test_index_ranking.py \
		tests/test_rerank_vocabulary.py tests/test_indexer_lazy.py \
		tests/test_core_indexer.py tests/test_core_indexer_extensions.py \
		tests/test_discovery.py

lint:
	PYTHONPATH=src python -m repro.cli lint --baseline lint_baseline.json src/repro

# orchestrate-until-pass demo: run the default convergence mix and
# print per-round verdict deltas plus the mix summary (write audit
# trails with --trail DIR)
loop-demo:
	PYTHONPATH=src python -m repro.cli orchestrate --max-iters 4

# the concurrency suites (and the thread hammers on the simulated LLM's
# readings memo and call count, on a shared RerankerModule, on readers racing to patch
# a seal, on solo readers racing to build a fresh seal's contribution
# table, on the text layer's word table while it fills, and on the token
# embedder's vocabulary read lock-free while it grows, from first touches
# and from the build pass, on the sharded indexes read by batch
# workers, on first readers racing to build a modality, and on the
# verifier's digest-keyed outcome cache) under the Eraser-style lockset
# race sanitizer (see docs/static_analysis.md);
# exit status 3 = races found
sanitize:
	PYTHONPATH=src python -m repro.cli sanitize -- -q \
		tests/test_batch_faults.py tests/test_index_sharding.py \
		tests/test_index_churn.py tests/test_llm_readings.py \
		tests/test_rerank_readings.py tests/test_index_patch.py \
		tests/test_text_tokenize.py tests/test_index_ranking.py \
		tests/test_rerank_vocabulary.py tests/test_index_matrix.py \
		tests/test_indexer_lazy.py tests/test_core_verifier_module.py

# regenerate EXPERIMENTS.md: every table, figure and ablation at the
# paper scale (the build/search seconds of the vector-index ablation
# are the only host-dependent cells)
experiments:
	PYTHONPATH=src python examples/run_paper_experiments.py paper > EXPERIMENTS.md

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f > /dev/null || exit 1; done
