# Convenience targets for the VerifAI reproduction.

.PHONY: install check test test-faults test-obs test-shard serve-test serve-demo trace-demo loop-demo bench bench-quick bench-check bench-batch bench-serve bench-shard bench-loop bench-paper experiments examples lint lint-json sanitize coverage

install:
	pip install -e . --no-build-isolation

# the default CI gate, each test file once: static analysis, the whole
# of tests/ (which holds the test-obs, serve-test and bench-quick files
# — those three targets are for quick iteration, not part of the gate),
# the slow soak tier-1 deselects, the concurrency suites under the
# lockset race sanitizer, and the coverage floor (bench-check is not in
# the gate: it diffs the committed BENCH_*.json against themselves,
# which tests/test_benchdiff.py::TestCommittedBaselines already does)
check: lint test test-shard sanitize coverage

# tests/ includes tests/test_batch_faults.py, the fault-isolation suite
# for verification campaigns (poisoned objects, retries, fail_fast, and
# the no-dangling-provenance invariant)
test:
	PYTHONPATH=src pytest tests/ -q

# just the fault-isolation suite, for quick iteration on the boundary
test-faults:
	PYTHONPATH=src pytest tests/test_batch_faults.py -q

# observability smoke: clocks, metrics scopes, and byte-stable traces
test-obs:
	PYTHONPATH=src pytest tests/test_obs_clock_metrics.py tests/test_obs_trace.py -q

# the slow soak of the sharding equivalence + churn differential suite
# that tier-1 deselects (-m slow overrides the default -m "not slow"
# addopts; the non-slow half of both files runs in `test`)
test-shard:
	PYTHONPATH=src pytest tests/test_index_sharding.py tests/test_index_churn.py \
		-m slow -q

# the verification service: endpoints, admission control under
# contention, and the deterministic load harness
serve-test:
	PYTHONPATH=src pytest tests/test_serve.py tests/test_serve_admission.py -q

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
# simulated LLM's prompt handlers (with their readings memo), the
# rerankers, the token embedder, the flat vector index, the inverted
# index (dict form, compile, patch), the sharded indexes and their one
# scatter (the process worker's entry is called in-process), the text
# layer's analysis and similarity, and the campaign path's glue (prompt
# splitting and response parsing, the verifier module, the combiner) in
# a fresh interpreter under the settrace tracer, failing (exit 4) if
# any measured file dips below the committed 90% floor
coverage:
	PYTHONPATH=src python -m repro.cli coverage --floor 0.9 \
		--target src/repro/loop --target src/repro/repair.py \
		--target src/repro/llm/model.py --target src/repro/rerank \
		--target src/repro/embed/token_embed.py \
		--target src/repro/index/vector.py \
		--target src/repro/index/inverted.py \
		--target src/repro/index/shard.py \
		--target src/repro/index/executor.py \
		--target src/repro/text/tokenize.py \
		--target src/repro/text/similarity.py \
		--target src/repro/llm/prompts.py \
		--target src/repro/core/verifier.py \
		--target src/repro/index/combiner.py -- -q \
		tests/test_loop.py tests/test_repair.py tests/test_llm_model.py \
		tests/test_llm_readings.py tests/test_rerank.py \
		tests/test_embed_token.py tests/test_index_vector.py \
		tests/test_rerank_readings.py tests/test_index_patch.py \
		tests/test_index_matrix.py tests/test_index_churn.py \
		tests/test_core_indexer_mutation.py tests/test_text_tokenize.py \
		tests/test_text_similarity.py tests/test_llm_prompts.py \
		tests/test_core_verifier_module.py tests/test_index_combiner.py \
		tests/test_verdict_glue.py tests/test_index_sharding.py \
		tests/test_index_executor.py tests/test_executor_lifecycle.py

lint:
	PYTHONPATH=src python -m repro.cli lint --baseline lint_baseline.json src/repro

# orchestrate-until-pass demo: run the default convergence mix and
# print per-round verdict deltas plus the mix summary (write audit
# trails with --trail DIR)
loop-demo:
	PYTHONPATH=src python -m repro.cli orchestrate --max-iters 4

lint-json:
	PYTHONPATH=src python -m repro.cli lint --json --baseline lint_baseline.json src/repro

# the concurrency suites (and the thread hammers on the simulated LLM's
# readings memo and call count, on a shared RerankerModule, on readers racing to patch
# a seal, and on the text layer's word table while it fills) under the
# Eraser-style lockset race sanitizer (see docs/static_analysis.md);
# exit status 3 = races found
sanitize:
	PYTHONPATH=src python -m repro.cli sanitize -- -q \
		tests/test_batch_faults.py tests/test_index_executor.py \
		tests/test_index_churn.py tests/test_llm_readings.py \
		tests/test_rerank_readings.py tests/test_index_patch.py \
		tests/test_text_tokenize.py

bench:
	pytest benchmarks/ --benchmark-only

# the timing-free half of the benchmark story: the bit-identity proofs
# behind every speed claim (query-matrix kernel, memmap round-trip,
# executor equivalence, the verdict path's content-keyed readings, the
# read-once rerank and semantic-search path, the patched seal's byte
# equality with a compile, the table-walk analysis and the bit-parallel
# edit distance against their per-occurrence / DP oracles, the prompt
# splitter, response parser, candidate ordering and one-index combiner
# against the bodies they replaced) — no timing
# assertions, pure score/byte equality, fast enough to gate every
# `make check`
bench-quick:
	PYTHONPATH=src pytest tests/test_index_matrix.py \
		tests/test_index_memmap.py tests/test_index_executor.py \
		tests/test_llm_readings.py tests/test_rerank_readings.py \
		tests/test_index_patch.py tests/test_text_tokenize.py \
		tests/test_text_similarity.py tests/test_verdict_glue.py -q

# the regression gate's self-consistency check: every committed
# BENCH_*.json snapshot must diff clean against itself (exercises the
# loader + gate end to end; compare a fresh run against the committed
# snapshots with `repro bench diff . /path/to/new` after re-benching)
bench-check:
	PYTHONPATH=src python -m repro.cli bench diff . .

bench-batch:
	pytest benchmarks/test_bench_batch.py --benchmark-only \
		--benchmark-json=BENCH_batch.json

bench-serve:
	pytest benchmarks/test_bench_serve.py --benchmark-only \
		--benchmark-json=BENCH_serve.json

bench-shard:
	pytest benchmarks/test_bench_shard.py --benchmark-only \
		--benchmark-json=BENCH_shard.json

# the convergence campaign as a tracked benchmark: wall time of the
# default scenario mix, with the accuracy lift and iteration stats
# recorded in extra_info and gated by `repro bench diff`
bench-loop:
	PYTHONPATH=src pytest benchmarks/test_bench_loop.py --benchmark-only \
		--benchmark-json=BENCH_loop.json

bench-paper:
	REPRO_SCALE=paper pytest benchmarks/ --benchmark-only

experiments:
	python examples/run_paper_experiments.py paper

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done
