"""Differential proof of the scatter-gather executor strategies.

The contract under test (src/repro/index/executor.py + shard.py): the
serial loop, the thread pool, and the multiprocessing pool are three
interchangeable transports for the same scatter-gather computation.
Every strategy returns the bit-identical ``(instance_id, score)``
rankings — process workers attach memmapped sealed snapshots spooled
by the parent, score with the same matrix kernel, and the merge
replays the same ``(-score, id)`` total order.  At the system level,
traced campaigns export byte-identical JSON under a frozen TickClock
regardless of executor or matrix-prefill setting.
"""

import gc
import os
from pathlib import Path

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.embed.vectorizers import HashingVectorizer
from repro.index import executor, persistence
from repro.index.executor import (
    EXECUTOR_MODES,
    ShardSpool,
    scatter,
    validate_executor_mode,
)
from repro.index.shard import ShardedInvertedIndex, ShardedVectorIndex
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.export import render_trace_json
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeConfig, build_lake

DOCS = [
    (f"doc-{i:03d}", text)
    for i, text in enumerate(
        [
            "the quick brown fox jumps over the lazy dog",
            "a quick brown dog barks at the fox",
            "lazy afternoons in the brown meadow",
            "the fox and the hound are friends",
            "dogs and foxes share the meadow at dusk",
            "quick reflexes help the hound catch nothing",
            "the meadow fox naps while the dog watches",
            "hounds bark and foxes listen at dusk",
        ]
        * 4  # spread a few dozen docs across the shards
    )
]

QUERIES = ["quick brown fox", "lazy meadow", "hound dusk", "", "absent"]


def pairs(hits):
    return [(h.instance_id, h.score) for h in hits]


def build_sharded(executor="serial", num_shards=4):
    sharded = ShardedInvertedIndex(
        num_shards, name="exec-test", executor=executor
    )
    for doc_id, text in DOCS:
        sharded.add(doc_id, text)
    return sharded


# ---------------------------------------------------------------------------
# mode validation
# ---------------------------------------------------------------------------
class TestModeSelection:
    def test_valid_modes_pass_through(self):
        assert set(EXECUTOR_MODES) == {"serial", "thread", "process"}
        for mode in EXECUTOR_MODES:
            assert validate_executor_mode(mode) == mode

    @pytest.mark.parametrize("bad", ["", "parallel", "fork", "SERIAL", None])
    def test_invalid_modes_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_executor_mode(bad)

    def test_config_wiring_rejects_bad_mode(self, small_bundle):
        config = VerifAIConfig(shard_search_executor="sideways")
        with pytest.raises(ValueError):
            IndexerModule(small_bundle.lake, config)


# ---------------------------------------------------------------------------
# the headline equality: three transports, one answer
# ---------------------------------------------------------------------------
class TestExecutorEquality:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_inverted_identical_across_executors(self, num_shards):
        oracle = build_sharded("serial", num_shards)
        expected = [pairs(h) for h in oracle.search_batch(QUERIES, 8)]
        for mode in ("thread", "process"):
            sharded = build_sharded(mode, num_shards)
            assert [
                pairs(h) for h in sharded.search_batch(QUERIES, 8)
            ] == expected, mode
            # the single-query face goes through the same dispatch
            assert pairs(sharded.search(QUERIES[0], 8)) == expected[0]

    def test_vector_identical_across_executors(self):
        encoder = HashingVectorizer(dim=32).transform
        expected = None
        for mode in EXECUTOR_MODES:
            sharded = ShardedVectorIndex(
                3, dim=32, encoder=encoder, name="vec-exec", executor=mode
            )
            for doc_id, text in DOCS:
                sharded.add(doc_id, text)
            got = [pairs(h) for h in sharded.search_batch(QUERIES[:3], 8)]
            if expected is None:
                expected = got
            else:
                assert got == expected, mode

    def test_process_results_track_live_mutation(self):
        sharded = build_sharded("process", num_shards=3)
        before = pairs(sharded.search("quick brown fox", 8))
        assert before  # non-vacuous
        sharded.remove("doc-000")
        sharded.update("doc-001", "entirely different vocabulary now")
        oracle = build_sharded("serial", num_shards=3)
        oracle.remove("doc-000")
        oracle.update("doc-001", "entirely different vocabulary now")
        after = pairs(sharded.search("quick brown fox", 8))
        assert after == pairs(oracle.search("quick brown fox", 8))
        assert after != before


# ---------------------------------------------------------------------------
# the one fan-out
# ---------------------------------------------------------------------------
def shard_census(shard, tag):
    """A trivial task: module-level, so a worker can unpickle it."""
    return tag, shard.name, len(shard)


def build_sharded_vectors(num_shards=3):
    sharded = ShardedVectorIndex(
        num_shards, dim=16, encoder=HashingVectorizer(dim=16).transform,
        name="vec-exec",
    )
    for doc_id, text in DOCS:
        sharded.add(doc_id, text)
    return sharded


class TestScatter:
    @pytest.mark.parametrize("build", [build_sharded, build_sharded_vectors])
    def test_a_task_returns_the_same_list_in_every_mode(self, build):
        sharded = build()
        spool = ShardSpool(prefix="repro-scatter-test-")
        expected = [
            ("census", shard.name, len(shard)) for shard in sharded.shards
        ]
        assert sum(size for _, _, size in expected) == len(DOCS)
        try:
            for mode in EXECUTOR_MODES:
                assert scatter(
                    sharded.shards, mode, spool, sharded._save,
                    shard_census, "census",
                ) == expected, mode
            assert len(spool.shard_dirs) == len(sharded.shards)
        finally:
            spool.invalidate()

    def test_the_worker_entry_attaches_each_directory_once(
        self, monkeypatch, tmp_path
    ):
        bm25, vectors = build_sharded("serial", 2), build_sharded_vectors(2)
        persistence.save_sealed_index(bm25.shards[0], tmp_path / "bm25")
        persistence.save_vector_index(vectors.shards[0], tmp_path / "vec")
        attached = []
        real = persistence.attach_snapshot
        monkeypatch.setattr(
            persistence, "attach_snapshot",
            lambda directory: attached.append(directory) or real(directory),
        )
        monkeypatch.setattr(executor, "_ATTACHED", {})
        for shard, name in ((bm25.shards[0], "bm25"), (vectors.shards[0], "vec")):
            directory = str(tmp_path / name)
            for _ in range(3):
                assert executor._run_attached(
                    directory, shard_census, name
                ) == (name, shard.name, len(shard))
            assert executor._ATTACHED[directory].is_attached
        assert attached == [str(tmp_path / "bm25"), str(tmp_path / "vec")]

    def test_a_snapshot_of_neither_kind_is_refused(self, tmp_path):
        from repro.verify.base import VerificationError

        persistence.save_sealed_sharded_index(
            build_sharded("serial", 2), tmp_path
        )
        with pytest.raises(VerificationError, match="sealed-sharded"):
            persistence.attach_snapshot(tmp_path)


# ---------------------------------------------------------------------------
# the spool that feeds process workers
# ---------------------------------------------------------------------------
class TestShardSpool:
    def test_ensure_is_idempotent_until_invalidated(self, tmp_path):
        sharded = build_sharded("serial", 2)
        spool = ShardSpool(prefix="repro-spool-test-")
        saved = []

        def save(shard, target):
            saved.append(shard.name)
            Path(target).mkdir(parents=True, exist_ok=True)

        first = spool.ensure(sharded.shards, save)
        assert spool.ensure(sharded.shards, save) == first
        assert len(saved) == 2  # not re-persisted on the second call
        assert all(os.path.isdir(d) for d in first)
        spool.invalidate()
        assert not any(os.path.isdir(d) for d in first)
        second = spool.ensure(sharded.shards, save)
        assert second != first
        assert len(saved) == 4
        spool.invalidate()

    def test_a_collected_spool_takes_its_directory_with_it(self):
        spool = ShardSpool(prefix="repro-spool-test-")
        (spooled,) = spool.ensure(
            ["shard"], lambda shard, target: os.makedirs(target)
        )
        assert os.path.isdir(spooled)
        del spool
        gc.collect()
        assert not os.path.isdir(spooled)

    def test_mutation_invalidates_search_spool(self):
        sharded = build_sharded("process", 2)
        sharded.search_batch(QUERIES[:1], 4)  # forces a spool
        spooled = list(sharded._spool.shard_dirs)
        assert spooled and all(os.path.isdir(d) for d in spooled)
        sharded.remove("doc-002")
        assert not sharded._spool.shard_dirs
        assert not any(os.path.isdir(d) for d in spooled)


# ---------------------------------------------------------------------------
# system level: executors are invisible in reports AND traces
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_bundle():
    return build_lake(LakeConfig(num_tables=12, seed=33))


@pytest.fixture(scope="module")
def trace_workload(trace_bundle):
    return [
        TupleObject(f"obj-{i}", table.row(0), attribute=table.columns[1])
        for i, table in enumerate(trace_bundle.tables[:5])
    ]


def traced_run(bundle, workload, executor):
    config = VerifAIConfig(
        num_shards=2,
        shard_search_executor=executor,
    )
    system = VerifAI(
        bundle.lake,
        llm=SimulatedLLM(knowledge=None, seed=26),
        config=config,
        clock=TickClock(),
    ).build_indexes()
    return system.verify_batch(workload, trace=True)


class TestSystemInvariance:
    def test_traces_byte_identical_across_executors(
        self, trace_bundle, trace_workload
    ):
        runs = {
            mode: traced_run(trace_bundle, trace_workload, mode)
            for mode in EXECUTOR_MODES
        }
        rendered = {
            mode: render_trace_json(batch.trace)
            for mode, batch in runs.items()
        }
        assert rendered["thread"] == rendered["serial"]
        assert rendered["process"] == rendered["serial"]
        verdicts = {
            mode: [(r.object_id, r.final_verdict) for r in batch.reports]
            for mode, batch in runs.items()
        }
        assert verdicts["thread"] == verdicts["serial"]
        assert verdicts["process"] == verdicts["serial"]

    def test_matrix_prefill_counted(self, trace_bundle, trace_workload):
        batch = traced_run(trace_bundle, trace_workload, "serial")
        assert batch.stats.matrix_batches > 0
        assert "matrix batches" in batch.stats.summary()
