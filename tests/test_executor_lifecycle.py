"""Process-pool lifecycle + broken-pool recovery (server readiness).

Two latent bugs only a long-lived process hits:

* the shared pool used to be forked lazily at the first search with
  ``os.cpu_count()`` workers and no way to configure it — in a threaded
  server that forks *after* threads exist.  ``configure_process_pool``
  / ``shutdown_process_pool`` give the server an explicit startup /
  shutdown seam (the lazy default stays for one-shot CLI runs);
* a ``BrokenProcessPool`` (worker OOM-killed or crashed) used to
  propagate out of scatter-gather and poison every subsequent query on
  the dead shared pool.  Now the broken pool is evicted, the failing
  query falls back to the serial strategy (identical results), the
  ``index.executor.pool_broken`` counter ticks, and the next search
  respawns a fresh pool.
"""

import os

import pytest

from repro.index import executor
from repro.index.executor import (
    configure_process_pool,
    shared_process_pool,
    shutdown_process_pool,
)
from repro.index.shard import ShardedInvertedIndex
from repro.obs.metrics import get_registry

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
        ]
        * 3
    )
]

QUERIES = ["quick brown fox", "lazy meadow", "hound dusk"]


def _kill_self() -> None:  # pragma: no cover - runs in a worker process
    """A worker task that dies the way an OOM-killed worker does."""
    os._exit(1)


def pairs(hits):
    return [(h.instance_id, h.score) for h in hits]


def build_sharded(mode, num_shards=3):
    sharded = ShardedInvertedIndex(
        num_shards, name="lifecycle-test", executor=mode
    )
    for doc_id, text in DOCS:
        sharded.add(doc_id, text)
    return sharded


@pytest.fixture(autouse=True)
def _reset_pool_lifecycle():
    """Every test leaves the shared pool shut down and the lifecycle
    configuration back at the lazy CLI defaults."""
    yield
    shutdown_process_pool()
    configure_process_pool(warm=False)


class TestConfigureLifecycle:
    def test_configure_pins_worker_count(self):
        pool = configure_process_pool(max_workers=1)
        assert pool is shared_process_pool()
        assert pool._max_workers == 1

    def test_configure_pins_start_method(self):
        pool = configure_process_pool(max_workers=1, start_method="spawn")
        assert pool._mp_context.get_start_method() == "spawn"

    def test_configure_replaces_existing_pool(self):
        first = configure_process_pool(max_workers=1)
        second = configure_process_pool(max_workers=1)
        assert second is not first
        assert shared_process_pool() is second

    def test_configure_rejects_bad_values(self):
        with pytest.raises(ValueError):
            configure_process_pool(max_workers=0)
        with pytest.raises(ValueError):
            configure_process_pool(start_method="sideways")

    def test_default_stays_lazy_cpu_count(self):
        # the CLI path: nothing configured -> first use forks the old
        # cpu-count default
        shutdown_process_pool()
        configure_process_pool(warm=False)
        assert executor._POOL.get("pool") is None
        pool = shared_process_pool()
        assert pool._max_workers == max(os.cpu_count() or 1, 1)

    def test_shutdown_is_idempotent_and_respawns_on_use(self):
        first = configure_process_pool(max_workers=1)
        shutdown_process_pool()
        shutdown_process_pool()
        assert executor._POOL.get("pool") is None
        # next use respawns with the pinned configuration
        respawned = shared_process_pool()
        assert respawned is not first
        assert respawned._max_workers == 1

    def test_warm_false_defers_creation(self):
        assert configure_process_pool(max_workers=1, warm=False) is None
        assert executor._POOL.get("pool") is None


class TestExitHandlers:
    """A process that lives for weeks re-spools after every write and
    respawns its pool after every broken one: neither may leave one
    more ``atexit`` handler behind each time."""

    @pytest.fixture
    def registered(self, monkeypatch):
        handlers = []
        monkeypatch.setattr(
            executor.atexit, "register",
            lambda func, *args, **kwargs: handlers.append(func) or func,
        )
        return handlers

    def test_mutate_search_cycles_register_at_most_one(self, registered):
        configure_process_pool(max_workers=1)
        sharded = build_sharded("process", num_shards=2)
        spools = set()
        for cycle in range(5):
            sharded.update("doc-000", f"quick brown fox number {cycle}")
            assert sharded.search("quick brown fox", 3)
            spools.update(sharded._spool.shard_dirs)
        assert len(spools) == 10  # five spools of two shards: non-vacuous
        assert len(registered) <= 1
        sharded._spool.invalidate()
        assert not any(os.path.isdir(d) for d in spools)

    def test_pool_respawns_register_at_most_one(self, registered):
        pools = set()
        for _ in range(4):
            pools.add(configure_process_pool(max_workers=1))
            shutdown_process_pool()
            pools.add(shared_process_pool())
        assert len(pools) == 8
        assert len(registered) <= 1


class TestBrokenPoolRecovery:
    def test_worker_killed_mid_flight_falls_back_and_respawns(self):
        configure_process_pool(max_workers=1)
        sharded = build_sharded("process")
        oracle = build_sharded("serial")
        expected = [pairs(h) for h in oracle.search_batch(QUERIES, 8)]

        # healthy path first: the pool answers and matches serial
        assert [pairs(h) for h in sharded.search_batch(QUERIES, 8)] == expected

        broken = shared_process_pool()
        before = get_registry().counter("index.executor.pool_broken").value

        # kill the (only) worker while the next query batch is already
        # queued behind the suicide task — the scatter's futures are
        # in flight when the worker dies
        suicide = broken.submit(_kill_self)
        got = [pairs(h) for h in sharded.search_batch(QUERIES, 8)]
        with pytest.raises(Exception):
            suicide.result()

        # the failing query was served anyway, bit-identically, by the
        # serial fallback; the event was counted; the pool was evicted
        assert got == expected
        after = get_registry().counter("index.executor.pool_broken").value
        assert after == before + 1
        assert executor._POOL.get("pool") is None

        # the next search respawns a fresh pool and the process path
        # works again
        assert [pairs(h) for h in sharded.search_batch(QUERIES, 8)] == expected
        respawned = executor._POOL.get("pool")
        assert respawned is not None and respawned is not broken

    def test_already_broken_pool_rejected_at_submit_still_recovers(self):
        configure_process_pool(max_workers=1)
        sharded = build_sharded("process")
        oracle = build_sharded("serial")
        expected = [pairs(h) for h in oracle.search_batch(QUERIES, 8)]
        assert [pairs(h) for h in sharded.search_batch(QUERIES, 8)] == expected

        broken = shared_process_pool()
        with pytest.raises(Exception):
            broken.submit(_kill_self).result()

        # submit() itself now raises BrokenProcessPool; recovery is the
        # same: serial answer, eviction, respawn on next use
        before = get_registry().counter("index.executor.pool_broken").value
        assert [pairs(h) for h in sharded.search_batch(QUERIES, 8)] == expected
        assert (
            get_registry().counter("index.executor.pool_broken").value
            == before + 1
        )
        assert [pairs(h) for h in sharded.search_batch(QUERIES, 8)] == expected
