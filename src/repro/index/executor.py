"""Scatter-gather execution strategies for sharded search.

``ShardedInvertedIndex`` / ``ShardedVectorIndex`` fan a query batch out
to every shard and merge the per-shard rankings.  *How* the fan-out
runs is this module's concern, selected by
``VerifAIConfig.shard_search_executor``:

* ``serial`` — one shard after another on the calling thread.  The
  default: zero coordination cost, and with the query-matrix kernel a
  serial scatter already amortizes analysis + numpy dispatch across
  the whole batch;
* ``thread`` — a ``ThreadPoolExecutor`` over shards.  Cheap to enter,
  but the scoring kernels hold the GIL for most of their runtime, so
  threads mostly help when shards are large enough for numpy to
  release the GIL meaningfully;
* ``process`` — a shared ``ProcessPoolExecutor`` whose workers
  **memmap-attach** the sealed shards from a spool directory
  (:func:`repro.index.persistence.save_sealed_index`) and ship back
  compact ``(doc index, score)`` arrays.  Nothing about the corpus is
  pickled — workers read the flat arrays straight from the page cache
  — which is what lets multi-core machines actually beat the serial
  path instead of re-serializing the index per task.

All three strategies call the same sealed scoring kernel on the same
arrays, so their rankings are bit-identical; the differential suite
(``make bench-quick``) asserts it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import shutil
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import SearchHit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.inverted import InvertedIndex
    from repro.index.vector import FlatVectorIndex

#: the executor modes ``VerifAIConfig.shard_search_executor`` accepts
EXECUTOR_MODES = ("serial", "thread", "process")

#: per-shard rankings: [shard][query] -> hit list
ShardRankings = List[List[List[SearchHit]]]


def validate_executor_mode(mode: str) -> str:
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"shard_search_executor must be one of {EXECUTOR_MODES}, "
            f"got {mode!r}"
        )
    return mode


# ---------------------------------------------------------------------------
# worker-process side
# ---------------------------------------------------------------------------
#: per-process cache of memmap-attached shards, keyed by snapshot dir —
#: a worker attaches each shard once and reuses it across tasks
_ATTACHED: Dict[str, "InvertedIndex"] = {}


def _attached_shard(shard_dir: str) -> "InvertedIndex":
    index = _ATTACHED.get(shard_dir)
    if index is None:
        from repro.index.persistence import attach_sealed_index

        index = attach_sealed_index(shard_dir)
        _ATTACHED[shard_dir] = index
    return index


def _search_shard_worker(
    shard_dir: str, queries: List[str], k: int
) -> List[Tuple["np.ndarray", "np.ndarray"]]:
    """Run the query-matrix kernel against one memmap-attached shard.

    Returns one compact ``(doc index array, score array)`` pair per
    query; the parent maps indexes back to ids through its own copy of
    the shard's ``doc_ids`` (identical order — it wrote the snapshot).
    """
    index = _attached_shard(shard_dir)
    return index.search_matrix_arrays(queries, k)


#: per-process cache of memmap-attached vector shards
_ATTACHED_VECTORS: Dict[str, "FlatVectorIndex"] = {}


def _attached_vector_shard(shard_dir: str) -> "FlatVectorIndex":
    index = _ATTACHED_VECTORS.get(shard_dir)
    if index is None:
        from repro.index.persistence import attach_vector_index

        index = attach_vector_index(shard_dir)
        _ATTACHED_VECTORS[shard_dir] = index
    return index


def _search_vector_shard_worker(
    shard_dir: str, vectors: List["np.ndarray"], k: int
) -> List[List[Tuple[float, str]]]:
    """Score pre-encoded query vectors against one memmap-attached
    vector shard (the encoder stays in the parent — workers only ever
    see dense float64 vectors)."""
    index = _attached_vector_shard(shard_dir)
    return [
        [(hit.score, hit.instance_id) for hit in index.search_vector(v, k)]
        for v in vectors
    ]


# ---------------------------------------------------------------------------
# the shared process pool
# ---------------------------------------------------------------------------
#: one-slot holder for the lazily created pool (registry convention:
#: written once from the first searching thread, then read-only)
_POOL: Dict[str, ProcessPoolExecutor] = {}

#: explicit lifecycle configuration (:func:`configure_process_pool`);
#: ``None`` values mean "the old lazy defaults" so one-shot CLI runs
#: behave exactly as before
_POOL_CONFIG: Dict[str, Optional[object]] = {
    "max_workers": None,
    "start_method": None,
}

#: guards the check-then-create in :func:`shared_process_pool` — two
#: threads racing the first search would each fork a full pool
_POOL_LOCK = threading.Lock()


def _shutdown_pool() -> None:
    pool = _POOL.pop("pool", None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _spawn_pool() -> ProcessPoolExecutor:
    """Create a pool from the current ``_POOL_CONFIG`` (caller holds
    ``_POOL_LOCK``)."""
    methods = multiprocessing.get_all_start_methods()
    method = _POOL_CONFIG["start_method"]
    if method is None:
        method = "fork" if "fork" in methods else None
    context = multiprocessing.get_context(method)
    workers = _POOL_CONFIG["max_workers"]
    if workers is None:
        workers = max(os.cpu_count() or 1, 1)
    return ProcessPoolExecutor(max_workers=int(workers), mp_context=context)


def configure_process_pool(
    max_workers: Optional[int] = None,
    start_method: Optional[str] = None,
    warm: bool = True,
) -> Optional[ProcessPoolExecutor]:
    """Explicit pool lifecycle for long-lived processes (the server).

    The lazy default — fork ``os.cpu_count()`` workers at the first
    process-mode search — is fine for a one-shot CLI run, but a
    long-lived threaded server must not fork after its worker threads
    exist (``fork`` in a multi-threaded parent is undefined behavior
    waiting to happen) and usually wants an explicit worker count.
    Calling this **at startup, before any request threads are
    spawned**, pins both: ``max_workers`` replaces the cpu-count
    default, ``start_method`` replaces the fork-if-available default
    (servers should pick ``"forkserver"`` or ``"spawn"`` so a
    post-crash respawn never forks the threaded parent), and
    ``warm=True`` (the default) creates the pool immediately so the
    fork happens while the process is still single-threaded.

    Any existing pool is shut down first, so reconfiguration takes
    effect on the next search.  Returns the warmed pool (``None`` when
    ``warm=False``).
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if (
        start_method is not None
        and start_method not in multiprocessing.get_all_start_methods()
    ):
        raise ValueError(
            f"start_method must be one of "
            f"{multiprocessing.get_all_start_methods()}, got {start_method!r}"
        )
    with _POOL_LOCK:
        _POOL_CONFIG["max_workers"] = max_workers
        _POOL_CONFIG["start_method"] = start_method
        _sanitizer.note_write(_POOL_CONFIG, "max_workers", lock=_POOL_LOCK)
        old = _POOL.pop("pool", None)
        _sanitizer.note_write(_POOL, "pool", lock=_POOL_LOCK)
    if old is not None:
        old.shutdown(wait=False, cancel_futures=True)
    if warm:
        return shared_process_pool()
    return None


def shutdown_process_pool(wait: bool = True) -> None:
    """Tear the shared pool down (server shutdown hook).

    Idempotent; the next process-mode search lazily respawns a pool
    from the configured (or default) settings.
    """
    with _POOL_LOCK:
        pool = _POOL.pop("pool", None)
        _sanitizer.note_write(_POOL, "pool", lock=_POOL_LOCK)
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


def _evict_broken_pool(pool: ProcessPoolExecutor) -> None:
    """Retire a pool whose worker died (OOM-killed, crashed).

    A ``BrokenProcessPool`` poisons every future submission to that
    executor, so leaving it installed would fail every subsequent
    query.  Evict it (unless a racing thread already replaced it),
    count the event, and let the next search respawn a fresh pool.
    """
    from repro.obs.events import get_event_log
    from repro.obs.metrics import get_registry

    with _POOL_LOCK:
        if _POOL.get("pool") is pool:
            _POOL.pop("pool")
            _sanitizer.note_write(_POOL, "pool", lock=_POOL_LOCK)
    pool.shutdown(wait=False, cancel_futures=True)
    get_registry().counter("index.executor.pool_broken").inc()
    get_event_log().emit("executor.pool_broken")


def shared_process_pool() -> ProcessPoolExecutor:
    """The process pool all sharded indexes share.

    One pool per process (workers are stateless apart from their
    attach cache, so shards of different logical indexes can share
    it).  Created lazily on first use with the settings last pinned by
    :func:`configure_process_pool`, or — the one-shot CLI default —
    cpu-count workers under the ``fork`` start method where the
    platform offers it (workers then skip re-importing the world).
    """
    pool = _POOL.get("pool")
    if pool is None:
        with _POOL_LOCK:
            pool = _POOL.get("pool")
            if pool is None:
                pool = _spawn_pool()
                _POOL["pool"] = pool
                _sanitizer.note_write(_POOL, "pool", lock=_POOL_LOCK)
                atexit.register(_shutdown_pool)
    return pool


# ---------------------------------------------------------------------------
# spool management (parent side)
# ---------------------------------------------------------------------------
class ShardSpool:
    """The on-disk sealed snapshots process workers attach.

    Owned by a sharded index; (re)written lazily on the first
    process-mode search after a mutation, and removed at interpreter
    exit.  The spool is the hand-off point between the writable parent
    index and its read-only worker attachments.
    """

    def __init__(self, prefix: str = "repro-shards-") -> None:
        self._prefix = prefix
        self._dir: Optional[str] = None
        self._shard_dirs: List[str] = []
        # two threads racing the first process-mode search must not
        # each persist a full spool (and leak the loser's tempdir)
        self._lock = threading.Lock()

    @property
    def shard_dirs(self) -> List[str]:
        return list(self._shard_dirs)

    def ensure(self, shards: Sequence, save) -> List[str]:
        """Persist every shard once via ``save(shard, target_dir)``;
        idempotent until :meth:`invalidate`."""
        with self._lock:
            if self._dir is None:
                spool_dir = tempfile.mkdtemp(prefix=self._prefix)
                shard_dirs = []
                for shard_no, shard in enumerate(shards):
                    target = os.path.join(spool_dir, f"shard-{shard_no:04d}")
                    # persisting under the lock is deliberate: a second
                    # searcher must block until the spool is complete,
                    # not attach half-written shards
                    save(shard, target)  # repro-lint: disable=IPC002
                    shard_dirs.append(target)
                self._dir = spool_dir
                self._shard_dirs = shard_dirs
                _sanitizer.note_write(self, "_dir", lock=self._lock)
                atexit.register(self.invalidate)
            return list(self._shard_dirs)

    def invalidate(self) -> None:
        """Drop the spool (the next process search re-persists)."""
        with self._lock:
            if self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
                self._dir = None
                self._shard_dirs = []
                _sanitizer.note_write(self, "_dir", lock=self._lock)


# ---------------------------------------------------------------------------
# the three strategies
# ---------------------------------------------------------------------------
def _hits_from_arrays(
    shard: "InvertedIndex",
    per_query: List[Tuple["np.ndarray", "np.ndarray"]],
) -> List[List[SearchHit]]:
    """Compact worker arrays back to hits via the parent's doc table."""
    doc_ids = shard._sealed.doc_ids
    name = shard.name
    return [
        [
            SearchHit(
                score=float(score),
                instance_id=doc_ids[int(i)],
                index_name=name,
            )
            for i, score in zip(idx, scores)
        ]
        for idx, scores in per_query
    ]


def scatter_serial(
    shards: Sequence["InvertedIndex"], queries: List[str], k: int
) -> ShardRankings:
    if len(queries) == 1:
        # let each shard take its single-query fast path
        return [shard.search_batch(queries, k) for shard in shards]
    # every shard shares the analyzer settings, so the campaign plan —
    # analysis + inversion of the query batch — is computed once and
    # scored against each shard instead of being rebuilt per shard
    plan = shards[0].plan_matrix(queries)
    return [shard.search_matrix_planned(plan, k) for shard in shards]


def scatter_threads(
    shards: Sequence["InvertedIndex"], queries: List[str], k: int
) -> ShardRankings:
    if len(queries) == 1:
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            return list(
                pool.map(lambda shard: shard.search_batch(queries, k), shards)
            )
    plan = shards[0].plan_matrix(queries)  # shared: see scatter_serial
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        return list(
            pool.map(
                lambda shard: shard.search_matrix_planned(plan, k), shards
            )
        )


def scatter_processes(
    shards: Sequence["InvertedIndex"],
    spool: ShardSpool,
    queries: List[str],
    k: int,
) -> ShardRankings:
    """Fan the query batch out to memmap-attached worker processes.

    Shards must be sealed (the spool persists their sealed form); the
    parent only ships query strings + k and receives ``(idx, score)``
    arrays back — the corpus itself never crosses the pipe.
    """
    from repro.index.persistence import save_sealed_index

    shard_dirs = spool.ensure(shards, save_sealed_index)
    pool = shared_process_pool()
    try:
        futures = [
            pool.submit(_search_shard_worker, shard_dir, queries, k)
            for shard_dir in shard_dirs
        ]
        results = [future.result() for future in futures]
    except BrokenProcessPool:
        # a worker died mid-flight (OOM-killed, crashed): retire the
        # poisoned pool and serve *this* query serially — identical
        # results, just slower — so one dead worker never turns into
        # an outage.  The next search respawns a fresh pool.
        _evict_broken_pool(pool)
        return scatter_serial(shards, queries, k)
    return [
        _hits_from_arrays(shard, result)
        for shard, result in zip(shards, results)
    ]


def scatter_serial_vectors(
    shards: Sequence["FlatVectorIndex"], vectors: List["np.ndarray"], k: int
) -> ShardRankings:
    return [
        [shard.search_vector(vector, k) for vector in vectors]
        for shard in shards
    ]


def scatter_threads_vectors(
    shards: Sequence["FlatVectorIndex"], vectors: List["np.ndarray"], k: int
) -> ShardRankings:
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        return list(
            pool.map(
                lambda shard: [
                    shard.search_vector(vector, k) for vector in vectors
                ],
                shards,
            )
        )


def scatter_processes_vectors(
    shards: Sequence["FlatVectorIndex"],
    spool: ShardSpool,
    vectors: List["np.ndarray"],
    k: int,
) -> ShardRankings:
    """Process fan-out for vector shards: workers memmap-attach the
    persisted matrices and score pre-encoded vectors; scoring runs the
    same gemv on the same float64 rows, so results are bit-identical
    to the in-process path."""
    from repro.index.persistence import save_vector_index

    shard_dirs = spool.ensure(shards, save_vector_index)
    pool = shared_process_pool()
    try:
        futures = [
            pool.submit(_search_vector_shard_worker, shard_dir, vectors, k)
            for shard_dir in shard_dirs
        ]
        results = [future.result() for future in futures]
    except BrokenProcessPool:
        # same recovery as scatter_processes: evict the dead pool,
        # answer this query serially, respawn on the next search
        _evict_broken_pool(pool)
        return scatter_serial_vectors(shards, vectors, k)
    return [
        [
            [
                SearchHit(
                    score=score, instance_id=instance_id, index_name=shard.name
                )
                for score, instance_id in per_query
            ]
            for per_query in result
        ]
        for shard, result in zip(shards, results)
    ]
