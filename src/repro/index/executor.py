"""How a sharded index fans one task out to its shards.

:func:`scatter` returns ``[task(shard, *args) for shard in shards]``;
``VerifAIConfig.shard_search_executor`` selects how the calls run:

* ``serial`` — one shard after another on the calling thread.  The
  default: zero coordination cost;
* ``thread`` — a ``ThreadPoolExecutor`` over shards.  Cheap to enter,
  but the scoring kernels hold the GIL for most of their runtime;
* ``process`` — the shared ``ProcessPoolExecutor``, whose workers
  **memmap-attach** each shard's snapshot from a spool directory
  (:class:`ShardSpool`) and run the task against the attachment.
  Nothing about the corpus is pickled — workers read the flat arrays
  straight from the page cache; the task, its arguments and its result
  are all that cross the pipe, so a task returns positions and scores,
  never hit objects.

The task is the same function on the same arrays in every mode, so the
results are bit-identical; ``tests/test_index_executor.py`` asserts it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis import sanitizer as _sanitizer

#: the executor modes ``VerifAIConfig.shard_search_executor`` accepts
EXECUTOR_MODES = ("serial", "thread", "process")


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
_ATTACHED: Dict[str, Any] = {}


def _run_attached(shard_dir: str, task: Callable, *args: Any) -> Any:
    """The one worker entry: ``task`` against the memmap attachment of
    the snapshot in ``shard_dir`` (either snapshot kind)."""
    index = _ATTACHED.get(shard_dir)
    if index is None:
        from repro.index.persistence import attach_snapshot

        index = _ATTACHED[shard_dir] = attach_snapshot(shard_dir)
    return task(index, *args)


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


# once per process, here and not where a pool is spawned: a process
# that lives for weeks respawns its pool after every broken one
atexit.register(shutdown_process_pool, wait=False)


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
    return pool


# ---------------------------------------------------------------------------
# spool management (parent side)
# ---------------------------------------------------------------------------
class ShardSpool:
    """The on-disk sealed snapshots process workers attach.

    Owned by a sharded index; (re)written lazily on the first
    process-mode search after a mutation, and removed when the next
    mutation invalidates it, when its owner is collected, or at
    interpreter exit.  The spool is the hand-off point between the
    writable parent index and its read-only worker attachments.
    """

    def __init__(self, prefix: str = "repro-shards-") -> None:
        self._prefix = prefix
        self._shard_dirs: List[str] = []
        #: removes the spooled directory (``None`` = nothing spooled); a
        #: finalizer, not an ``atexit`` handler per re-spool: it is
        #: dropped once it has run
        self._remove_dir: Optional[weakref.finalize] = None
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
            if self._remove_dir is None:
                spool_dir = tempfile.mkdtemp(prefix=self._prefix)
                shard_dirs = []
                for shard_no, shard in enumerate(shards):
                    target = os.path.join(spool_dir, f"shard-{shard_no:04d}")
                    # persisting under the lock is deliberate: a second
                    # searcher must block until the spool is complete,
                    # not attach half-written shards
                    save(shard, target)  # repro-lint: disable=IPC002
                    shard_dirs.append(target)
                self._shard_dirs = shard_dirs
                self._remove_dir = weakref.finalize(
                    self, shutil.rmtree, spool_dir, ignore_errors=True
                )
                _sanitizer.note_write(self, "_shard_dirs", lock=self._lock)
            return list(self._shard_dirs)

    def invalidate(self) -> None:
        """Drop the spool (the next process search re-persists)."""
        with self._lock:
            if self._remove_dir is not None:
                self._remove_dir()
                self._remove_dir = None
                self._shard_dirs = []
                _sanitizer.note_write(self, "_shard_dirs", lock=self._lock)


# ---------------------------------------------------------------------------
# the fan-out
# ---------------------------------------------------------------------------
def scatter(
    shards: Sequence,
    mode: str,
    spool: ShardSpool,
    save: Callable,
    task: Callable,
    *args: Any,
) -> List[Any]:
    """``[task(shard, *args) for shard in shards]``, run the ``mode`` way.

    In process mode the task runs against each shard's memmap-attached
    snapshot (``spool`` persists them with ``save`` once per index
    generation), so ``task`` must be a module-level function and its
    arguments and result picklable; the corpus never crosses the pipe.
    """
    if mode == "thread":
        with ThreadPoolExecutor(max_workers=len(shards)) as threads:
            return list(threads.map(lambda shard: task(shard, *args), shards))
    if mode == "process":
        shard_dirs = spool.ensure(shards, save)
        pool = shared_process_pool()
        try:
            futures = [
                pool.submit(_run_attached, shard_dir, task, *args)
                for shard_dir in shard_dirs
            ]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            # a worker died mid-flight (OOM-killed, crashed): retire the
            # poisoned pool and answer *this* call serially — identical
            # results, just slower — so one dead worker never turns into
            # an outage.  The next call respawns a fresh pool.
            _evict_broken_pool(pool)
    return [task(shard, *args) for shard in shards]
