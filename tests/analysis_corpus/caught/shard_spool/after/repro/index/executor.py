"""``ShardSpool.ensure`` as 47a8d39 fixed it: the spool is written
under a lock, and the wait behind it is deliberate (the pragma)."""

import os
import tempfile
import threading


class ShardSpool:
    def __init__(self) -> None:
        self._dir = None
        self._shard_dirs = []
        self._lock = threading.Lock()

    def ensure(self, shards, save):
        with self._lock:
            if self._dir is None:
                spool_dir = tempfile.mkdtemp(prefix="repro-shards-")
                shard_dirs = []
                for shard_no, shard in enumerate(shards):
                    target = os.path.join(
                        spool_dir, f"shard-{shard_no:04d}"
                    )
                    # a second searcher must block until the spool is
                    # complete, not attach half-written shards
                    save(shard, target)  # repro-lint: disable=IPC002
                    shard_dirs.append(target)
                self._dir = spool_dir
                self._shard_dirs = shard_dirs
            return list(self._shard_dirs)


class ShardedIndex:
    def __init__(self, shards, save) -> None:
        self._spool = ShardSpool()
        self._shards = shards
        self._save = save

    def search(self, query: str, k: int = 10):
        return self._spool.ensure(self._shards, self._save)[:k]
