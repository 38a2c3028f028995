"""``ShardSpool.ensure`` as ``src/repro/index/executor.py`` held it at
b2db647: two searchers could both find no spool and one attach the
other's half-written shard directory (IPE001)."""

import os
import tempfile


class ShardSpool:
    def __init__(self) -> None:
        self._dir = None
        self._shard_dirs = []

    def ensure(self, shards, save):
        if self._dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-shards-")
            shard_dirs = []
            for shard_no, shard in enumerate(shards):
                target = os.path.join(spool_dir, f"shard-{shard_no:04d}")
                save(shard, target)
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
