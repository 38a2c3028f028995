"""``CrossModalIndex`` as 3cd4b50 fixed it: concurrent builders
serialize on a lock."""

import threading

from repro.index.vector import FlatVectorIndex


class CrossModalIndex:
    def __init__(self, lake, dim: int = 256) -> None:
        self.lake = lake
        self.dim = dim
        self._index = None
        self._build_lock = threading.Lock()

    def build(self) -> "CrossModalIndex":
        """Embed every instance (idempotent, and safe to race)."""
        with self._build_lock:
            if self._index is not None:
                return self
            index = FlatVectorIndex(dim=self.dim, name="crossmodal")
            for instance_id, payload in self.lake.payloads():
                index.add(instance_id, payload)
            self._index = index
        return self

    def search(self, query: str, k: int = 10):
        self.build()
        return self._index.search(query, k)
