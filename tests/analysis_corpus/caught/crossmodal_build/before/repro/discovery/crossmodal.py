"""``CrossModalIndex`` as ``src/repro/discovery/crossmodal.py`` held it
at 865d6ff: ``build`` checks ``_index`` and publishes it with no lock,
and a pool worker's ``search`` reaches it (IPE001)."""

from repro.index.vector import FlatVectorIndex


class CrossModalIndex:
    def __init__(self, lake, dim: int = 256) -> None:
        self.lake = lake
        self.dim = dim
        self._index = None

    def build(self) -> "CrossModalIndex":
        """Embed every instance (idempotent)."""
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
