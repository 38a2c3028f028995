"""``Combiner`` as ``src/repro/index/combiner.py`` held it before
685b25d: ``rrf_k=-1`` divides by zero at the first rank, and below
that the weights turn negative and invert the fusion.  No rule
fires."""


class Combiner:
    def __init__(self, indexes, rrf_k: int = 60) -> None:
        if not indexes:
            raise ValueError("Combiner needs at least one index")
        self.indexes = list(indexes)
        self.rrf_k = rrf_k

    def rrf_weight(self, rank: int) -> float:
        return 1.0 / (self.rrf_k + rank + 1)
