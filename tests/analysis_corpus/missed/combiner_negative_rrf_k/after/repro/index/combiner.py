"""``Combiner`` as 685b25d fixed it: a negative ``rrf_k`` is refused."""


class Combiner:
    def __init__(self, indexes, rrf_k: int = 60) -> None:
        if not indexes:
            raise ValueError("Combiner needs at least one index")
        if rrf_k < 0:
            raise ValueError(f"rrf_k must be >= 0, got {rrf_k}")
        self.indexes = list(indexes)
        self.rrf_k = rrf_k

    def rrf_weight(self, rank: int) -> float:
        return 1.0 / (self.rrf_k + rank + 1)
