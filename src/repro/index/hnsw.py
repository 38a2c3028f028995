"""HNSW approximate vector index (Malkov & Yashunin, as used by Faiss/pgvector).

A hierarchical navigable-small-world graph: each vector is inserted at a
geometrically distributed maximum layer; search greedily descends from
the top layer, then runs a best-first beam (ef) at layer 0.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.index.base import SearchHit
from repro.index.vector import VectorIndex, top_hits


class HNSWIndex(VectorIndex):
    """Hierarchical navigable small-world graph index."""

    def __init__(
        self,
        dim: int,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: int = 32,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        seed: int = 17,
        name: str = "hnsw",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        self.m = m
        self.ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._rng = np.random.default_rng(seed)
        self._rows: List[np.ndarray] = []
        # adjacency per layer: layer -> node -> neighbor list
        self._graph: List[Dict[int, List[int]]] = []
        self._node_level: List[int] = []
        self._entry_point: Optional[int] = None
        self._level_mult = 1.0 / math.log(m)

    # -- distance ---------------------------------------------------------
    def _distance(self, a: np.ndarray, b: np.ndarray) -> float:
        if self.metric == "cosine":
            denom = (np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
            return 1.0 - float(a @ b) / denom
        return float(np.linalg.norm(a - b))

    def _dist_to(self, node: int, vector: np.ndarray) -> float:
        return self._distance(self._rows[node], vector)

    # -- construction -------------------------------------------------------
    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        node = len(self._rows)
        self._rows.append(vector)
        level = int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)
        self._node_level.append(level)
        while len(self._graph) <= level:
            self._graph.append({})
        for layer in range(level + 1):
            self._graph[layer][node] = []

        if self._entry_point is None:
            self._entry_point = node
            return

        entry = self._entry_point
        max_level = self._node_level[entry]
        # greedy descent through layers above the new node's level
        for layer in range(max_level, level, -1):
            entry = self._greedy_search(vector, entry, layer)
        # insert with beam search from the node's level down to 0
        for layer in range(min(level, max_level), -1, -1):
            candidates = self._search_layer(vector, entry, layer, self.ef_construction)
            neighbors = [n for _, n in sorted(candidates)[: self.m]]
            self._graph[layer][node] = list(neighbors)
            for neighbor in neighbors:
                links = self._graph[layer][neighbor]
                links.append(node)
                if len(links) > self.m * 2:
                    # prune to the closest m*2 links
                    links.sort(key=lambda other: self._distance(
                        self._rows[neighbor], self._rows[other]
                    ))
                    del links[self.m * 2 :]
            if candidates:
                entry = min(candidates)[1]
        if level > self._node_level[self._entry_point]:
            self._entry_point = node

    def _greedy_search(self, vector: np.ndarray, entry: int, layer: int) -> int:
        current = entry
        current_dist = self._dist_to(current, vector)
        improved = True
        while improved:
            improved = False
            for neighbor in self._graph[layer].get(current, ()):
                dist = self._dist_to(neighbor, vector)
                if dist < current_dist:
                    current, current_dist = neighbor, dist
                    improved = True
        return current

    def _search_layer(
        self, vector: np.ndarray, entry: int, layer: int, ef: int
    ) -> List:
        """Best-first beam search; returns [(dist, node)] of size <= ef."""
        entry_dist = self._dist_to(entry, vector)
        visited: Set[int] = {entry}
        candidates = [(entry_dist, entry)]  # min-heap by distance
        results = [(-entry_dist, entry)]  # max-heap (neg dist) of best ef
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if dist > worst and len(results) >= ef:
                break
            for neighbor in self._graph[layer].get(node, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                n_dist = self._dist_to(neighbor, vector)
                worst = -results[0][0]
                if len(results) < ef or n_dist < worst:
                    heapq.heappush(candidates, (n_dist, neighbor))
                    heapq.heappush(results, (-n_dist, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-neg, node) for neg, node in results]

    # -- search ---------------------------------------------------------
    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        vector = self._check_vector(vector)
        if self._entry_point is None or k <= 0:
            return []
        entry = self._entry_point
        for layer in range(self._node_level[entry], 0, -1):
            entry = self._greedy_search(vector, entry, layer)
        ef = max(self.ef_search, k)
        found = self._search_layer(vector, entry, 0, ef)
        distances = np.array([dist for dist, _ in found])
        scores = 1.0 - distances if self.metric == "cosine" else -distances
        return top_hits(
            scores, self._ids, k, self.name, rows=[node for _, node in found]
        )
