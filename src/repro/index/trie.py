"""Prefix trie over indexed strings.

The paper mentions "special data structures such as Tries or suffix
trees" as content-based indexes; this trie supports prefix lookup of
serialized instances and powers autocomplete-style retrieval of entity
names in the examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.index.base import SearchHit, SearchIndex
from repro.text import normalize


class _TrieNode:
    __slots__ = ("children", "instance_ids")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        self.instance_ids: Set[str] = set()


class Trie(SearchIndex):
    """Character trie mapping normalized strings to instance ids."""

    def __init__(self, name: str = "trie") -> None:
        self.name = name
        self._root = _TrieNode()
        self._size = 0
        self._ids: Set[str] = set()

    def add(self, instance_id: str, payload: str) -> None:
        if instance_id in self._ids:
            raise ValueError(f"duplicate instance id: {instance_id}")
        self._ids.add(instance_id)
        node = self._root
        for ch in normalize(payload):
            node = node.children.setdefault(ch, _TrieNode())
        node.instance_ids.add(instance_id)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def _walk(self, prefix: str) -> Optional[_TrieNode]:
        node = self._root
        for ch in normalize(prefix):
            node = node.children.get(ch)
            if node is None:
                return None
        return node

    def contains_exact(self, payload: str) -> bool:
        """Whether the exact normalized string was indexed."""
        node = self._walk(payload)
        return bool(node and node.instance_ids)

    def ids_with_prefix(self, prefix: str, limit: Optional[int] = None) -> List[str]:
        """Instance ids of all indexed strings starting with ``prefix``."""
        start = self._walk(prefix)
        if start is None:
            return []
        out: List[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            for instance_id in sorted(node.instance_ids):
                out.append(instance_id)
                if limit is not None and len(out) >= limit:
                    return out
            for ch in sorted(node.children, reverse=True):
                stack.append(node.children[ch])
        return out

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        """Prefix search; score is the fraction of the indexed string matched.

        Exact matches score 1.0; a prefix hit scores |query| / |match| which
        we approximate as 1.0 for any prefix match ordered by id for
        determinism (tries are not ranked retrieval structures).
        """
        ids = self.ids_with_prefix(query, limit=k)
        return [
            SearchHit(score=1.0, instance_id=instance_id, index_name=self.name)
            for instance_id in ids
        ]
