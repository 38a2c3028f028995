"""A homogeneous vector space over all lake modalities."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, modality_of
from repro.embed.vectorizers import TfidfVectorizer
from repro.index.vector import FlatVectorIndex


@dataclass(frozen=True)
class CrossModalHit:
    """A discovery result with its modality attached."""

    instance_id: str
    modality: Modality
    score: float


class CrossModalIndex:
    """Unified semantic discovery across tuples, tables, text, and KG.

    All instances are embedded with one corpus-fit TF-IDF encoder, so a
    tuple and the page describing it land near each other regardless of
    modality — the property a unified discovery process needs.
    """

    def __init__(
        self,
        lake: DataLake,
        dim: int = 256,
        include_kg: bool = True,
        include_tuples: bool = True,
    ) -> None:
        self.lake = lake
        self.dim = dim
        self.include_kg = include_kg
        self.include_tuples = include_tuples
        self._vectorizer = TfidfVectorizer(dim=dim)
        self._index: Optional[FlatVectorIndex] = None
        self._modality_of_id: Dict[str, Modality] = {}
        # build() is lazily triggered; server threads may race to it
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _corpus(self):
        for table in self.lake.tables():
            yield table
        if self.include_tuples:
            for row in self.lake.iter_tuples():
                yield row
        for doc in self.lake.documents():
            yield doc
        if self.include_kg:
            for entity in self.lake.kg.entities():
                yield entity

    def build(self) -> "CrossModalIndex":
        """Fit the shared encoder and embed every instance (idempotent,
        and safe to race: concurrent callers serialize on a lock)."""
        with self._build_lock:
            if self._index is not None:
                return self
            instances = list(self._corpus())
            payloads = [
                serialize_instance(instance) for instance in instances
            ]
            self._vectorizer.fit(payloads)
            index = FlatVectorIndex(
                dim=self.dim, encoder=self._vectorizer.transform,
                name="crossmodal",
            )
            for instance, payload in zip(instances, payloads):
                index.add(instance.instance_id, payload)
                self._modality_of_id[instance.instance_id] = modality_of(
                    instance
                )
            self._index = index
        return self

    @property
    def is_built(self) -> bool:
        return self._index is not None

    def __len__(self) -> int:
        return len(self._index) if self._index is not None else 0

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _filtered(
        self,
        raw_search,
        k: int,
        wanted: Optional[set],
        exclude: Optional[str] = None,
    ) -> List[CrossModalHit]:
        """Post-filter hits by modality, escalating the fetch depth when
        the wanted modality is rare in the neighbourhood."""
        assert self._index is not None
        if k <= 0:
            return []
        depth = k if wanted is None else k * 6
        while True:
            out: List[CrossModalHit] = []
            for hit in raw_search(depth):
                if exclude is not None and hit.instance_id == exclude:
                    continue
                modality = self._modality_of_id[hit.instance_id]
                if wanted is not None and modality not in wanted:
                    continue
                out.append(CrossModalHit(hit.instance_id, modality, hit.score))
                if len(out) >= k:
                    return out
            if depth >= len(self._index):
                return out
            depth = min(depth * 8, len(self._index))

    def search(
        self,
        query: str,
        k: int = 10,
        modalities: Optional[Sequence[Modality]] = None,
    ) -> List[CrossModalHit]:
        """Free-text discovery across (a subset of) modalities."""
        if self._index is None:
            self.build()
        assert self._index is not None
        wanted = set(modalities) if modalities is not None else None
        return self._filtered(
            lambda depth: self._index.search(query, depth), k, wanted
        )

    def related(
        self,
        instance_id: str,
        k: int = 10,
        modalities: Optional[Sequence[Modality]] = None,
    ) -> List[CrossModalHit]:
        """Cross-modal neighbours of an existing instance (excluding it).

        "Which text describes this tuple?" is ``related(tuple_id,
        modalities=[Modality.TEXT])``.
        """
        if self._index is None:
            self.build()
        assert self._index is not None
        vector = np.asarray(self._index.vector_of(instance_id))
        wanted = set(modalities) if modalities is not None else None
        return self._filtered(
            lambda depth: self._index.search_vector(vector, depth),
            k,
            wanted,
            exclude=instance_id,
        )
