"""Knowledge-graph modality (Section 5 prototype).

The paper lists knowledge graphs among the modalities a multi-modal lake
should eventually support and sketches (text, KG entity) verification as
an open problem.  This module provides a minimal triple store whose
entities serialize into the same indexing path as tuples and text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True, slots=True)
class KGTriple:
    """A (subject, predicate, object) fact."""

    subject: str
    predicate: str
    obj: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.subject}, {self.predicate}, {self.obj})"


@dataclass
class KGEntity:
    """An entity with its outgoing triples, serializable for indexing."""

    name: str
    triples: List[KGTriple] = field(default_factory=list)

    @property
    def instance_id(self) -> str:
        return f"kg:{self.name.lower().replace(' ', '_')}"

    def serialize(self) -> str:
        """Render the entity as a pseudo-document for the content index."""
        lines = [self.name]
        lines.extend(f"{t.predicate}: {t.obj}" for t in self.triples)
        return "\n".join(lines)


class KnowledgeGraph:
    """A tiny in-memory triple store with entity-centric access.

    Each triple is held once, in its subject's list; lookups scan that
    list, which holds a handful of triples per entity.
    """

    def __init__(self) -> None:
        self._by_subject: Dict[str, List[KGTriple]] = {}
        self._slug_to_subject: Dict[str, str] = {}
        self._num_triples = 0

    def add(self, subject: str, predicate: str, obj: str) -> KGTriple:
        """Add one triple (idempotent, case-insensitive); returns the
        stored triple, which for a duplicate is the one added first."""
        key = subject.lower()
        triples = self._by_subject.get(key)
        if triples is None:
            triples = self._by_subject[key] = []
            self._slug_to_subject.setdefault(key.replace(" ", "_"), subject)
        else:
            stored = _find(triples, predicate, obj)
            if stored is not None:
                return stored
        triple = KGTriple(subject, predicate, obj)
        triples.append(triple)
        self._num_triples += 1
        return triple

    def entity_by_id(self, instance_id: str) -> Optional[KGEntity]:
        """Resolve a ``kg:<slug>`` instance id back to an entity."""
        if not instance_id.startswith("kg:"):
            return None
        subject = self._slug_to_subject.get(instance_id[3:])
        if subject is None:
            return None
        return self.entity(subject)

    def entity(self, name: str) -> Optional[KGEntity]:
        """Entity view of ``name``; None when no triples mention it."""
        triples = self._by_subject.get(name.lower())
        if not triples:
            return None
        return KGEntity(name=name, triples=list(triples))

    def objects(self, subject: str, predicate: str) -> List[str]:
        """All objects of (subject, predicate, ?)."""
        return [
            t.obj
            for t in self._by_subject.get(subject.lower(), [])
            if t.predicate.lower() == predicate.lower()
        ]

    def has(self, subject: str, predicate: str, obj: str) -> bool:
        """Membership test, case-insensitive; scans the subject's triples."""
        triples = self._by_subject.get(subject.lower(), [])
        return _find(triples, predicate, obj) is not None

    def entities(self) -> Iterator[KGEntity]:
        """All entities that appear as subjects."""
        for subject, triples in self._by_subject.items():
            yield KGEntity(name=triples[0].subject, triples=list(triples))

    @property
    def num_entities(self) -> int:
        return len(self._by_subject)

    @property
    def num_triples(self) -> int:
        return self._num_triples


def _find(triples: List[KGTriple], predicate: str, obj: str) -> Optional[KGTriple]:
    """The triple of ``triples`` matching (predicate, obj) in any case."""
    predicate, obj = predicate.lower(), obj.lower()
    for triple in triples:
        if triple.predicate.lower() == predicate and triple.obj.lower() == obj:
            return triple
    return None
