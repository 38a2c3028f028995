"""The Verifier module: Agent dispatch plus evidence pooling.

Multiple retrieved instances may verify or refute the same object
(Section 3.3's remark); the module reads the Reranker's shortlist in
rank order and pools per-evidence verdicts with
:func:`~repro.trust.model.weighted_vote`: the first decisive verdict
from a trusted lake source decides, so verification stops as soon as no
pair still to come could overrule it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance, Row
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH
from repro.trust.model import deciding_vote, vote_is_settled, weighted_vote
from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationOutcome
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict


def _feed(digest, *fields: Optional[str]):
    """``digest`` updated with ``fields``, each framed so that no two
    lists of fields feed it the same bytes: ``None`` is ``-``; a string
    is the length of its UTF-8 in decimal, ``:``, then the UTF-8
    (``surrogatepass``: any ``str`` encodes).  A separator inside a
    claim cannot move a boundary, and ``None`` is not ``"None"``."""
    for field in fields:
        if field is None:
            digest.update(b"-")
            continue
        data = field.encode("utf-8", "surrogatepass")
        digest.update(b"%d:" % len(data))
        digest.update(data)
    return digest


def _object_key(obj: DataObject):
    """The object half of a cache key, a digest each pair continues: its
    *content* (type, query text, attribute, context), not its identity."""
    return _feed(
        hashlib.blake2b(digest_size=16),
        type(obj).__name__,
        obj.query_text(),
        getattr(obj, "attribute", None),
        getattr(obj, "context", None),
    )


def _pair_key(object_key, evidence: DataInstance, evidence_text: str) -> bytes:
    """One pair's cache key: 16 bytes of blake2b over the object's four
    fields, the evidence's id and what it says now (``evidence_text``,
    its rendering), so a verdict on what it said before a write to the
    lake is never served again.  A digest, not the fields: the cache
    holds tens of thousands of keys."""
    digest = _feed(object_key.copy(), evidence.instance_id, evidence_text)
    return digest.digest()


#: The trust of a source the trust map does not score: fully trusted, so
#: an empty map pools by rank order alone.
UNSCORED_TRUST = 1.0


class VerifierModule:
    """Verify an object against a pool of evidence and decide.

    Verification is deterministic per (object content, evidence
    content), so repeated pairs — common when benchmarks sweep
    configurations — are served from an in-process LRU cache
    (``cache=False`` disables it; ``cache_size`` bounds it) that a write
    to the lake cannot make stale.  The cache is thread-safe: the batch
    engine verifies objects from worker threads.
    """

    def __init__(
        self,
        agent: VerifierAgent,
        lake: DataLake,
        source_trust: Optional[Mapping[str, float]] = None,
        cache: bool = True,
        cache_size: int = 65536,
    ) -> None:
        if cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.agent = agent
        self.lake = lake
        self.source_trust: Dict[str, float] = dict(source_trust or {})
        self._cache: Optional["OrderedDict[bytes, VerificationOutcome]"] = (
            OrderedDict() if cache else None
        )
        self._cache_lock = threading.Lock()
        self.cache_size = cache_size
        self.cache_hits = 0
        self._metrics = get_registry()

    def __len__(self) -> int:
        """Number of memoized (object, evidence) outcomes."""
        with self._cache_lock:
            return len(self._cache) if self._cache is not None else 0

    def verify_one(
        self, obj: DataObject, evidence: DataInstance
    ) -> VerificationOutcome:
        """Verify a single pair through the Agent, with caching."""
        outcome, hit = self._verify_pair(self._key_of(obj), obj, evidence)
        self._count(1, int(hit))
        return outcome

    def _key_of(self, obj: DataObject):
        return _object_key(obj) if self._cache is not None else None

    def _count(self, pairs: int, hits: int) -> None:
        """Report ``pairs`` verifications, ``hits`` of them cached."""
        if pairs:
            self._metrics.counter("verifier.verifications").inc(pairs)
        if self._cache is None:
            return
        if hits:
            self._metrics.counter("verifier.cache.hits").inc(hits)
        if pairs > hits:
            self._metrics.counter("verifier.cache.misses").inc(pairs - hits)
            self._metrics.gauge("verifier.cache.entries").set(len(self))

    def _verify_pair(
        self,
        object_key,
        obj: DataObject,
        evidence: DataInstance,
    ) -> Tuple[VerificationOutcome, bool]:
        """(outcome, served-from-cache) for one pair; ``object_key`` is
        ``_key_of(obj)``, computed once for a pool.  The one cache over
        evidence text the campaign path keeps, for a hosted model; what
        it costs the simulated one is in docs/performance.md ("Evidence
        text: no cache")."""
        if object_key is None:
            return self.agent.verify(obj, evidence), False
        # rendered once per pair: the text the key digests is the text
        # a text-reading verifier is handed
        evidence_text = serialize_instance(evidence)
        key = _pair_key(object_key, evidence, evidence_text)
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                _sanitizer.note_write(self, "_cache")
                return cached, True
        # verify outside the lock; a concurrent duplicate recomputes the
        # same deterministic outcome, which is cheaper than serializing
        # every verification behind one mutex
        outcome = self.agent.verify(obj, evidence, evidence_text)
        with self._cache_lock:
            self._cache[key] = outcome  # a new key lands at the recent end
            _sanitizer.note_write(self, "_cache")
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return outcome, False

    def source_of(self, evidence: DataInstance) -> str:
        """Lake source name of an evidence instance."""
        if isinstance(evidence, Row):
            return self.lake.table(evidence.table_id).source.name
        source = getattr(evidence, "source", None)
        if source is None:  # KG entities have no per-instance source
            return "knowledge-graph"
        return source.name

    def verify_pool(
        self,
        obj: DataObject,
        evidence_list: Sequence[DataInstance],
        branch=None,
        parent=None,
    ) -> Tuple[List[VerificationOutcome], Verdict, float]:
        """Verify the shortlist in evidence order, only as far as the
        pooling rule needs, and pool into a final verdict.

        Returns (outcomes of the verified prefix, final verdict, vote
        margin).  Every pair's source is known before any pair is
        verified, so the pool stops as soon as
        :func:`~repro.trust.model.vote_is_settled` says no pair still to
        come can change the vote: the verdict and margin are then what
        ``weighted_vote`` over every pair's vote would be.
        When a tracing ``branch`` (and ``parent`` span) is supplied, one
        ``verdict`` span is emitted per verified pair.  Span attributes
        stay deterministic per input — whether a pair was served from
        the outcome cache is a runtime race under thread parallelism, so
        that lives in the ``verifier.cache.*`` metrics, not on the span.
        """
        if branch is None:
            branch = NULL_BRANCH
        sources = [self.source_of(evidence) for evidence in evidence_list]
        outcomes: List[VerificationOutcome] = []
        votes: List[Tuple[str, Verdict]] = []
        object_key = self._key_of(obj)
        started = hits = 0
        try:
            for evidence, source in zip(evidence_list, sources):
                started += 1
                with branch.span(
                    "verdict",
                    parent=parent,
                    attributes={"evidence_id": evidence.instance_id},
                ) as span:
                    outcome, hit = self._verify_pair(object_key, obj, evidence)
                    span.set("verifier", outcome.verifier)
                    span.set("verdict", outcome.verdict.name)
                hits += hit
                outcomes.append(outcome)
                votes.append((source, outcome.verdict))
                if vote_is_settled(
                    votes, sources[started:], self.source_trust,
                    UNSCORED_TRUST,
                ):
                    break
        finally:
            # a pair that raised was counted (as a miss) before it ran
            self._count(started, hits)
        final, margin = weighted_vote(
            votes, self.source_trust, UNSCORED_TRUST
        )
        return outcomes, final, margin

    def deciding_outcome(
        self, outcomes: Sequence[VerificationOutcome]
    ) -> Optional[VerificationOutcome]:
        """The outcome whose vote decided a pool over ``outcomes`` (see
        :func:`~repro.trust.model.deciding_vote`), or None when every
        outcome abstained."""
        votes = [
            (self.source_of(self.lake.instance(o.evidence_id)), o.verdict)
            for o in outcomes
        ]
        decider = deciding_vote(votes, self.source_trust, UNSCORED_TRUST)
        return None if decider is None else outcomes[decider[0]]
