"""Inverted index with Okapi BM25 ranking — the Elasticsearch stand-in.

This is the content-based index the paper's experiments actually use
("We use Elasticsearch to retrieve the top-3 tuples and top-3 text
files..."), so its ranking function matches ES defaults: BM25 with
k1 = 1.2, b = 0.75.

Postings live in one form, the **base** (:class:`_Postings`): flat
contiguous CSR arrays, never written once built.  Beside it the index
keeps per-document lengths and one token -> document-frequency table.
Every read scores one read form, a **view** (:class:`_View`): the base,
the writes since it (:class:`_Delta`) and the statistics when it was
published; the seal a compaction publishes is a view with no writes.
Any write un-publishes the view and the next read publishes a current
one, so callers never see a stale ranking.

Every read is a batch — ``search(q)`` is ``search_batch([q])[0]`` — and
a batch is plan -> rank -> ids: :meth:`InvertedIndex.plan_matrix`
analyzes the queries once, ``_score_matrix`` ranks the plan against one
view, and the ranking reads its ids off that view.  One kernel scores a
query a pass: its known tokens' **spans** — a token's cells and their
contributions at query count 1 — are concatenated in sorted token order
and one ``np.bincount`` folds them into the query's score row, so every
cell replays the tests' reference scorer's float64 sum bit for bit.  A
read derives the spans it lacks in one elementwise pass and caches them
on the view; a view inherits every span of the one before it that the
writes between them did not move (none when they moved the document
count or the average length).  No index holds a table of every
posting's contribution.

:meth:`InvertedIndex.seal` is the **compaction**, when called and when a
write leaves more documents written since the base than
``_COMPACT_SHARE`` of it.  One fold makes every base: it lays the
documents added since out as one run of postings sorted by row, and
merges the base's surviving postings in only when the base holds any.
The first seal, the compile, is that fold over an empty base, so the
run *is* the postings and every output array is allocated once (the
compile's traced peak is under 2.5x the postings it leaves).  A view
ranks as the compacted seal of the same documents, ids and score bits
(``tests/test_index_view.py``), and a compacted seal is byte-identical
to a fresh index's over the surviving payloads
(``tests/test_index_patch.py``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right, insort_right
from collections import Counter
from itertools import chain, compress
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, ordinals_of, select_ranked,
)
from repro.obs.metrics import get_registry
from repro.text import analyze


#: a token's cells as views, never copies: its base block, its delta block
_Cells = Tuple["np.ndarray", ...]

#: a write that leaves more writes since the base (each document added,
#: and each removed) than this share of the base's document count
#: compacts (docs/performance.md, "Reads score the last seal plus the
#: writes since", holds the sweep that chose it)
_COMPACT_SHARE = 1 / 16


def _bm25_idf(num_docs: int, df: int) -> float:
    """BM25+ style idf, floored at a small positive value."""
    if num_docs == 0:
        return 0.0
    raw = math.log((num_docs - df + 0.5) / (df + 0.5) + 1.0)
    return max(raw, 1e-6)


def _rank_row(sealed: "_View", scores: "np.ndarray", k: int) -> Ranking:
    """The top k of one query's score row under the ``(-score, id)``
    total order, finding the k-th score with one ``partition``.

    The one selection.  Matched docs are exactly those with score > 0
    (every BM25 contribution is strictly positive — idf is floored at
    1e-6, tf >= 1, qc >= 1 — so a matched sum cannot be 0.0), and the
    k-th largest score over all docs equals the k-th largest over
    matched docs whenever at least k docs matched, with ties kept on
    both sides of the cut.
    """
    at = min(k, scores.size) - 1
    # the k-th largest is the k-th smallest of the negation, and numpy
    # selects a position that near the front with one scan (selecting
    # ``num_docs - k`` of ``scores`` itself, which needs no negated
    # copy, is 5x slower on these tie-heavy rows)
    kth = -np.partition(-scores, at)[at]
    if kth > 0.0:
        candidates = np.flatnonzero(scores >= kth)
    else:  # fewer than k matches: keep every matched doc
        candidates = np.flatnonzero(scores > 0.0)
    return sealed.select(scores[candidates], candidates, k)


class _Postings(NamedTuple):
    """The postings of one compaction, the base of every view until the
    next: never written after the fold that made it.

    Storage is four flat contiguous arrays in CSR layout — ``tokens``
    (sorted), ``tok_start`` offsets, concatenated ``doc_idx`` /
    ``tf_flat`` postings — plus per-doc ``lengths``, and the document
    order's ``ordinal`` table (what a ranking breaks ties by) with
    ``by_ordinal``, the ids in sorted order.
    """

    doc_ids: List[str]
    lengths: "np.ndarray"      # per-doc token count, as float64
    tokens: List[str]          # sorted vocabulary
    tok_start: "np.ndarray"    # CSR offsets, len(tokens) + 1
    doc_idx: "np.ndarray"      # concatenated doc-index postings
    tf_flat: "np.ndarray"      # concatenated term frequencies
    #: ``ordinal[i]``: the rank of ``doc_ids[i]`` in sorted id order
    #: (:func:`~repro.index.base.ordinals_of`), and ``by_ordinal`` the ids
    #: in that order — derived data, carried into the views and the
    #: compaction (:class:`_Delta`) because sorting every id again would
    #: cost a write-heavy index more than its reads
    ordinal: "np.ndarray"
    by_ordinal: "np.ndarray"
    #: token -> position in the sorted vocabulary (CSR row index), which
    #: the fold has already built to place its additions
    tok_pos: Dict[str, int]


class _View:
    """The one read form: a base, the writes since it (none, for a
    compaction's seal) and the statistics when it was published.

    Positions ``0 .. B-1`` are the base's documents, dead or alive, and
    ``B ..`` the added ones; ``dead`` holds the removed positions, which
    every score row zeroes, ``ordinal`` ranks every position's id
    (:class:`_Delta`) and ``norm`` is every position's ``k1 * (1 - b +
    b * len / avg)``.  A token's block is its base block followed by its
    block of the added documents (``delta_*``, grouped by token key: its
    base row, or its ``first_seen`` key past them), so a cell adds its
    contributions in sorted token order, as the compacted seal's does.
    ``df`` holds the document frequency of every token a write moved
    since the base (any other token's is its row length).  Nothing is
    written after publication but ``spans``, and nothing of the base.
    """

    __slots__ = (
        "base", "tok_pos", "fresh_ids", "size", "doc_count", "avg_len",
        "ordinal", "dead", "norm", "df", "first_seen", "delta_start",
        "delta_cells", "delta_tf", "spans",
    )

    def __init__(
        self,
        base: _Postings,
        delta: Optional["_Delta"],
        doc_count: int,
        avg_len: float,
        norm: "np.ndarray",
        df: Dict[str, int],
        spans: Dict[str, Tuple[_Cells, "np.ndarray"]],
    ) -> None:
        self.base = base
        self.tok_pos = base.tok_pos
        self.size = norm.size       # positions, a dead one's included
        self.doc_count = doc_count  # live documents: the idf's N
        self.avg_len = avg_len
        self.norm = norm
        self.df = df
        #: token -> its cells and their contributions at query count 1,
        #: derived by the first read that asks for it (``_derive``) or
        #: inherited from the view before
        self.spans = spans
        if delta is None:  # a seal: no write since the base
            self.fresh_ids: List[str] = []
            self.ordinal, self.dead = base.ordinal, None
            self.first_seen: Dict[str, int] = {}
            self.delta_start = None
        else:  # the delta's arrays are replaced, never written
            self.fresh_ids = list(delta.ids)
            self.ordinal = delta.ordinal
            self.dead = (
                np.array(delta.dead, dtype=np.int64) if delta.dead else None
            )
            self.first_seen = dict(delta.first_seen)
            self.delta_start = delta.start  # per token key, into the delta
            self.delta_cells, self.delta_tf = delta.cells, delta.tf

    def select(
        self, scores: "np.ndarray", candidates: "np.ndarray", k: int
    ) -> Ranking:
        """The first ``k`` of ``candidates`` (positions; ``scores[j]`` is
        the score of ``candidates[j]``) under the ``(-score, id)`` order:
        :func:`~repro.index.base.select_ranked` over the base's id table
        while no document was added since it, else one ``lexsort`` and
        the ids read off the positions one by one."""
        if not self.fresh_ids:
            return select_ranked(
                self.ordinal, self.base.by_ordinal, scores, candidates, k
            )
        order = np.lexsort((self.ordinal[candidates], -scores))[:k]
        ids, fresh = self.base.doc_ids, self.fresh_ids
        first = len(ids)
        return [
            ids[p] if p < first else fresh[p - first]
            for p in candidates[order].tolist()
        ], scores[order].tolist()

    def block(self, token: str) -> Optional[Tuple[_Cells, "np.ndarray", int]]:
        """``token``'s cells (:data:`_Cells`), their term frequencies and
        its document frequency; ``None`` for a token neither the base nor
        the added documents carry."""
        base = self.base
        position = self.tok_pos.get(token)
        if position is None:  # first seen since the base, or unknown
            key = self.first_seen.get(token)
            if key is None:
                return None
            low, high = self.delta_start[key:key + 2].tolist()
            return (
                (self.delta_cells[low:high],), self.delta_tf[low:high],
                self.df[token],
            )
        start, end = base.tok_start[position:position + 2].tolist()
        cells, tf = (base.doc_idx[start:end],), base.tf_flat[start:end]
        if self.delta_start is not None:
            low, high = self.delta_start[position:position + 2].tolist()
            if low < high:
                cells += (self.delta_cells[low:high],)
                tf = np.concatenate((tf, self.delta_tf[low:high]))
        return cells, tf, self.df.get(token, end - start)


class _Delta:
    """The writes since a base, kept as its views read them: each write
    adds its own document's part.

    One *slot* per document added since, in order, a removed one's
    included: ``ids`` and ``lengths``.  A slot's position is the base's
    document count plus its number.  ``ordinal`` ranks the id of every
    position, the base's and the slots': it is
    :func:`~repro.index.base.ordinals_of` those ids, a dead copy of an id
    sorting just before its later copies, so the live ids keep their
    order and an update breaks ties as before it.  ``ranked`` holds the
    slots' ids sorted.  The added postings are sorted by token key:
    ``keys`` (the token's base row, or a key past them for a token first
    seen since the base, numbered in ``first_seen``), ``cells`` (the
    slot's position) and ``tf``, and ``start[key]`` is where a key's
    block of them starts.  ``dead`` lists the positions every
    score row zeroes, the removed base documents' and slots', and
    ``slot_of`` maps an added document still alive to its position, and
    ``position[r]`` is the base document of rank ``r``, which is how a
    removal finds a base document's place without a scan.  Every array
    is replaced, never written, so a view holding one keeps it.  A base
    gets its delta with its first write.
    """

    __slots__ = (
        "base", "ids", "lengths", "ordinal", "ranked", "keys", "cells",
        "tf", "start", "first_seen", "dead", "slot_of", "position",
    )

    def __init__(self, base: _Postings) -> None:
        self.base = base
        self.position = np.empty_like(base.ordinal)
        self.position[base.ordinal] = np.arange(base.ordinal.size)
        self.ids: List[str] = []
        self.lengths: List[int] = []
        self.ordinal = base.ordinal
        self.ranked: List[str] = []
        self.keys = np.empty(0, dtype=np.int64)
        self.cells = np.empty(0, dtype=np.int64)
        self.tf = np.empty(0, dtype=np.float64)
        self.start = np.zeros(len(base.tokens) + 1, dtype=np.int64)
        self.first_seen: Dict[str, int] = {}
        self.dead: List[int] = []
        self.slot_of: Dict[str, int] = {}

    def add(
        self,
        instance_id: str,
        distinct: Tuple[str, ...],
        counts: Tuple[int, ...],
        length: int,
    ) -> None:
        """One more slot: its rank carried in, its postings merged in."""
        base = self.base
        position = len(base.doc_ids) + len(self.ids)
        self.slot_of[instance_id] = position
        self.ids.append(instance_id)
        self.lengths.append(length)
        # after every ranked id sorting before it or equal to it; the
        # ranks from there on move back one
        rank = int(np.searchsorted(
            base.by_ordinal, instance_id, side="right"
        )) + bisect_right(self.ranked, instance_id)
        self.ordinal = np.append(self.ordinal + (self.ordinal >= rank), rank)
        insort_right(self.ranked, instance_id)
        tok_pos, first_seen = base.tok_pos, self.first_seen
        past = len(tok_pos)
        keys = []
        for token in distinct:
            key = tok_pos.get(token)
            if key is None:
                key = first_seen.setdefault(token, past + len(first_seen))
            keys.append(key)
        merged = np.concatenate((self.keys, np.array(keys, dtype=np.int64)))
        order = np.argsort(merged, kind="stable")
        self.keys = merged[order]
        self.cells = np.concatenate(
            (self.cells, np.full(len(keys), position))
        )[order]
        self.tf = np.concatenate((self.tf, counts))[order]
        self.start = np.zeros(past + len(first_seen) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.keys, minlength=self.start.size - 1),
            out=self.start[1:],
        )


class MatrixPlan(NamedTuple):
    """A campaign of queries analyzed once: ``terms`` holds, per query,
    its sorted ``(token, count)`` list.  Built by
    :meth:`InvertedIndex.plan_matrix`, consumed by
    :meth:`InvertedIndex.rank_planned`.
    """

    terms: List[List[Tuple[str, int]]]


class InvertedIndex(SearchIndex):
    """Token -> postings index scored with Okapi BM25."""

    def __init__(
        self,
        name: str = "bm25",
        k1: float = 1.2,
        b: float = 0.75,
        remove_stopwords: bool = True,
        stemming: bool = True,
    ) -> None:
        if k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {k1}")
        if not 0 <= b <= 1:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.name = name
        self.k1 = k1
        self.b = b
        self.remove_stopwords = remove_stopwords
        self.stemming = stemming
        self._doc_length: Dict[str, int] = {}
        self._total_length = 0
        #: token -> number of documents carrying it: the vocabulary, and
        #: what local_df(), idf() and a view's ``df`` read
        self._df: Counter = Counter()
        #: the published view; ``None`` from a write until the next read
        self._sealed: Optional[_View] = None
        #: the last compaction's postings, which every view reads and the
        #: next compaction folds into; ``None`` = nothing compiled yet
        self._base: Optional[_Postings] = None
        #: the documents added since ``_base``, in order, each with its
        #: distinct tokens (interned) and their counts — the only
        #: per-document record, held until a compaction carries the
        #: document
        self._fresh: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        #: the writes since ``_base`` as its views read them: the added
        #: documents' postings and the removed documents' positions, an
        #: updated document in both (``None`` until the base's first
        #: write)
        self._delta: Optional[_Delta] = None
        #: the last view of ``_base`` published, whose ``df`` and spans
        #: the next view starts from; ``None`` until the base's first view
        self._viewed: Optional[_View] = None
        #: the tokens whose document frequency or postings a write moved
        #: since ``_viewed`` (kept only while there is a base): the
        #: spans the next view does not inherit
        self._touched: Set[str] = set()

    def _analyze(self, text: str) -> List[str]:
        return analyze(
            text,
            remove_stopwords=self.remove_stopwords,
            stemming=self.stemming,
        )

    def add(self, instance_id: str, payload: str) -> None:
        self.add_tokens(instance_id, self._analyze(payload))

    def add_tokens(self, instance_id: str, tokens: Sequence[str]) -> None:
        """Index one document by its analysed tokens: what :meth:`add`
        does after analysing."""
        self.add_counts(instance_id, Counter(tokens))

    def add_counts(self, instance_id: str, counts: Mapping[str, int]) -> None:
        """Index one document by the counts of its analysed tokens, in
        first-occurrence order (a ``Counter`` of them): what
        :meth:`add_tokens` does after counting, for a caller that
        analysed the payload under this index's settings and hands the
        counts to other indexes too."""
        if instance_id in self._doc_length:
            raise ValueError(f"duplicate instance id: {instance_id}")
        self._sealed = None  # any write un-publishes the read form
        length = sum(counts.values())
        self._doc_length[instance_id] = length
        self._total_length += length
        distinct = tuple(map(sys.intern, counts))
        record = self._fresh[instance_id] = (distinct, tuple(counts.values()))
        if self._base is not None:
            self._writes().add(instance_id, *record, length)
            self._touched.update(distinct)
        self._df.update(distinct)
        self._compact_if_outgrown()

    def remove(self, instance_id: str, tokens: Sequence[str]) -> None:
        """Delete one document in O(its tokens): read off its record
        when no base carries it yet, else off ``tokens`` — its analysed
        tokens as :meth:`add_tokens` took them, which the indexer hands
        over.

        Statistics and vocabulary (a token the document was the last
        carrier of is dropped) are corrected before this returns; the
        postings go at the next compaction, and a view zeroes them until
        then.  Raises ``KeyError`` for an unknown id, and ``ValueError``
        for ``tokens`` of another length than the document's.
        """
        length = self._doc_length[instance_id]  # KeyError when absent
        if len(tokens) != length:
            raise ValueError(
                f"{instance_id!r} holds {length} tokens, not {len(tokens)}"
            )
        del self._doc_length[instance_id]
        self._total_length -= length
        record = self._fresh.pop(instance_id, None)
        if record is not None:
            distinct: Iterable[str] = record[0]
            if self._base is not None:
                delta = self._writes()
                delta.dead.append(delta.slot_of.pop(instance_id))
        else:  # the base carries it
            base, delta = self._base, self._writes()
            delta.dead.append(int(delta.position[
                np.searchsorted(base.by_ordinal, instance_id)
            ]))
            distinct = set(tokens)
        df = self._df
        for token in distinct:
            if df[token] == 1:
                del df[token]
            else:
                df[token] -= 1
        if self._base is not None:
            self._touched.update(distinct)
        self._sealed = None  # any write un-publishes the read form
        self._compact_if_outgrown()

    def invalidate_seal(self) -> None:
        """Un-publish the read form although no posting moved: the next
        read publishes a view of the base (and :meth:`seal` compacts).

        ``bench/replay.py``'s ``seal_ms`` calls this to time the read
        form's publication apart from any write.
        """
        self._sealed = None

    def _writes(self) -> _Delta:
        """The writes since the base (which exists), begun by the first
        of them."""
        if self._delta is None:
            self._delta = _Delta(self._base)
        return self._delta

    def __len__(self) -> int:
        return len(self._doc_length)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._doc_length

    def local_df(self, token: str) -> int:
        """Document frequency of ``token`` in *this* index's documents."""
        return self._df[token]

    @property
    def avg_doc_length(self) -> float:
        num_docs = len(self._doc_length)
        if not num_docs:
            return 0.0
        return self._total_length / num_docs

    def idf(self, token: str) -> float:
        """BM25+ style idf, floored at a small positive value."""
        return _bm25_idf(len(self._doc_length), self._df[token])

    # ------------------------------------------------------------------
    # the read form: a view of the base
    # ------------------------------------------------------------------
    @property
    def is_sealed(self) -> bool:
        """A read form is published: False from a write until the next
        read (or :meth:`seal`) publishes one."""
        return self._sealed is not None

    def seal(self) -> "InvertedIndex":
        """Compact: fold the writes since the base into a new base, and
        publish its seal, a view with no writes.

        Idempotent: a published seal with no write since is kept.  Reads
        do not call this; they publish a view (:meth:`_current_seal`).  A
        write calls the fold when the writes since the base outgrow
        ``_COMPACT_SHARE`` of it, and the first seal is the same fold
        (:meth:`_fold`) over an empty base.  It publishes a *new* view,
        so a caller still holding the previous view keeps a consistent
        one.
        """
        if self._sealed is None or self._delta is not None:
            self._fold()
            self._sealed = self._view()
        return self

    def _compact_if_outgrown(self) -> None:
        """After a write: compact once the writes since the base outgrow
        ``_COMPACT_SHARE`` of it, so no view's delta grows without
        bound.  The write pays for the fold, and the next read publishes
        a view of the new base."""
        delta = self._delta
        if delta is not None and (
            len(delta.ids) + len(delta.dead)
            > _COMPACT_SHARE * len(delta.base.doc_ids)
        ):
            self._fold()

    def _fold(self) -> None:
        """Fold the writes since ``_base`` into new CSR arrays and make
        the result the base: the one fold, the compile included.

        Produces, array for array and byte for byte, the one layout of
        the index's documents: documents in ``_doc_length`` order (the
        base's survivors, then the fresh ones), every row in document
        order (its surviving postings, then the fresh ones), rows in
        sorted token order (emptied rows dropped, first-seen tokens
        inserted in place).  The added documents' postings become one
        run sorted by row, and the base's survivors are merged into it
        only when the base holds any postings (:meth:`_fold_writes`):
        the first seal is this fold over an empty base, and its run is
        the new arrays.  The base's arrays are only read; with no write
        since (:meth:`invalidate_seal`) the base stays.
        """
        # the base and the fresh records stay referenced until the new
        # base replaces them: they are the only copy of the documents'
        # postings, so a fold that fails leaves the index as it was
        base, fresh = self._base, self._fresh
        dead = [] if self._delta is None else [
            position for position in self._delta.dead
            if position < len(base.doc_ids)
        ]
        if base is None:
            published = get_registry().counter("index.seal.compiled")
            base = _Postings(
                [], np.empty(0), [], np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=object), {},
            )
        else:
            published = get_registry().counter("index.seal.patched")
        if dead or fresh:
            base = self._fold_writes(base, dead, fresh)
        self._base = base
        self._fresh, self._delta = {}, None
        self._viewed, self._touched = None, set()
        published.inc()

    def _fold_writes(
        self,
        base: _Postings,
        dead: List[int],
        fresh: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...]]],
    ) -> _Postings:
        """:meth:`_fold` when something was written: ``dead`` holds the
        positions of the base documents removed since."""
        merge = base.doc_idx.size > 0
        kept_len = np.diff(base.tok_start)
        kept_docs, kept_tf = base.doc_idx, base.tf_flat
        if merge and dead:
            keep_doc = np.ones(len(base.doc_ids), dtype=bool)
            keep_doc[dead] = False
            keep = keep_doc[base.doc_idx]
            # each dead posting shortens the row its position falls in
            kept_len -= np.bincount(
                np.searchsorted(
                    base.tok_start, np.flatnonzero(~keep), side="right"
                ) - 1,
                minlength=len(base.tokens),
            )
            kept_docs = base.doc_idx[keep]
            # survivors close ranks; every index is in range, and
            # mode="raise" would buffer the whole output
            np.take(
                np.cumsum(keep_doc) - 1, kept_docs, out=kept_docs,
                mode="clip",
            )
            kept_tf = base.tf_flat[keep]
            del keep

        # vocabulary: a base row lives on if a posting survived or a
        # fresh one lands in it; first-seen tokens are sorted in
        records = list(fresh.values())
        touched = dict.fromkeys(
            chain.from_iterable(distinct for distinct, _ in records)
        )
        tok_pos = base.tok_pos
        alive = kept_len > 0
        alive[[tok_pos[t] for t in touched if t in tok_pos]] = True
        first_seen = [t for t in touched if t not in tok_pos]
        tokens = sorted(
            chain(compress(base.tokens, alive.tolist()), first_seen)
        )
        tok_pos = dict(zip(tokens, range(len(tokens))))

        # the fresh run: every fresh posting's row (int32 keys), term
        # frequency and document, put in row order by one stable sort
        sizes = np.fromiter(
            (len(distinct) for distinct, _ in records),
            dtype=np.int64, count=len(records),
        )
        total = int(sizes.sum())
        rows = np.fromiter(
            map(tok_pos.__getitem__, chain.from_iterable(
                distinct for distinct, _ in records
            )),
            dtype=np.int32, count=total,
        )
        add_tf = np.fromiter(
            chain.from_iterable(counts for _, counts in records),
            dtype=np.float64, count=total,
        )
        del records
        tok_start = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(rows, minlength=len(tokens)), out=tok_start[1:]
        )
        order = np.argsort(rows, kind="stable")
        rows = rows[order] if merge else None
        tf_run = add_tf[order]
        del add_tf
        first_fresh = len(base.doc_ids) - len(dead)
        docs_run = np.repeat(
            np.arange(first_fresh, first_fresh + sizes.size, dtype=np.int32),
            sizes,
        )[order]
        del order

        if not merge:  # the compile: the run is the postings
            doc_idx, tf_flat = docs_run.astype(np.int64), tf_run
        else:
            # row lengths: the surviving base rows keep their order
            # around the first-seen rows, then every row grows by its
            # additions; an addition lands behind the surviving postings
            # of its row and of every row before it, and behind the
            # additions before it
            kept_end = np.zeros(len(tokens), dtype=np.int64)
            from_base = np.ones(len(tokens), dtype=bool)
            from_base[[tok_pos[t] for t in first_seen]] = False
            kept_end[from_base] = kept_len[alive]
            np.cumsum(kept_end, out=kept_end)
            tok_start[1:] += kept_end
            at = kept_end[rows] + np.arange(total)
            del rows
            survivor = np.ones(int(tok_start[-1]), dtype=bool)
            survivor[at] = False
            doc_idx = np.empty(survivor.size, dtype=np.int64)
            doc_idx[survivor] = kept_docs
            doc_idx[at] = docs_run
            tf_flat = np.empty(survivor.size, dtype=np.float64)
            tf_flat[survivor] = kept_tf
            tf_flat[at] = tf_run
        # only the new arrays stay while the id tables are built
        del docs_run, tf_run, kept_docs, kept_tf

        doc_ids = list(self._doc_length)
        if self._delta is None:  # the compile: sort the ids once
            ordinal, by_ordinal = ordinals_of(doc_ids)
        else:  # the views' table, closed up over the ranks of the dead
            ordinal = self._delta.ordinal
            if self._delta.dead:
                live = np.ones(ordinal.size, dtype=bool)
                live[self._delta.dead] = False
                ordinal = ordinal[live]
                used = np.zeros(live.size, dtype=bool)
                used[ordinal] = True
                ordinal = (np.cumsum(used) - 1)[ordinal]
            by_ordinal = np.empty(ordinal.size, dtype=object)
            by_ordinal[ordinal] = doc_ids
        lengths = np.fromiter(
            self._doc_length.values(), dtype=np.float64, count=len(doc_ids)
        )
        return _Postings(
            doc_ids, lengths, tokens, tok_start, doc_idx, tf_flat, ordinal,
            by_ordinal, tok_pos,
        )


    def _norm(self, lengths: "np.ndarray", avg_len: float) -> "np.ndarray":
        """Per-document ``k1 * (1 - b + b * len / avg)``: exactly the
        reference scorer's denominator, hoisted per doc."""
        if avg_len:
            return self.k1 * (1 - self.b + self.b * lengths / avg_len)
        return np.full(lengths.size, self.k1 * 1.0)

    def _contrib(
        self,
        idf: "np.ndarray",
        tf: "np.ndarray",
        norm: "np.ndarray",
        cells: "np.ndarray",
    ) -> "np.ndarray":
        """BM25 contributions at query term frequency 1 —
        ``idf * (tf * (k1 + 1)) / (norm[cell] + tf)``, elementwise in the
        reference scorer's operation order (a product and the
        denominator's one addition commute exactly).  ``norm`` is per
        position; ``idf``, ``tf`` and ``cells`` are per posting."""
        values = tf * (self.k1 + 1)
        values *= idf
        denominator = norm[cells]
        denominator += tf
        values /= denominator
        return values

    def _view(self) -> _View:
        """The base, the writes since it and the statistics now as one
        view.  Costs one pass over the
        documents' lengths for ``norm``.  It starts from the last view of
        this base: its ``df``, the tokens written since brought up to
        date, and, unless the document count or the average length
        moved, every span the writes since did not touch."""
        base, delta, prior = self._base, self._delta, self._viewed
        doc_count, avg_len = len(self._doc_length), self.avg_doc_length
        lengths = base.lengths if delta is None else np.concatenate(
            (base.lengths, delta.lengths)
        )
        df: Dict[str, int] = {} if prior is None else dict(prior.df)
        spans: Dict[str, Tuple[_Cells, "np.ndarray"]] = {}
        if prior is not None and (
            prior.doc_count == doc_count and prior.avg_len == avg_len
        ):
            spans = dict(prior.spans)
        for token in self._touched:
            df[token] = self._df[token]
            spans.pop(token, None)
        view = self._viewed = _View(
            base, delta, doc_count, avg_len, self._norm(lengths, avg_len),
            df, spans,
        )
        self._touched = set()
        return view

    # ------------------------------------------------------------------
    # scoring a plan: one query a pass
    # ------------------------------------------------------------------
    def plan_matrix(self, queries: Sequence[str]) -> "MatrixPlan":
        """Analyze a campaign once into a plan.

        The plan depends only on the queries and the analyzer settings,
        never on the postings, so one plan can be ranked against the
        index again after writes (:meth:`rank_planned`)."""
        return MatrixPlan(
            [sorted(Counter(self._analyze(q)).items()) for q in queries]
        )

    def _score_matrix(
        self, sealed: Optional[_View], plan: "MatrixPlan", k: int
    ) -> List[Ranking]:
        """Rank every query of a plan against one view: per query, the
        ids and scores of its top k, the ids read off that view.

        The one kernel, a query a pass.  The query's stream is its known
        tokens' spans (:meth:`_derive`) laid end to end in sorted token
        order — the canonical accumulation order — with each span's
        contributions times the token's query count when that is not 1.
        One ``np.bincount`` folds the stream into the query's score row,
        adding in stream order, so every cell is the reference scorer's
        sum bit for bit (``contrib * qc`` is the same product whichever
        operand comes first).  A query this view knows no token of
        matches nothing and makes no pass."""
        if sealed is None or not sealed.size or k <= 0:
            return [([], []) for _ in plan.terms]
        spans, size, dead = sealed.spans, sealed.size, sealed.dead
        unseen = [t for q in plan.terms for t, _ in q if t not in spans]
        self._derive(sealed, unseen)
        ranked: List[Ranking] = []
        postings = 0
        for terms in plan.terms:
            cells, values = [], []
            for token, query_count in terms:
                span = spans.get(token)
                if span is not None:
                    cells.extend(span[0])
                    values.append(
                        span[1] if query_count == 1
                        else span[1] * query_count
                    )
            if not cells:
                ranked.append(([], []))
                continue
            stream = np.concatenate(cells)
            postings += stream.size
            scores = np.bincount(
                stream, weights=np.concatenate(values), minlength=size
            )
            if dead is not None:  # its removed documents' cells
                scores[dead] = 0.0
            ranked.append(_rank_row(sealed, scores, k))
        get_registry().counter("index.matrix.stream_postings").inc(postings)
        return ranked

    def _derive(self, sealed: _View, tokens: Iterable[str]) -> None:
        """Cache the span of each of ``tokens`` the view carries and has
        no span of, at its idf and norms, in one :meth:`_contrib` pass
        over their blocks laid end to end, each span a copy of its piece
        (an inherited span keeps no batch alive).  A token the view does
        not know is not cached."""
        spans, blocks = sealed.spans, {}
        for token in tokens:
            if token not in spans and token not in blocks:
                block = sealed.block(token)
                if block is not None:
                    blocks[token] = block
        if not blocks:
            return
        cells, tf, df = zip(*blocks.values())
        sizes = [block_tf.size for block_tf in tf]
        values = self._contrib(
            np.repeat([_bm25_idf(sealed.doc_count, n) for n in df], sizes),
            np.concatenate(tf), sealed.norm,
            np.concatenate([part for parts in cells for part in parts]),
        )
        end = 0
        for token, parts, size in zip(blocks, cells, sizes):
            spans[token] = (parts, values[end:end + size].copy())
            end += size

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _current_seal(self) -> Optional[_View]:
        """The view one call reads from start to end, published first
        when a write un-published it (after the compile, when there is
        no base yet); ``None`` = the index is empty.  Every read takes it
        once and passes it down, so a call never mixes two generations'
        arrays."""
        sealed = self._sealed
        if sealed is None and self._doc_length:
            if self._base is None:
                self._fold()
            else:
                get_registry().counter("index.seal.viewed").inc()
            sealed = self._sealed = self._view()
        return sealed

    def rank_planned(
        self, plan: "MatrixPlan", k: int = 10
    ) -> List[Ranking]:
        """Rank a pre-analyzed plan (:meth:`plan_matrix`) against this
        index, each ranking's ids read off the view that ranked it."""
        return self._score_matrix(self._current_seal(), plan, k)

    def rank_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[Ranking]:
        """Plan the queries, rank the plan."""
        return self.rank_planned(self.plan_matrix(queries), k)

    def search_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[SearchHit]]:
        return hits_of(self.rank_batch(queries, k), self.name)

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        return self.search_batch([query], k)[0]
