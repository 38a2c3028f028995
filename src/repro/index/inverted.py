"""Inverted index with Okapi BM25 ranking — the Elasticsearch stand-in.

This is the content-based index the paper's experiments actually use
("We use Elasticsearch to retrieve the top-3 tuples and top-3 text
files..."), so its ranking function matches ES defaults: BM25 with
k1 = 1.2, b = 0.75.

Postings live in one form, the **seal**: one flat contiguous CSR-style
layout (sorted token table, ``tok_start`` offsets into concatenated
document-index + term-frequency arrays) with precomputed idf and
length-normalization arrays.  Beside it the index keeps per-document
lengths and one token -> document-frequency table; a document's
analysed tokens are kept only until a seal carries it.  Any write
un-publishes the read form and the next read publishes a current one,
so callers never see a stale ranking; an index with no document is an
empty index.

Every read is a batch — ``search(q)`` is ``search_batch([q])[0]`` — and
a batch is plan -> rank -> ids (``rank_batch``; ``search_batch`` builds
hits from its columns): :meth:`InvertedIndex.plan_matrix` analyzes the
queries once, ``_score_matrix`` ranks the plan against one read form
(the seal, or a view of it), and the ranking reads its ids off that
read form.  One kernel scores every plan, a query a pass: the query's
known tokens' blocks of ``doc_idx`` and of ``contrib_flat`` (a
per-posting table built by the first read of a seal) are concatenated
into one stream, and a single ``np.bincount`` folds the stream into the
query's score row.  A token's two blocks are cached on the read form by
the token's first read there.

Token contributions accumulate in **sorted token order** in the kernel
(``bincount`` adds in stream order) and in the tests' reference scorer
over token -> ``{id: tf}`` postings, so both replay the same float64
sums bit for bit; one selection, ``_rank_row``, then takes the row's top
k under the ``(-score, id)`` total order, read as ``(-score, ordinal)``
off the seal's ordinal table (:func:`~repro.index.base.select_ranked`).

**Live mutation** — :meth:`add` (analyse, then :meth:`add_tokens`)
records the document's distinct tokens and counts until a seal carries
it; :meth:`remove` corrects the statistics at once, from the tokens its
caller analysed (or, without them, from one scan of the seal's
postings).  :meth:`update` is remove + add, which moves the document to
the end of the document order.  A write keeps the last seal as the
*base*, and the next read publishes a **view** of it (:class:`_View`):
the base, whose arrays are never written; the base documents removed
since, whose cells every score row zeroes; and the documents added
since, scored from their records.  A view re-derives only what the
writes moved: the contribution rows of the tokens whose document
frequency moved, or every row in one elementwise pass when the document
count or the average length moved.  It carries the base's ordinal
table, an updated id keeping its rank, so it ranks as the compacted seal
of the same documents, ids and score bits (``tests/test_index_view.py``).
:meth:`seal` is the **compaction**: it folds the net removals and
additions into the base's CSR arrays in a fixed number of numpy passes
and re-derives ``norm`` / ``idf_flat`` from the integer statistics.  It
runs when called, and when a write leaves more documents written since
the base than ``_COMPACT_SHARE`` of it.  The first seal is the same fold
over an empty base, and a compacted seal is byte-identical to a fresh
index's over the surviving payloads (``tests/test_index_patch.py``).
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_right, insort_right
from collections import Counter
from itertools import chain, compress, repeat
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, ordinals_of, select_ranked,
)
from repro.obs.metrics import get_registry
from repro.text import analyze


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


def _idf_table(num_docs: int, df: "np.ndarray") -> "np.ndarray":
    """:func:`_bm25_idf` of every entry of ``df``, calling ``math.log``
    once per distinct df (a few hundred values), so each idf is the
    very float :meth:`InvertedIndex.idf` returns."""
    distinct, inverse = np.unique(df, return_inverse=True)
    idf_of = np.array(
        [_bm25_idf(num_docs, n) for n in distinct.tolist()],
        dtype=np.float64,
    )
    return idf_of[inverse]


def _rank_row(sealed: "_ReadForm", scores: "np.ndarray", k: int) -> Ranking:
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


class _SealedPostings:
    """Compiled, read-only form of one index generation: the base of
    the views between two compactions.

    Storage is four flat contiguous arrays in CSR layout — ``tokens``
    (sorted), ``tok_start`` offsets, concatenated ``doc_idx`` /
    ``tf_flat`` postings — plus per-doc ``norm`` and per-token
    ``idf_flat``, and the document order's ``ordinal`` table (what a
    ranking breaks ties by) with ``by_ordinal``, the ids in sorted
    order.  ``contrib_flat`` and ``spans`` are derived data its reads
    fill while it is published, and which it drops when a view of it is
    published: from then on only views read it.
    """

    __slots__ = (
        "doc_ids", "norm",
        "tokens", "tok_start", "doc_idx", "tf_flat", "idf_flat",
        "ordinal", "by_ordinal", "tok_pos", "num_docs",
        "contrib_flat", "spans",
        # lets the race sanitizer tell this seal from a collected one
        # whose address it reuses
        "__weakref__",
    )

    #: a seal has no removed document to zero (see :class:`_View`)
    dead = None

    def __init__(
        self,
        doc_ids: List[str],
        norm: "np.ndarray",
        tokens: List[str],
        tok_start: "np.ndarray",
        doc_idx: "np.ndarray",
        tf_flat: "np.ndarray",
        idf_flat: "np.ndarray",
        ordinal: "np.ndarray",
        by_ordinal: "np.ndarray",
        tok_pos: Optional[Dict[str, int]] = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.num_docs = len(doc_ids)
        self.norm = norm            # per-doc k1 * (1 - b + b * len/avg)
        self.tokens = tokens        # sorted vocabulary
        self.tok_start = tok_start  # CSR offsets, len(tokens) + 1
        self.doc_idx = doc_idx      # concatenated doc-index postings
        self.tf_flat = tf_flat      # concatenated term frequencies
        self.idf_flat = idf_flat    # per-token BM25+ idf, token order
        #: ``ordinal[i]``: the rank of ``doc_ids[i]`` in sorted id order
        #: (:func:`~repro.index.base.ordinals_of`), and ``by_ordinal``
        #: the ids in that order — derived data, carried into the views
        #: and the compaction (:class:`_Delta`) because sorting every id
        #: again would cost a write-heavy index more than its reads
        self.ordinal = ordinal
        self.by_ordinal = by_ordinal
        #: token -> position in the sorted vocabulary (CSR row index);
        #: a fold has already built it to place its additions
        self.tok_pos: Dict[str, int] = (
            tok_pos if tok_pos is not None
            else dict(zip(tokens, range(len(tokens))))
        )
        #: per-posting BM25 contribution for qtf = 1, built by the
        #: first read of this seal (derived data, never carried: a view
        #: of this seal derives its own, and its publication drops this)
        self.contrib_flat: Optional["np.ndarray"] = None
        #: token -> its CSR blocks of ``doc_idx`` and ``contrib_flat``,
        #: two views filled by the token's first read of this seal
        #: (:meth:`InvertedIndex._span`); a write publishes a new read
        #: form, and with it an empty cache, and a view of this seal
        #: drops this one with ``contrib_flat``
        self.spans: Dict[str, Tuple["np.ndarray", "np.ndarray"]] = {}

    def select(
        self, scores: "np.ndarray", candidates: "np.ndarray", k: int
    ) -> Ranking:
        """The first ``k`` of ``candidates`` (positions; ``scores[j]`` is
        the score of ``candidates[j]``) under the ``(-score, id)`` order
        (:func:`~repro.index.base.select_ranked`)."""
        return select_ranked(
            self.ordinal, self.by_ordinal, scores, candidates, k
        )

    def block(
        self, token: str, contrib_flat: "np.ndarray"
    ) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """``token``'s CSR blocks of ``doc_idx`` and of ``contrib_flat``
        (this seal's, the caller's reference to it); ``None`` for a
        token the seal does not know."""
        position = self.tok_pos.get(token)
        if position is None:
            return None
        start, end = self.tok_start[position:position + 2].tolist()
        return self.doc_idx[start:end], contrib_flat[start:end]


class _View:
    """The read form between two compactions: a base seal, the base
    documents removed since it and the documents added since.

    Positions ``0 .. B-1`` are the base's documents, dead or alive, and
    ``B ..`` the added ones, in order; ``dead`` holds the removed
    positions, which every score row zeroes; ``ordinal`` ranks every
    position's id (:class:`_Delta`).  A token's block is its
    base block — the base's ``doc_idx`` rows and this view's own
    ``contrib_flat`` (the base's contributions under the view's
    statistics) — followed by its block of the added documents'
    postings: ``delta_cells`` / ``delta_values``, grouped by token key,
    which is the token's base row or, for a token first seen since the
    base, its ``first_seen`` key past them.  Each document sits in one
    of the two blocks, so a cell adds its contributions in sorted token
    order, as the compacted seal's does.  Nothing is written after
    publication but the ``spans`` cache, and nothing of the base at all.
    """

    __slots__ = (
        "base", "tok_pos", "fresh_ids", "num_docs", "ordinal", "dead",
        "contrib_flat", "first_seen", "delta_start", "delta_cells",
        "delta_values", "spans", "__weakref__",
    )

    def __init__(
        self,
        base: _SealedPostings,
        fresh_ids: List[str],
        ordinal: "np.ndarray",
        dead: Optional["np.ndarray"],
        contrib_flat: "np.ndarray",
        first_seen: Dict[str, int],
        delta_start: "np.ndarray",
        delta_cells: "np.ndarray",
        delta_values: "np.ndarray",
    ) -> None:
        self.base = base
        self.tok_pos = base.tok_pos
        self.fresh_ids = fresh_ids
        self.num_docs = len(base.doc_ids) + len(fresh_ids)
        self.ordinal = ordinal
        self.dead = dead
        self.contrib_flat = contrib_flat
        self.first_seen = first_seen
        self.delta_start = delta_start  # per token key, into the delta
        self.delta_cells = delta_cells
        self.delta_values = delta_values
        self.spans: Dict[str, Tuple["np.ndarray", "np.ndarray"]] = {}

    @property
    def doc_ids(self) -> List[str]:
        """The id at each position, a dead position's included."""
        return self.base.doc_ids + self.fresh_ids

    def select(
        self, scores: "np.ndarray", candidates: "np.ndarray", k: int
    ) -> Ranking:
        """:meth:`_SealedPostings.select`, the ids read off the positions
        (a view ranks its positions but keeps no id table)."""
        order = np.lexsort((self.ordinal[candidates], -scores))[:k]
        ids, fresh = self.base.doc_ids, self.fresh_ids
        first = len(ids)
        return [
            ids[p] if p < first else fresh[p - first]
            for p in candidates[order].tolist()
        ], scores[order].tolist()

    def block(
        self, token: str, contrib_flat: "np.ndarray"
    ) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """``token``'s base block, then its block of the added
        documents; ``None`` for a token neither carries.
        ``contrib_flat`` is this view's."""
        base = self.base
        position = base.tok_pos.get(token)
        if position is None:  # first seen since the base, or unknown
            key = self.first_seen.get(token)
            if key is None:
                return None
            low, high = self.delta_start[key:key + 2].tolist()
            return self.delta_cells[low:high], self.delta_values[low:high]
        start, end = base.tok_start[position:position + 2].tolist()
        low, high = self.delta_start[position:position + 2].tolist()
        if low == high:
            return base.doc_idx[start:end], contrib_flat[start:end]
        return (
            np.concatenate((
                base.doc_idx[start:end], self.delta_cells[low:high]
            )),
            np.concatenate((
                contrib_flat[start:end], self.delta_values[low:high]
            )),
        )


class _Derived(NamedTuple):
    """A base's scoring tables under the statistics of its last view:
    per-posting ``contrib``, per-token ``df`` and ``idf``, per-document
    ``lengths`` (a removed document's may be anything) and ``norm``, and
    the document count and average length they were taken at.  Private
    to the index, which brings the arrays up to date in place; a view
    scores from a copy of ``contrib``."""

    contrib: "np.ndarray"
    df: "np.ndarray"
    idf: "np.ndarray"
    lengths: "np.ndarray"
    norm: "np.ndarray"
    num_docs: int
    avg_len: float


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
    gets its delta with its first write (or view).
    """

    __slots__ = (
        "base", "ids", "lengths", "ordinal", "ranked", "keys", "cells",
        "tf", "start", "first_seen", "dead", "slot_of", "position",
    )

    def __init__(self, base: _SealedPostings) -> None:
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


#: what one read reads from start to end
_ReadForm = Union[_SealedPostings, _View]


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
        #: what local_df(), idf() and a view's first-seen tokens read
        self._df: Counter = Counter()
        #: the published read form: the compacted seal, or a view of it
        #: after a write; ``None`` from a write until the next read
        self._sealed: Optional[_ReadForm] = None
        # serializes what readers build lazily — the read form itself (a
        # view, or the first compile) and a seal's contrib_flat — and
        # each compaction: batch workers and serving threads search from
        # several threads, and two of them must not both build and
        # publish
        self._seal_lock = threading.Lock()
        #: the last compacted seal, which every view reads and the next
        #: compaction folds into; ``None`` = nothing compiled yet
        self._base: Optional[_SealedPostings] = None
        #: the documents added since ``_base``, in order, each with its
        #: distinct tokens (interned) and their counts — the only
        #: per-document record, held until a compaction carries the
        #: document
        self._fresh: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        #: the writes since ``_base`` as its views read them: the added
        #: documents' postings and the removed documents' positions, an
        #: updated document in both (``None`` until the base's first
        #: write or view)
        self._delta: Optional[_Delta] = None
        #: token -> the net move of its document frequency since
        #: ``_derived`` was brought up to date (kept only while there is a
        #: base): the rows the next view re-derives are the nonzero ones
        self._moved: Counter = Counter()
        #: the base's scoring tables under the last view's statistics;
        #: ``None`` until the first view of a base
        self._derived: Optional[_Derived] = None

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
        does after analysing, for a caller that analysed the payload
        under this index's settings and hands the terms to other
        indexes too."""
        if instance_id in self._doc_length:
            raise ValueError(f"duplicate instance id: {instance_id}")
        self._sealed = None  # any write un-publishes the read form
        self._doc_length[instance_id] = len(tokens)
        self._total_length += len(tokens)
        counts = Counter(tokens)
        distinct = tuple(map(sys.intern, counts))
        record = self._fresh[instance_id] = (distinct, tuple(counts.values()))
        if self._base is not None:
            self._writes().add(instance_id, *record, len(tokens))
        self._df.update(distinct)
        self._note_moved(distinct, 1)
        self._compact_if_outgrown()

    def remove(
        self, instance_id: str, tokens: Optional[Sequence[str]] = None
    ) -> None:
        """Delete one document in O(its tokens): read off its record
        when no seal carries it yet, else off ``tokens`` — its analysed
        tokens as :meth:`add_tokens` took them, which the indexer hands
        over — or, without them, off one scan of the seal's postings.

        Statistics and vocabulary (a token the document was the last
        carrier of is dropped) are corrected before this returns; the
        postings go at the next compaction, and a view zeroes them until
        then.  Raises ``KeyError`` for an unknown id, and ``ValueError``
        for ``tokens`` of another length than the document's.
        """
        length = self._doc_length[instance_id]  # KeyError when absent
        if tokens is not None and len(tokens) != length:
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
            position = int(delta.position[
                np.searchsorted(base.by_ordinal, instance_id)
            ])
            delta.dead.append(position)
            if tokens is not None:
                distinct = set(tokens)
            else:
                rows = np.searchsorted(
                    base.tok_start, np.flatnonzero(base.doc_idx == position),
                    side="right",
                ) - 1
                distinct = [base.tokens[row] for row in rows.tolist()]
        df = self._df
        for token in distinct:
            if df[token] == 1:
                del df[token]
            else:
                df[token] -= 1
        self._note_moved(distinct, -1)
        self._sealed = None  # any write un-publishes the read form
        self._compact_if_outgrown()

    def update(self, instance_id: str, payload: str) -> None:
        """Replace one document's payload (remove + add)."""
        self.remove(instance_id)
        self.add(instance_id, payload)

    def invalidate_seal(self) -> None:
        """Un-publish the read form although no posting moved: the next
        read publishes a view of the base (and :meth:`seal` compacts).

        ``bench/replay.py``'s ``seal_ms`` calls this to time the read
        form's publication apart from any write.
        """
        self._sealed = None

    def _writes(self) -> _Delta:
        """The writes since the base (which exists), begun by the first
        of them or the first view; the caller does not hold
        ``_seal_lock``."""
        if self._delta is None:
            with self._seal_lock:
                if self._delta is None:
                    self._delta = _Delta(self._base)
        return self._delta

    def _note_moved(self, tokens: Iterable[str], step: int) -> None:
        """A write moved the document frequency of ``tokens`` by
        ``step``."""
        if self._base is not None:
            if step > 0:
                self._moved.update(tokens)
            else:
                self._moved.subtract(tokens)

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
    # the read form: the compacted seal, or a view of it
    # ------------------------------------------------------------------
    @property
    def is_sealed(self) -> bool:
        """A read form is published: False from a write until the next
        read (or :meth:`seal`) publishes one."""
        return self._sealed is not None

    def seal(self) -> "InvertedIndex":
        """Compact: fold the writes since the base into a new base, and
        publish it.

        Idempotent: a published compacted seal is kept.  Reads do not
        call this; they publish a view (:meth:`_current_seal`).  A write
        calls the fold when the writes since the base outgrow
        ``_COMPACT_SHARE`` of it.  The first seal is the fold over an
        empty base, a compile from the fresh records.  Safe under
        concurrent readers: it runs under a lock and publishes a *new*
        seal, so a second thread blocks instead of publishing a
        duplicate, and a reader still holding the previous read form
        keeps a consistent one.
        """
        sealed = self._sealed
        if sealed is not None and sealed is self._base:
            return self
        with self._seal_lock:
            if self._sealed is None or self._sealed is not self._base:
                self._publish_locked(self._fold_locked())
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
            with self._seal_lock:
                self._fold_locked()

    def _fold_locked(self) -> _SealedPostings:
        """Fold the writes since ``_base`` into its CSR arrays and make
        the result the base; caller holds ``_seal_lock``.

        Produces, array for array and byte for byte, the one layout of
        the index's documents: documents in ``_doc_length`` order (the
        base's survivors, then the fresh ones), every row in document
        order (its surviving postings, then the fresh ones), rows in
        sorted token order (emptied rows dropped, first-seen tokens
        inserted in place).  The base's arrays are only read; with no
        write since (:meth:`invalidate_seal`) they are published again.
        """
        # the base stays referenced until the new one replaces it: its
        # arrays are the only copy of its documents' postings, so a fold
        # that fails leaves the index as it was
        base, fresh = self._base, self._fresh
        dead = [] if self._delta is None else [
            position for position in self._delta.dead
            if position < len(base.doc_ids)
        ]
        if base is None:
            published = get_registry().counter("index.seal.compiled")
            base = _SealedPostings(
                [], np.empty(0), [], np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=object), {},
            )
        else:
            published = get_registry().counter("index.seal.patched")
        if not (dead or fresh):
            folded = self._new_seal(
                base.doc_ids, base.tokens, base.tok_start, base.doc_idx,
                base.tf_flat, base.ordinal, base.by_ordinal, base.tok_pos,
            )
        else:
            folded = self._fold_writes_locked(base, dead, fresh)
        self._base = folded
        self._fresh, self._delta = {}, None
        self._moved, self._derived = Counter(), None
        published.inc()
        return folded

    def _fold_writes_locked(
        self,
        base: _SealedPostings,
        dead: List[int],
        fresh: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...]]],
    ) -> _SealedPostings:
        """:meth:`_fold_locked` when something was written: ``dead``
        holds the positions of the base documents removed since."""
        if dead:
            keep_doc = np.ones(len(base.doc_ids), dtype=bool)
            keep_doc[dead] = False
            keep = keep_doc[base.doc_idx]
            # each dead posting shortens the row its position falls in
            dead_rows = np.searchsorted(
                base.tok_start, np.flatnonzero(~keep), side="right"
            ) - 1
            kept_len = np.diff(base.tok_start) - np.bincount(
                dead_rows, minlength=len(base.tokens)
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
        else:
            kept_len = np.diff(base.tok_start)
            kept_docs, kept_tf = base.doc_idx, base.tf_flat

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

        # the fresh documents' postings, document by document, as flat
        # arrays each allocated once at its final size
        lengths = np.fromiter(
            (len(distinct) for distinct, _ in records),
            dtype=np.int64, count=len(records),
        )
        total = int(lengths.sum())
        add_rows = np.fromiter(
            map(tok_pos.__getitem__, chain.from_iterable(
                distinct for distinct, _ in records
            )),
            dtype=np.int64, count=total,
        )
        add_tf = np.fromiter(
            chain.from_iterable(counts for _, counts in records),
            dtype=np.float64, count=total,
        )
        first_fresh = len(base.doc_ids) - len(dead)
        add_docs = np.repeat(
            np.arange(first_fresh, first_fresh + len(records)), lengths
        )
        del records

        # row lengths: the surviving base rows keep their order around
        # the first-seen rows, then every row grows by its additions
        kept_end = np.zeros(len(tokens), dtype=np.int64)
        from_base = np.ones(len(tokens), dtype=bool)
        from_base[[tok_pos[t] for t in first_seen]] = False
        kept_end[from_base] = kept_len[alive]
        np.cumsum(kept_end, out=kept_end)
        tok_start = np.zeros(len(tokens) + 1, dtype=np.int64)
        tok_start[1:] = kept_end + np.cumsum(
            np.bincount(add_rows, minlength=len(tokens))
        )
        # an addition lands behind the surviving postings of its row and
        # of every row before it, and behind the additions before it
        order = np.argsort(add_rows, kind="stable")
        at = kept_end[add_rows[order]] + np.arange(order.size)
        survivor = np.ones(int(tok_start[-1]), dtype=bool)
        survivor[at] = False
        doc_idx = np.empty(survivor.size, dtype=np.int64)
        doc_idx[survivor] = kept_docs
        doc_idx[at] = add_docs[order]
        del kept_docs, add_docs
        tf_flat = np.empty(survivor.size, dtype=np.float64)
        tf_flat[survivor] = kept_tf
        tf_flat[at] = add_tf[order]
        del kept_tf, add_tf

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
        return self._new_seal(
            doc_ids, tokens, tok_start, doc_idx, tf_flat, ordinal,
            by_ordinal, tok_pos,
        )

    def _new_seal(
        self,
        doc_ids: List[str],
        tokens: List[str],
        tok_start: "np.ndarray",
        doc_idx: "np.ndarray",
        tf_flat: "np.ndarray",
        ordinal: "np.ndarray",
        by_ordinal: "np.ndarray",
        tok_pos: Optional[Dict[str, int]] = None,
    ) -> _SealedPostings:
        """A seal of these postings with its scoring tables derived from
        the integer statistics: the reference scorer's scalar arithmetic
        (same operations, same order, same doubles)."""
        lengths = np.fromiter(
            self._doc_length.values(),
            dtype=np.float64, count=len(self._doc_length),
        )
        return _SealedPostings(
            doc_ids, self._norm(lengths, self.avg_doc_length), tokens,
            tok_start, doc_idx, tf_flat,
            # a seal's df is its row lengths
            _idf_table(len(self._doc_length), np.diff(tok_start)),
            ordinal, by_ordinal, tok_pos,
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
        docs: "np.ndarray",
    ) -> "np.ndarray":
        """Per-posting BM25 contribution at query term frequency 1 —
        ``idf * (tf * (k1 + 1)) / (tf + norm[doc])``, elementwise in the
        reference scorer's operation order (the denominator's one
        addition commutes exactly).  ``idf`` is a per-posting array of
        the caller's, written in place; ``norm`` is per document and
        ``docs`` per posting.  Two stream-length arrays are alive at
        once, the result and one temporary."""
        idf *= tf * (self.k1 + 1)
        denominator = norm[docs]
        denominator += tf
        idf /= denominator
        return idf

    def _publish_locked(self, sealed: _ReadForm) -> None:
        """Publish one read form; caller holds ``_seal_lock``."""
        self._sealed = sealed
        _sanitizer.note_write(self, "_sealed", lock=self._seal_lock)

    def _view_locked(self) -> _View:
        """The base, the writes since it and the statistics now as one
        read form; caller holds ``_seal_lock``.  Costs the rows whose
        statistics moved (every row, in one elementwise pass, when the
        document count or the average length moved), one pass over the
        delta's postings and one copy of the base's contribution table:
        each write already merged its postings and ranked its id.

        First the base drops what its own reads built: only views read
        it from here on, and a reader that took it earlier scores from
        its own reference (:meth:`_score_matrix`)."""
        base, delta = self._base, self._delta
        base.contrib_flat, base.spans = None, {}
        num_docs = len(self._doc_length)
        avg_len = self.avg_doc_length
        derived = self._derive_locked(base, num_docs, avg_len)
        norm = self._norm(np.array(delta.lengths, dtype=np.float64), avg_len)
        cells = delta.cells
        idf = np.concatenate((derived.idf, [
            _bm25_idf(num_docs, self._df[token])
            for token in delta.first_seen
        ]))
        view = _View(
            base, list(delta.ids), delta.ordinal,
            np.array(delta.dead, dtype=np.int64) if delta.dead else None,
            derived.contrib.copy(), dict(delta.first_seen), delta.start,
            cells, self._contrib(
                idf[delta.keys], delta.tf, norm, cells - len(base.doc_ids)
            ),
        )
        _sanitizer.note_write(view, "contrib_flat", lock=self._seal_lock)
        get_registry().counter("index.seal.viewed").inc()
        return view

    def _derive_locked(
        self,
        base: _SealedPostings,
        num_docs: int,
        avg_len: float,
    ) -> _Derived:
        """The base's scoring tables under the statistics now, brought up
        to date from the last view's by the net df moves since: the rows
        of the tokens whose df moved re-derived, or every row in one
        elementwise pass when the document count or the average length
        moved, or when no view of this base was derived yet; caller
        holds ``_seal_lock``."""
        derived, moved = self._derived, self._moved
        tokens = [
            token for token, step in moved.items()
            if step and token in base.tok_pos
        ]
        rows = np.fromiter(
            map(base.tok_pos.__getitem__, tokens),
            dtype=np.int64, count=len(tokens),
        )
        steps = np.fromiter(
            map(moved.__getitem__, tokens), dtype=np.int64, count=len(tokens)
        )
        if derived is None:  # the df now, and the base documents' lengths
            df = np.diff(base.tok_start)  # the row lengths: moved since
            df[rows] += steps
            lengths = np.fromiter(
                map(self._doc_length.get, base.doc_ids, repeat(0)),
                dtype=np.float64, count=len(base.doc_ids),
            )
        elif derived.num_docs != num_docs or derived.avg_len != avg_len:
            df, lengths = derived.df.copy(), derived.lengths
            df[rows] += steps
        else:
            lengths = None
        if lengths is not None:
            idf = _idf_table(num_docs, df)
            norm = self._norm(lengths, avg_len)
            derived = self._derived = _Derived(
                self._contrib(
                    np.repeat(idf, np.diff(base.tok_start)), base.tf_flat,
                    norm, base.doc_idx,
                ),
                df, idf, lengths, norm, num_docs, avg_len,
            )
        elif rows.size:
            df = derived.df[rows] + steps
            starts = base.tok_start[rows]
            lens = base.tok_start[rows + 1] - starts
            at = np.repeat(starts - np.cumsum(lens) + lens, lens)
            at += np.arange(at.size)
            idf = np.array([_bm25_idf(num_docs, n) for n in df.tolist()])
            derived.contrib[at] = self._contrib(
                np.repeat(idf, lens), base.tf_flat[at], derived.norm,
                base.doc_idx[at],
            )
            # df last: a row whose df is stale is re-derived again
            derived.idf[rows] = idf
            derived.df[rows] = df
        self._moved = Counter()
        return derived

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
        self, sealed: Optional[_ReadForm], plan: "MatrixPlan", k: int
    ) -> List[Ranking]:
        """Rank every query of a plan against one seal: per query, the
        ids and scores of its top k, the ids read off that seal.

        The one kernel, a query a pass.  The query's stream is its known
        tokens' blocks (:meth:`_span`) laid end to end in sorted token
        order — the canonical accumulation order — with each block of
        :meth:`_contrib_flat` times the token's query count when that is
        not 1.  One ``np.bincount`` folds the stream into the query's
        score row, adding in stream order, so every cell is the
        reference scorer's sum bit for bit (``contrib * qc`` is the same
        product whichever operand comes first).  A query this seal knows
        no token of matches nothing and makes no pass."""
        if sealed is None or not sealed.num_docs or k <= 0:
            return [([], []) for _ in plan.terms]
        num_docs = sealed.num_docs
        contrib_flat = self._contrib_flat(sealed)  # the blocks slice it
        with self._seal_lock:  # its span cache, unless it was dropped
            spans = (
                sealed.spans if sealed.contrib_flat is contrib_flat else {}
            )
        dead = sealed.dead
        ranked: List[Ranking] = []
        postings = 0
        for terms in plan.terms:
            cells, values = [], []
            for token, query_count in terms:
                span = spans.get(token) or self._span(
                    sealed, token, contrib_flat, spans
                )
                if span is not None:
                    cells.append(span[0])
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
                stream, weights=np.concatenate(values), minlength=num_docs
            )
            if dead is not None:  # a view: its removed documents' cells
                scores[dead] = 0.0
            ranked.append(_rank_row(sealed, scores, k))
        get_registry().counter("index.matrix.stream_postings").inc(postings)
        return ranked

    def _span(
        self,
        sealed: _ReadForm,
        token: str,
        contrib_flat: "np.ndarray",
        spans: Dict[str, Tuple["np.ndarray", "np.ndarray"]],
    ) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """``token``'s block of the read form (its ``block`` of
        ``contrib_flat``), cached in ``spans`` — ``sealed.spans``, or
        the read's own when the seal dropped its cache — by the token's
        first read of it; ``None`` for a token the read form does not
        know, which is not cached."""
        block = sealed.block(token, contrib_flat)
        if block is None:
            return None
        with self._seal_lock:
            span = spans.get(token)
            if span is None:
                span = spans[token] = block
                _sanitizer.note_write(sealed, "spans", lock=self._seal_lock)
        return span

    def _contrib_flat(self, sealed: _ReadForm) -> "np.ndarray":
        """Per-posting BM25 contribution at query term frequency 1 over
        the read form's base postings (:meth:`_contrib`).  A view
        carries its own from its publication; a seal's is built by its
        first read, two stream-length arrays alive at once, and cached
        on it while it is published.  A reader still holding a seal that
        a view superseded gets one built for it alone, so the seal keeps
        nothing."""
        contrib_flat = sealed.contrib_flat
        if contrib_flat is None:
            with self._seal_lock:
                contrib_flat = sealed.contrib_flat
                if contrib_flat is None:
                    contrib_flat = self._contrib(
                        np.repeat(sealed.idf_flat, np.diff(sealed.tok_start)),
                        sealed.tf_flat, sealed.norm, sealed.doc_idx,
                    )
                    if sealed is self._sealed:
                        sealed.contrib_flat = contrib_flat
                        _sanitizer.note_write(
                            sealed, "contrib_flat", lock=self._seal_lock
                        )
        return contrib_flat

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _current_seal(self) -> Optional[_ReadForm]:
        """The read form one call reads from start to end, published
        first when a write un-published it: a view of the base, or the
        compile when there is no base yet; ``None`` = the index is
        empty.  Every
        read takes it once and passes it down, so a call never mixes two
        generations' arrays."""
        sealed = self._sealed
        if sealed is None and self._doc_length:
            if self._base is not None:
                self._writes()  # a view reads them, none made or not
            with self._seal_lock:
                sealed = self._sealed
                if sealed is None:
                    if self._base is None:
                        sealed = self._fold_locked()
                    else:
                        sealed = self._view_locked()
                    self._publish_locked(sealed)
        return sealed

    def rank_planned(
        self, plan: "MatrixPlan", k: int = 10
    ) -> List[Ranking]:
        """Rank a pre-analyzed plan (:meth:`plan_matrix`) against this
        index, each ranking's ids read off the seal that ranked it."""
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
