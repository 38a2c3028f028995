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
analysed tokens are kept only until a seal carries it.  A read brings
the seal up to date lazily and any write un-publishes it, so callers
never see a stale ranking; an index with no seal is an empty index.

Every read is a batch — ``search(q)`` is ``search_batch([q])[0]`` — and
a batch is plan -> rank -> ids (``rank_batch``; ``search_batch`` builds
hits from its columns): :meth:`InvertedIndex.plan_matrix` analyzes the
queries once, ``_score_matrix`` ranks the plan against one seal, and the
ranking reads its ids off that seal.  One kernel scores every plan, a
query a pass: the query's known tokens' blocks of ``doc_idx`` and of
``contrib_flat`` (a per-posting table built by the first read of a
seal) are concatenated into one stream, and a single ``np.bincount``
folds the stream into the query's score row.  A token's two blocks are
views cached on the seal by the token's first read there.

Token contributions accumulate in **sorted token order** in the kernel
(``bincount`` adds in stream order) and in the tests' reference scorer
over token -> ``{id: tf}`` postings, so both replay the same float64
sums bit for bit; one selection, ``_rank_row``, then takes the row's top
k under the ``(-score, id)`` total order, read as ``(-score, ordinal)``
off the seal's ordinal table (:func:`~repro.index.base.select_ranked`).

Two extensions support the sharded deployment
(:mod:`repro.index.shard`):

* **pluggable corpus statistics** — BM25's idf and length
  normalization depend on corpus-wide aggregates (document count,
  total token length, per-token document frequency).  By default an
  index scores against its own postings; assigning
  :attr:`InvertedIndex.corpus_stats` makes it score against an
  external :class:`CorpusStats` view instead, which is how N shards
  of one logical index all rank with *global* statistics and stay
  score-identical to the unsharded build;
* **live mutation** — :meth:`add` (analyse, then :meth:`add_tokens`)
  records the document's distinct tokens and counts until a seal
  carries it; :meth:`remove` corrects the statistics at once, reading
  a sealed document's tokens off the seal's postings.  :meth:`update`
  is remove + add, which moves the document to the end of the document
  order.  A write un-publishes the seal but keeps it as the *base* the
  next :meth:`seal` patches: the net removals and additions since the
  base are folded into its CSR arrays in a fixed number of numpy
  passes, the base's ordinal table is carried across, and ``norm`` /
  ``idf_flat`` are re-derived from the integer statistics (a write
  moves all of ``norm`` only when it moves the document count or the
  total length).  The first seal is the same fold over an empty base,
  and a patched seal is byte-identical to a fresh index's over the
  surviving payloads (``tests/test_index_patch.py``).
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter
from itertools import chain, compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, ordinals_of, select_ranked,
)
from repro.obs.metrics import get_registry
from repro.text import analyze


def _bm25_idf(num_docs: int, df: int) -> float:
    """BM25+ style idf, floored at a small positive value."""
    if num_docs == 0:
        return 0.0
    raw = math.log((num_docs - df + 0.5) / (df + 0.5) + 1.0)
    return max(raw, 1e-6)


def _fold_ordinals(
    base: "_SealedPostings",
    keep_doc: Optional["np.ndarray"],
    fresh_ids: List[str],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """The ordinal table and the sorted ids of a fold's seal, carried
    from the base's: its survivors keep their order, closed up over the
    dead (``keep_doc`` is ``None`` when none died), and the fresh ids
    are sorted into it.  Equal, element for element, to
    :func:`~repro.index.base.ordinals_of` the folded document order (the
    survivors, then ``fresh_ids``) and to those ids sorted, in numpy
    passes over the base's arrays instead of a sort of every id.

    When the writes were updates alone — the dead ids are the fresh ones
    — the sorted ids are the base's and only the rewritten documents'
    places move: two passes, where the closing up and sorting in would
    copy every id twice (most folds of a live lake: an updated table or
    tuple keeps its id)."""
    ordinal, by_ordinal = base.ordinal, base.by_ordinal
    if keep_doc is not None:
        gone = np.flatnonzero(~keep_doc)
        rank_of = dict(zip(
            [base.doc_ids[i] for i in gone.tolist()], ordinal[gone].tolist()
        ))
        if rank_of.keys() == set(fresh_ids):
            return np.concatenate((
                ordinal[keep_doc],
                np.array([rank_of[i] for i in fresh_ids], dtype=np.int64),
            )), by_ordinal
        dead = np.zeros(len(by_ordinal), dtype=bool)
        dead[ordinal[gone]] = True
        ordinal = ordinal[keep_doc]
        ordinal -= np.cumsum(dead)[ordinal]
        by_ordinal = by_ordinal[~dead]
    if fresh_ids:
        fresh_rank, added = ordinals_of(fresh_ids)
        # below[j]: the survivors sorting before the j-th fresh id; a
        # survivor of rank r moves back past every fresh id with
        # below <= r, a fresh id past the fresh ones before it
        below = np.searchsorted(by_ordinal, added)
        ordinal = np.concatenate((
            ordinal + np.searchsorted(below, ordinal, side="right"),
            below[fresh_rank] + fresh_rank,
        ))
        by_ordinal = np.insert(by_ordinal, below, added)
    return ordinal, by_ordinal


def _rank_row(
    sealed: "_SealedPostings", scores: "np.ndarray", k: int
) -> Ranking:
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
    return select_ranked(
        sealed.ordinal, sealed.by_ordinal, scores[candidates], candidates, k
    )


class CorpusStats:
    """Corpus-wide aggregates BM25 scoring depends on.

    The base implementation mirrors a single index's own postings; the
    sharded layer substitutes an aggregating view so every shard scores
    with the statistics of the *whole* logical corpus.  All three
    quantities are integers, so aggregation across shards reproduces
    the unsharded values exactly (no float summation-order drift).
    """

    def __init__(self, index: "InvertedIndex") -> None:
        self._index = index

    def doc_count(self) -> int:
        """Number of documents."""
        return len(self._index._doc_length)

    def total_token_length(self) -> int:
        """Sum of document lengths (for average length)."""
        return self._index._total_length

    def df(self, token: str) -> int:
        """Number of documents containing ``token``."""
        return self._index.local_df(token)


class _SealedPostings:
    """Compiled, read-only view of one index generation.

    Storage is four flat contiguous arrays in CSR layout — ``tokens``
    (sorted), ``tok_start`` offsets, concatenated ``doc_idx`` /
    ``tf_flat`` postings — plus per-doc ``norm`` and per-token
    ``idf_flat``, and the document order's ``ordinal`` table (what a
    ranking breaks ties by) with ``by_ordinal``, the ids in sorted
    order, from which the next fold carries it.  ``contrib_flat`` and
    ``spans`` are derived data its reads fill.
    """

    __slots__ = (
        "doc_ids", "norm",
        "tokens", "tok_start", "doc_idx", "tf_flat", "idf_flat",
        "ordinal", "by_ordinal", "tok_pos", "contrib_flat", "spans",
        # lets the race sanitizer tell this seal from a collected one
        # whose address it reuses
        "__weakref__",
    )

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
        self.norm = norm            # per-doc k1 * (1 - b + b * len/avg)
        self.tokens = tokens        # sorted vocabulary
        self.tok_start = tok_start  # CSR offsets, len(tokens) + 1
        self.doc_idx = doc_idx      # concatenated doc-index postings
        self.tf_flat = tf_flat      # concatenated term frequencies
        self.idf_flat = idf_flat    # per-token BM25+ idf, token order
        #: ``ordinal[i]``: the rank of ``doc_ids[i]`` in sorted id order
        #: (:func:`~repro.index.base.ordinals_of`), and ``by_ordinal``
        #: the ids in that order — derived data, carried through a fold
        #: (:func:`_fold_ordinals`) because sorting every id again at
        #: each seal would cost a write-heavy index more than its reads
        self.ordinal = ordinal
        self.by_ordinal = by_ordinal
        #: token -> position in the sorted vocabulary (CSR row index);
        #: a patch has already built it to place its additions
        self.tok_pos: Dict[str, int] = (
            tok_pos if tok_pos is not None
            else dict(zip(tokens, range(len(tokens))))
        )
        #: per-posting BM25 contribution for qtf = 1, built by the
        #: first read of this seal (derived data, not carried across a
        #: fold: a fold moves postings and re-derives ``norm`` and
        #: ``idf_flat``; a write changes every value only when it moves
        #: the document count or the total length, which an update of
        #: the same length does not)
        self.contrib_flat: Optional["np.ndarray"] = None
        #: token -> its CSR blocks of ``doc_idx`` and ``contrib_flat``,
        #: two views filled by the token's first read of this seal
        #: (:meth:`InvertedIndex._span`); a write publishes a new seal,
        #: and with it an empty cache
        self.spans: Dict[str, Tuple["np.ndarray", "np.ndarray"]] = {}


class MatrixPlan(NamedTuple):
    """A campaign of queries analyzed once.

    Shard-independent: ``terms`` holds, per query, its sorted
    ``(token, count)`` list.  Built by :meth:`InvertedIndex.plan_matrix`,
    consumed by :meth:`InvertedIndex.rank_planned` on every shard.
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
        #: what local_df(), idf() and the sharded statistics read
        self._df: Counter = Counter()
        self._sealed: Optional[_SealedPostings] = None
        # serializes what readers build lazily — the seal itself
        # (compile or patch, in seal()) and a seal's contrib_flat: the
        # scatter paths and the batch engine search from several
        # threads, and two of them must not both build and publish
        self._seal_lock = threading.Lock()
        #: the last published seal, kept across writes so the next
        #: seal() patches it; ``None`` = nothing published yet, compile
        self._base: Optional[_SealedPostings] = None
        #: the net writes since ``_base``: its documents removed since,
        #: and the documents added since, in order, each with its
        #: distinct tokens (interned) and their counts — the only
        #: per-document record, held until a seal carries the document.
        #: An updated document is in both: its old version dead, its new
        #: one fresh.  Reset at each publication
        self._dead: Set[str] = set()
        self._fresh: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        #: statistics provider BM25 scores against; ``None`` = this
        #: index's own postings.  The sharded layer assigns a global
        #: aggregating view here.
        self.corpus_stats: Optional[CorpusStats] = None

    def _stats(self) -> CorpusStats:
        return self.corpus_stats or CorpusStats(self)

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
        self._sealed = None  # any write un-publishes the compiled form
        self._doc_length[instance_id] = len(tokens)
        self._total_length += len(tokens)
        counts = Counter(tokens)
        distinct = tuple(map(sys.intern, counts))
        self._fresh[instance_id] = (distinct, tuple(counts.values()))
        self._df.update(distinct)

    def remove(self, instance_id: str) -> None:
        """Delete one document, in O(its distinct tokens) when no seal
        carries it yet and one scan of the seal's postings when one
        does.

        Statistics and vocabulary (a token the document was the last
        carrier of is dropped) are corrected before this returns; the
        postings go at the next seal.  Raises ``KeyError`` for an
        unknown id.
        """
        length = self._doc_length.pop(instance_id)  # KeyError when absent
        self._total_length -= length
        record = self._fresh.pop(instance_id, None)
        if record is None:  # the base carries it: read its row off it
            base = self._base
            position = base.doc_ids.index(instance_id)
            rows = np.searchsorted(
                base.tok_start, np.flatnonzero(base.doc_idx == position),
                side="right",
            ) - 1
            distinct = [base.tokens[row] for row in rows.tolist()]
            self._dead.add(instance_id)
        else:
            distinct = record[0]
        df = self._df
        for token in distinct:
            if df[token] == 1:
                del df[token]
            else:
                df[token] -= 1
        self._sealed = None  # any write un-publishes the compiled form

    def update(self, instance_id: str, payload: str) -> None:
        """Replace one document's payload (remove + add)."""
        self.remove(instance_id)
        self.add(instance_id, payload)

    def invalidate_seal(self) -> None:
        """Un-publish the read form although no posting moved: the next
        seal re-derives ``norm`` / ``idf_flat`` from the integer
        statistics (and folds in any writes since the base).

        The sharded layer calls this on *every* shard when *any* shard
        mutates: global corpus statistics changed, so every shard's
        idf/norm tables are stale even though its own postings did not
        move.
        """
        self._sealed = None

    def __len__(self) -> int:
        return len(self._doc_length)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._doc_length

    def local_df(self, token: str) -> int:
        """Document frequency of ``token`` in *this* index's documents."""
        return self._df[token]

    @property
    def avg_doc_length(self) -> float:
        stats = self._stats()
        num_docs = stats.doc_count()
        if not num_docs:
            return 0.0
        return stats.total_token_length() / num_docs

    def idf(self, token: str) -> float:
        """BM25+ style idf, floored at a small positive value."""
        stats = self._stats()
        return _bm25_idf(stats.doc_count(), stats.df(token))

    # ------------------------------------------------------------------
    # sealed (compiled) form
    # ------------------------------------------------------------------
    @property
    def is_sealed(self) -> bool:
        return self._sealed is not None

    def seal(self) -> "InvertedIndex":
        """Bring the flat vectorized read form up to date.

        Idempotent; every read calls it lazily.  The next write
        un-publishes the compiled form.  One fold does the work: it
        patches the last published seal (the *base*) with the writes
        since, and the first seal is that fold over an empty base — a
        compile from the fresh records.  Safe under concurrent readers:
        it runs under a lock and publishes a *new* seal, so a second
        searching thread blocks instead of publishing a duplicate, and a
        reader still holding the previous seal keeps a consistent one.
        """
        if self._sealed is not None:
            return self
        with self._seal_lock:
            if self._sealed is None:
                self._fold_locked()
        return self

    def _fold_locked(self) -> None:
        """Fold the writes since ``_base`` into its CSR arrays; caller
        holds ``_seal_lock``.

        Produces, array for array and byte for byte, the one layout of
        the index's documents: documents in ``_doc_length`` order (the
        base's survivors, then the fresh ones), every row in document
        order (its surviving postings, then the fresh ones), rows in
        sorted token order (emptied rows dropped, first-seen tokens
        inserted in place).  The base's arrays are only read; with no
        write since (:meth:`invalidate_seal`) they are published again
        under new statistics.
        """
        # the base stays referenced until the new seal is published: its
        # arrays are the only copy of its documents' postings, so a fold
        # that fails leaves the index as it was
        base, dead, fresh = self._base, self._dead, self._fresh
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
            self._publish_locked(
                base.doc_ids, base.tokens, base.tok_start, base.doc_idx,
                base.tf_flat, base.ordinal, base.by_ordinal, base.tok_pos,
            )
            published.inc()
            return
        keep_doc = None
        if dead:
            keep_doc = ~np.fromiter(
                map(dead.__contains__, base.doc_ids),
                dtype=bool, count=len(base.doc_ids),
            )
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
        ordinal, by_ordinal = _fold_ordinals(base, keep_doc, list(fresh))
        self._publish_locked(
            list(self._doc_length), tokens, tok_start, doc_idx, tf_flat,
            ordinal, by_ordinal, tok_pos,
        )
        published.inc()

    def _scoring_tables(
        self, tokens: List[str], tok_start: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(norm, idf_flat)`` from the integer statistics — the one
        derivation every seal carries, replaying the reference scorer's
        scalar arithmetic (same operations, same order, same doubles).
        """
        lengths = np.fromiter(
            self._doc_length.values(),
            dtype=np.float64, count=len(self._doc_length),
        )
        avg_len = self.avg_doc_length
        if avg_len:
            # exactly the reference scorer's denominator, hoisted per doc
            norm = self.k1 * (1 - self.b + self.b * lengths / avg_len)
        else:
            norm = np.full(lengths.size, self.k1 * 1.0)
        stats = self._stats()
        if self.corpus_stats is None:
            df = np.diff(tok_start)  # own postings: df is the row length
        else:
            df = np.fromiter(
                map(stats.df, tokens), dtype=np.int64, count=len(tokens)
            )
        # math.log once per distinct df (a few hundred values), so each
        # idf is the very float idf() returns
        distinct, inverse = np.unique(df, return_inverse=True)
        num_docs = stats.doc_count()
        idf_of = np.array(
            [_bm25_idf(num_docs, n) for n in distinct.tolist()],
            dtype=np.float64,
        )
        return norm, idf_of[inverse]

    def _publish_locked(
        self,
        doc_ids: List[str],
        tokens: List[str],
        tok_start: "np.ndarray",
        doc_idx: "np.ndarray",
        tf_flat: "np.ndarray",
        ordinal: "np.ndarray",
        by_ordinal: "np.ndarray",
        tok_pos: Optional[Dict[str, int]] = None,
    ) -> None:
        """Publish one new seal and make it the base of the writes to
        come; caller holds ``_seal_lock``."""
        norm, idf_flat = self._scoring_tables(tokens, tok_start)
        self._dead = set()
        self._fresh = {}
        self._base = self._sealed = _SealedPostings(
            doc_ids, norm, tokens, tok_start, doc_idx, tf_flat, idf_flat,
            ordinal, by_ordinal, tok_pos,
        )
        _sanitizer.note_write(self, "_sealed", lock=self._seal_lock)

    # ------------------------------------------------------------------
    # scoring a plan: one query a pass
    # ------------------------------------------------------------------
    def plan_matrix(self, queries: Sequence[str]) -> "MatrixPlan":
        """Analyze a campaign once into a shard-independent plan.

        The plan depends only on the queries and the analyzer settings,
        never on any shard's postings.  A sharded index therefore plans
        once and ranks the same plan against every shard
        (:meth:`rank_planned`)."""
        return MatrixPlan(
            [sorted(Counter(self._analyze(q)).items()) for q in queries]
        )

    def _score_matrix(
        self, sealed: Optional[_SealedPostings], plan: "MatrixPlan", k: int
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
        if sealed is None or not sealed.doc_ids or k <= 0:
            return [([], []) for _ in plan.terms]
        num_docs = len(sealed.doc_ids)
        self._contrib_flat(sealed)  # the blocks are views of it
        spans = sealed.spans
        ranked: List[Ranking] = []
        postings = 0
        for terms in plan.terms:
            cells, values = [], []
            for token, query_count in terms:
                span = spans.get(token) or self._span(sealed, token)
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
            ranked.append(_rank_row(sealed, np.bincount(
                stream, weights=np.concatenate(values), minlength=num_docs
            ), k))
        get_registry().counter("index.matrix.stream_postings").inc(postings)
        return ranked

    def _span(
        self, sealed: _SealedPostings, token: str
    ) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
        """``token``'s CSR blocks of the seal's ``doc_idx`` and
        ``contrib_flat`` (built already), cached in ``sealed.spans`` by
        the token's first read of the seal; ``None`` for a token the
        seal does not know, which is not cached."""
        position = sealed.tok_pos.get(token)
        if position is None:
            return None
        with self._seal_lock:
            span = sealed.spans.get(token)
            if span is None:
                start, end = sealed.tok_start[position:position + 2].tolist()
                span = sealed.spans[token] = (
                    sealed.doc_idx[start:end], sealed.contrib_flat[start:end]
                )
                _sanitizer.note_write(sealed, "spans", lock=self._seal_lock)
        return span

    def _contrib_flat(self, sealed: _SealedPostings) -> "np.ndarray":
        """Per-posting BM25 contribution at query term frequency 1 —
        ``idf * (tf * (k1 + 1)) / (tf + norm[doc])`` over the whole CSR
        layout, elementwise in the reference scorer's operation order (the
        denominator's one addition commutes exactly).  Built by the
        first read of a seal, in three stream-length arrays, and cached
        on it."""
        if sealed.contrib_flat is None:
            with self._seal_lock:
                if sealed.contrib_flat is None:
                    table = np.repeat(
                        sealed.idf_flat, np.diff(sealed.tok_start)
                    )
                    table *= sealed.tf_flat * (self.k1 + 1)
                    denominator = sealed.norm[sealed.doc_idx]
                    denominator += sealed.tf_flat
                    table /= denominator
                    sealed.contrib_flat = table
                    _sanitizer.note_write(
                        sealed, "contrib_flat", lock=self._seal_lock
                    )
        return sealed.contrib_flat

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _current_seal(self) -> Optional[_SealedPostings]:
        """The seal one call reads from start to end, brought up to
        date first; ``None`` = the index is empty.  Every read takes it
        once and passes it down, so a call never mixes two generations'
        arrays."""
        sealed = self._sealed
        if sealed is None and self._doc_length:
            sealed = self.seal()._sealed
        return sealed

    def rank_planned(
        self, plan: "MatrixPlan", k: int = 10
    ) -> List[Ranking]:
        """Rank a pre-analyzed plan against this index, each ranking's
        ids read off the seal that ranked it.

        The shard seam: a sharded index plans once (:meth:`plan_matrix`)
        and calls this on every shard."""
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
