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
ranking reads its ids off that seal.  Both kernels that fill the
queries x documents score matrix read ``contrib_flat``, a per-posting
table built by the first read of a seal, and ``_score_matrix`` is the
one place that chooses between them, by the number of queries in the
plan:

* **one query**: the per-token kernel adds a token's block of the table
  at a time into a single row;
* **otherwise**: the tiled matrix kernel lays a tile of consecutive
  queries' postings out as one flat stream, query by query and token by
  token, and a single ``np.bincount`` folds the stream into the tile's
  score matrix; the tile size (:data:`_TILE_BUDGET`) only bounds how
  much memory one pass touches.

Token contributions accumulate in **sorted token order** in both kernels
(``bincount`` adds in stream order and a cell belongs to one query) and
in the tests' reference scorer over token -> ``{id: tf}`` postings, so
all three replay the same float64 sums bit for bit; one selection,
``_rank_matrix``, then takes every row's top k under the ``(-score,
id)`` total order.

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
* **live mutation** — :meth:`add` records the document's distinct
  tokens and counts until a seal carries it; :meth:`remove` corrects
  the statistics at once, reading a sealed document's tokens off the
  seal's postings.  :meth:`update` is remove + add, which moves the
  document to the end of the document order.  A write un-publishes the
  seal but keeps it as the *base* the next :meth:`seal` patches: the
  net removals and additions since the base are folded into its CSR
  arrays in a fixed number of numpy passes, and ``norm`` / ``idf_flat``
  — which every write moves — are re-derived from the integer
  statistics.  The first seal is the same fold over an empty base, and
  a patched seal is byte-identical to a fresh index's over the
  surviving payloads (``tests/test_index_patch.py``).
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_right
from collections import Counter
from itertools import chain, compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of,
)
from repro.obs.metrics import get_registry
from repro.text import analyze


#: Most elements — postings in the stream plus cells in the score matrix
#: — one tile of the query-matrix kernel may hold.  Every temporary of a
#: tile is one of those two lengths, so this bounds the kernel's working
#: set whatever the campaign size.  Chosen from the sweep in
#: docs/performance.md ("The query-matrix kernel"): from 48k to 96k a
#: warm 50-query prefill inside a campaign is at its fastest and takes
#: no page faults; from 128k up the allocator returns the temporaries to
#: the OS after every call and maps them in again, and at the untiled
#: size a query costs 2.5 times as much.
_TILE_BUDGET = 48_000


def _bm25_idf(num_docs: int, df: int) -> float:
    """BM25+ style idf, floored at a small positive value."""
    if num_docs == 0:
        return 0.0
    raw = math.log((num_docs - df + 0.5) / (df + 0.5) + 1.0)
    return max(raw, 1e-6)


#: one query's ranking: positions in the seal's document order, and
#: their scores, as two columns
Ranked = Tuple[List[int], List[float]]


def _order_candidates(
    doc_ids: Sequence[str],
    scores: "np.ndarray",
    candidates: "np.ndarray",
    k: int,
) -> Ranked:
    """The first ``k`` of ``candidates`` (document indexes into
    ``doc_ids``; ``scores[j]`` is the score of ``candidates[j]``) under
    the ``(-score, id)`` total order, as :data:`Ranked` columns.

    The one ordering every selection ends in.  It reads the arrays
    once, as lists, and sorts plain ``(-score, id, index)`` tuples: ids
    are unique, so the index is never compared, and a float's negation
    is exact both ways."""
    indexes = candidates.tolist()
    ordered = sorted(
        zip((-scores).tolist(), [doc_ids[i] for i in indexes], indexes)
    )[:k]
    return (
        [i for _, _, i in ordered], [-negated for negated, _, _ in ordered]
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
    ``idf_flat``.
    """

    __slots__ = (
        "doc_ids", "norm",
        "tokens", "tok_start", "doc_idx", "tf_flat", "idf_flat",
        "tok_pos", "contrib_flat",
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
        tok_pos: Optional[Dict[str, int]] = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.norm = norm            # per-doc k1 * (1 - b + b * len/avg)
        self.tokens = tokens        # sorted vocabulary
        self.tok_start = tok_start  # CSR offsets, len(tokens) + 1
        self.doc_idx = doc_idx      # concatenated doc-index postings
        self.tf_flat = tf_flat      # concatenated term frequencies
        self.idf_flat = idf_flat    # per-token BM25+ idf, token order
        #: token -> position in the sorted vocabulary (CSR row index);
        #: a patch has already built it to place its additions
        self.tok_pos: Dict[str, int] = (
            tok_pos if tok_pos is not None
            else dict(zip(tokens, range(len(tokens))))
        )
        #: per-posting BM25 contribution for qtf = 1, built by the
        #: first read of this seal (derived data, not carried across a
        #: patch — every write moves ``norm``, so every value changes)
        self.contrib_flat: Optional["np.ndarray"] = None


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
        if instance_id in self._doc_length:
            raise ValueError(f"duplicate instance id: {instance_id}")
        tokens = self._analyze(payload)
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
                np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), {},
            )
        else:
            published = get_registry().counter("index.seal.patched")
        if not (dead or fresh):
            self._publish_locked(
                base.doc_ids, base.tokens, base.tok_start, base.doc_idx,
                base.tf_flat, base.tok_pos,
            )
            published.inc()
            return
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
            del keep, keep_doc
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
        self._publish_locked(
            list(self._doc_length), tokens, tok_start, doc_idx, tf_flat,
            tok_pos,
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
        tok_pos: Optional[Dict[str, int]] = None,
    ) -> None:
        """Publish one new seal and make it the base of the writes to
        come; caller holds ``_seal_lock``."""
        norm, idf_flat = self._scoring_tables(tokens, tok_start)
        self._dead = set()
        self._fresh = {}
        self._base = self._sealed = _SealedPostings(
            doc_ids, norm, tokens, tok_start, doc_idx, tf_flat, idf_flat,
            tok_pos,
        )
        _sanitizer.note_write(self, "_sealed", lock=self._seal_lock)

    # ------------------------------------------------------------------
    # scoring a plan: the per-token kernel and the tiled matrix kernel
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

    def _score_tokens(
        self, sealed: _SealedPostings, terms: List[Tuple[str, int]]
    ) -> "np.ndarray":
        """One query's scores as a one-row matrix, a token at a time —
        the per-token kernel: each known token adds its CSR block of
        :meth:`_contrib_flat` times its query count into the row.
        ``terms`` arrive in sorted token order: the canonical
        accumulation order shared with the reference scorer and the tiled
        kernel, so all three produce identical float64 sums."""
        contrib_flat = self._contrib_flat(sealed)
        tok_start, doc_idx = sealed.tok_start, sealed.doc_idx
        scores = np.zeros((1, len(sealed.doc_ids)), dtype=np.float64)
        row = scores[0]
        for token, query_count in terms:
            i = sealed.tok_pos.get(token)
            if i is not None:
                start, end = int(tok_start[i]), int(tok_start[i + 1])
                row[doc_idx[start:end]] += (
                    contrib_flat[start:end] * query_count
                )
        return scores

    def _score_matrix(
        self, sealed: Optional[_SealedPostings], plan: "MatrixPlan", k: int
    ) -> List[Ranked]:
        """Rank every query of a plan against one seal: per query, the
        positions (in the seal's document order) and scores of its top k.

        The one place a kernel is chosen; both read the seal's
        :meth:`_contrib_flat`.  A plan of one query takes the per-token
        kernel (:meth:`_score_tokens`): a one-row matrix would pay the
        stream assembly for no sharing.  Any other plan is scored a tile
        of consecutive queries at a time (rows = the tile's queries,
        columns = documents).

        A tile is cut where one more query would take it past
        :data:`_TILE_BUDGET` elements, a query costing its postings
        plus its score row; a query that alone costs more is a tile of
        one.  Cutting changes no sum: a cell belongs to one query, whose
        postings arrive in sorted token order with the same table values
        times the same query counts as in :meth:`_score_tokens`, so
        scores — and therefore rankings — are bit-identical between the
        kernels wherever the cuts fall."""
        if sealed is None or not sealed.doc_ids or k <= 0:
            return [([], []) for _ in plan.terms]
        if len(plan.terms) == 1:
            return self._rank_matrix(
                sealed, self._score_tokens(sealed, plan.terms[0]), k
            )
        num_docs = len(sealed.doc_ids)
        contrib_flat = self._contrib_flat(sealed)
        # One (CSR row, query row, query count) triple per query token
        # this seal knows: query-major, a query's tokens in sorted
        # order — the canonical accumulation order.
        tok_pos = sealed.tok_pos
        pair_tok: List[int] = []
        pair_row: List[int] = []
        pair_qc: List[int] = []
        pair_end: List[int] = []  # per query, where its pairs end
        for row, terms in enumerate(plan.terms):
            for token, query_count in terms:
                position = tok_pos.get(token)
                if position is not None:
                    pair_tok.append(position)
                    pair_row.append(row)
                    pair_qc.append(query_count)
            pair_end.append(len(pair_tok))
        tok_arr = np.asarray(pair_tok, dtype=np.int64)
        starts = sealed.tok_start[tok_arr]
        lengths = sealed.tok_start[tok_arr + 1] - starts
        rows = np.asarray(pair_row, dtype=np.int64)
        counts = np.asarray(pair_qc, dtype=np.float64)
        # cost[q]: elements queries 0..q hold between them
        stream_end = np.concatenate(([0], np.cumsum(lengths)))[pair_end]
        cost = (
            stream_end + num_docs * np.arange(1, len(pair_end) + 1)
        ).tolist()
        registry = get_registry()
        tiles = registry.counter("index.matrix.tiles")
        stream_postings = registry.counter("index.matrix.stream_postings")
        ranked: List[Ranked] = []
        first = first_pair = spent = 0
        while first < len(cost):
            stop = max(
                first + 1, bisect_right(cost, spent + _TILE_BUDGET, first)
            )
            pairs = slice(first_pair, pair_end[stop - 1])
            # Lay the tile's pairs out as one flat stream: pair (t, q)
            # contributes qc * contrib_flat[block of t] to the cells
            # q * num_docs + doc_idx[block of t].  ``np.bincount`` folds
            # the stream into the score matrix in a single C pass,
            # adding in stream order (and qc * contrib == contrib * qc
            # bit for bit: IEEE multiplication commutes).
            lens = lengths[pairs]
            total = int(lens.sum())
            # gather[j] walks each pair's CSR block: start + 0..len-1
            gather = np.repeat(starts[pairs] - np.cumsum(lens) + lens, lens)
            gather += np.arange(total)
            values = contrib_flat[gather]
            values *= np.repeat(counts[pairs], lens)
            cells = sealed.doc_idx[gather]
            cells += np.repeat((rows[pairs] - first) * num_docs, lens)
            scores = np.bincount(
                cells, weights=values, minlength=(stop - first) * num_docs
            ).reshape(stop - first, num_docs)
            ranked.extend(self._rank_matrix(sealed, scores, k))
            tiles.inc()
            stream_postings.inc(total)
            first, first_pair, spent = stop, pairs.stop, cost[stop - 1]
        return ranked

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

    def _rank_matrix(
        self, sealed: _SealedPostings, scores: "np.ndarray", k: int
    ) -> List[Ranked]:
        """Per-row top-k of a score matrix under the ``(-score, id)``
        total order, finding every row's k-th score with one
        ``partition``.

        The one selection, for both kernels' scores.  Matched docs are
        exactly those with score > 0 (every BM25 contribution is
        strictly positive — idf is floored at 1e-6, tf >= 1, qc >= 1 —
        so a matched sum cannot be 0.0), and the k-th largest score over
        all docs equals the k-th largest over matched docs whenever at
        least k docs matched, with ties kept on both sides of the cut.
        """
        num_queries, num_docs = scores.shape
        at = min(k, num_docs) - 1
        # the k-th largest is the k-th smallest of the negation, and
        # numpy selects a position that near the front with one scan
        # (selecting ``num_docs - k`` of ``scores`` itself, which needs
        # no negated copy, is 5x slower on these tie-heavy rows)
        kth = (-np.partition(-scores, at, axis=1)[:, at]).tolist()
        ranked: List[Ranked] = []
        for qi in range(num_queries):
            row = scores[qi]
            if kth[qi] > 0.0:
                candidates = np.nonzero(row >= kth[qi])[0]
            else:  # fewer than k matches: keep every matched doc
                candidates = np.nonzero(row > 0.0)[0]
            ranked.append(
                _order_candidates(
                    sealed.doc_ids, row[candidates], candidates, k
                )
            )
        return ranked

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

    @staticmethod
    def _ranking(sealed: Optional[_SealedPostings], ranked: Ranked) -> Ranking:
        """One query's ranking with its ids read from the seal that
        ranked it."""
        positions, scores = ranked
        if not positions:  # also the empty index, which has no seal
            return [], []
        doc_ids = sealed.doc_ids
        return [doc_ids[i] for i in positions], scores

    def rank_planned(
        self, plan: "MatrixPlan", k: int = 10
    ) -> List[Ranking]:
        """Rank a pre-analyzed plan against this index, each ranking's
        ids read off the seal that ranked it.

        The shard seam: a sharded index plans once (:meth:`plan_matrix`)
        and calls this on every shard."""
        sealed = self._current_seal()
        return [
            self._ranking(sealed, ranked)
            for ranked in self._score_matrix(sealed, plan, k)
        ]

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
