"""Tokenization and normalization.

The tokenizer is intentionally simple and deterministic: lowercase,
unicode-fold a handful of common punctuation variants, split on
non-alphanumeric boundaries while keeping numbers (including decimals,
thousand separators, and signed values) as single tokens.
"""

from __future__ import annotations

import re
import sys
import threading
import unicodedata
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.obs.metrics import get_registry
from repro.text.stem import stem
from repro.text.stopwords import is_stopword

#: entries kept in the shared analysis cache.  An entry is a tuple of
#: pointers into the word table plus its key and LRU links: ~0.45 KB at
#: the committed lake's 27 tokens a payload (it was ~1.8 KB while every
#: analysis held private strings), not counting the key's text, which
#: the lake or the caller holds anyway.  The smallest power of two that
#: holds the 17,025 payloads ``build_indexes()`` analyses on the committed
#: 1,200-table lake (8,519 tuples, 1,200 tables, 7,306 text files; the
#: KG entities are built by their first search, which no default route
#: makes), so the build does not evict what the rerankers
#: and the LLM's evidence readings ask for next; 65,536 and 131,072
#: measure the same hit ratio and the same RSS (the sweep is in
#: docs/performance.md, "The analysis path: each word once").
ANALYZE_CACHE_SIZE = 32768

#: words one word -> form table may hold (~0.12 KB a word, 7.8 MB
#: full).  The committed lake has 5,162 distinct words; the bound is
#: there because a ``/verify`` client can mint numeric tokens for ever.
#: A full table stops growing and keeps answering for the words it has.
WORD_TABLE_SIZE = 65536

# A token is either a number (optionally signed, with , . separators) or a
# run of letters/digits.  Apostrophes inside words ("o'brien") are kept.
_TOKEN_RE = re.compile(
    r"""
    [+-]?\d[\d,]*(?:\.\d+)?      # numbers: 12  1,234  -3.5  +7
    | [a-z0-9]+(?:'[a-z]+)?      # words, optionally with an inner apostrophe
    """,
    re.VERBOSE,
)

_WHITESPACE_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, strip accents, and collapse whitespace.

    >>> normalize("  Café\\tRenée ")
    'cafe renee'
    """
    if text.isascii():
        # NFKD and the combining filter are the identity on ASCII, and
        # ``str.split`` cuts at exactly the characters ``\s`` matches
        return " ".join(text.lower().split())
    text = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower()
    return _WHITESPACE_RE.sub(" ", text).strip()


def tokenize(text: str) -> List[str]:
    """Split ``text`` into normalized tokens.

    >>> tokenize("Meagan Good, 1,234 votes (51.2%)")
    ['meagan', 'good', '1,234', 'votes', '51.2']
    """
    return _TOKEN_RE.findall(normalize(text))  # the pattern has no groups


#: the shared analysis LRU.  Hand-rolled (OrderedDict + lock) rather
#: than ``functools.lru_cache`` so each lookup can report its hit/miss
#: into the metrics registry — which is what lets two interleaved
#: verification campaigns attribute analysis-cache activity to
#: themselves instead of reading cross-polluted process-wide deltas.
_ANALYZE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ANALYZE_LOCK = threading.Lock()

#: word -> analysed form (``""`` = dropped stop word), one table per
#: ``(remove_stopwords, stemming)`` pair.  Keys and forms are
#: ``sys.intern``-ed, so every analysis in the LRU, the inverted
#: index's postings keys and the vectorizers' slot memos hold the same
#: object per word.  Read without a lock; written under
#: ``_ANALYZE_LOCK``; never evicted, and full at ``WORD_TABLE_SIZE``.
_WORD_TABLES: Dict[Tuple[bool, bool], Dict[str, str]] = {
    (remove_stopwords, stemming): {}
    for remove_stopwords in (False, True)
    for stemming in (False, True)
}


class CacheInfo(NamedTuple):
    """``functools``-shaped statistics of the shared analysis cache."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _analyze_word(word: str, remove_stopwords: bool, stemming: bool) -> str:
    """One token's analysed form; ``""`` when the analysis drops it."""
    if remove_stopwords and is_stopword(word):
        return ""
    if stemming and word[0].isalpha():
        return stem(word)
    return word


def _fill_forms(
    tokens: List[str],
    forms: List[Optional[str]],
    remove_stopwords: bool,
    stemming: bool,
) -> None:
    """The miss branch: compute every form the table did not have, and
    remember it while the table has room.  Past ``WORD_TABLE_SIZE`` a
    word is computed here at each occurrence."""
    table = _WORD_TABLES[remove_stopwords, stemming]
    misses = 0
    for position, word in enumerate(tokens):
        if forms[position] is not None:
            continue
        # an earlier occurrence in this payload may have filled it
        form = table.get(word)
        if form is None:
            misses += 1
            form = _analyze_word(word, remove_stopwords, stemming)
            with _ANALYZE_LOCK:
                if len(table) < WORD_TABLE_SIZE:
                    form = table.setdefault(sys.intern(word), sys.intern(form))
                    _sanitizer.note_write(table, "entries", lock=_ANALYZE_LOCK)
        forms[position] = form
    registry = get_registry()
    registry.counter("text.word_table.misses").inc(misses)
    registry.gauge("text.word_table.entries").set(
        sum(map(len, _WORD_TABLES.values()))
    )


def analyze(
    text: str,
    remove_stopwords: bool = True,
    stemming: bool = True,
) -> List[str]:
    """Full analysis chain used by the inverted index: tokenize, drop
    stopwords, stem.

    Numeric tokens are passed through unchanged so that values like
    ``1,234`` remain searchable.

    A payload is analysed by a table walk: normalize, split, one
    ``dict.get`` per token in the process-wide word -> form table, so
    stop-checking and stemming are paid once per distinct word.

    Results are memoized in a process-wide LRU keyed on the text and the
    analyzer options, sized (``ANALYZE_CACHE_SIZE``) to hold every
    payload of the committed lake: index build, search, the rerankers
    and the simulated LLM's evidence readings share one analysis of any
    given payload.  Callers receive a fresh list each time (the cached
    tuple is never exposed for mutation).  Every lookup reports into the
    ``text.analyze_cache.hits`` / ``.misses`` metrics; the table reports
    ``text.word_table.entries`` / ``.misses``.
    """
    key = (text, remove_stopwords, stemming)
    with _ANALYZE_LOCK:
        cached = _ANALYZE_CACHE.get(key)
        if cached is not None:
            _ANALYZE_CACHE.move_to_end(key)
    if cached is not None:
        get_registry().counter("text.analyze_cache.hits").inc()
        return list(cached)
    tokens = tokenize(text)
    forms = list(map(_WORD_TABLES[remove_stopwords, stemming].get, tokens))
    if None in forms:
        _fill_forms(tokens, forms, remove_stopwords, stemming)
    result = tuple(filter(None, forms))  # drops the "" of a stop word
    with _ANALYZE_LOCK:
        _ANALYZE_CACHE[key] = result
        _ANALYZE_CACHE.move_to_end(key)
        while len(_ANALYZE_CACHE) > ANALYZE_CACHE_SIZE:
            _ANALYZE_CACHE.popitem(last=False)
        _sanitizer.note_write(_ANALYZE_CACHE, "entries", lock=_ANALYZE_LOCK)
    get_registry().counter("text.analyze_cache.misses").inc()
    return list(result)


def analyze_cache_info() -> CacheInfo:
    """Hit/miss statistics of the shared analysis cache.

    Hits and misses read the process-lifetime metrics counters; clearing
    the cache does not reset them (unlike ``functools.lru_cache``).
    """
    registry = get_registry()
    with _ANALYZE_LOCK:
        currsize = len(_ANALYZE_CACHE)
    return CacheInfo(
        hits=int(registry.counter("text.analyze_cache.hits").value),
        misses=int(registry.counter("text.analyze_cache.misses").value),
        maxsize=ANALYZE_CACHE_SIZE,
        currsize=currsize,
    )


def analyze_cache_clear() -> None:
    """Drop every memoized analysis (mainly for tests and benchmarks)."""
    with _ANALYZE_LOCK:
        _ANALYZE_CACHE.clear()


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'])")


def sentences(text: str) -> List[str]:
    """Split raw (non-normalized) text into sentences.

    Used by the text chunker to produce passage-sized units for the
    semantic index.  Splitting is heuristic: sentence-final punctuation
    followed by whitespace and an upper-case/numeric start.
    """
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in _SENTENCE_RE.split(text) if part.strip()]
