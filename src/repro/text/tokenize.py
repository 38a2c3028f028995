"""Tokenization and normalization.

The tokenizer is intentionally simple and deterministic: lowercase,
unicode-fold a handful of common punctuation variants, split on
non-alphanumeric boundaries while keeping numbers (including decimals,
thousand separators, and signed values) as single tokens.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.text.stem import stem
from repro.text.stopwords import is_stopword

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


#: word -> analysed form (``""`` = dropped stop word), one table per
#: ``(remove_stopwords, stemming)`` pair.  Keys and forms are
#: ``sys.intern``-ed, so every analysis, the inverted index's postings
#: keys and the vectorizers' slot memos hold the same object per word.
#: Never evicted, and full at ``WORD_TABLE_SIZE``.
_WORD_TABLES: Dict[Tuple[bool, bool], Dict[str, str]] = {
    (remove_stopwords, stemming): {}
    for remove_stopwords in (False, True)
    for stemming in (False, True)
}


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
            if len(table) < WORD_TABLE_SIZE:
                form = table[sys.intern(word)] = sys.intern(form)
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

    Nothing is memoised per payload: no text and no analysis outlives
    the call, and every call returns a fresh list.  An index build
    analyses each payload once and hands the terms to every index that
    needs them (``IndexerModule``).  The table reports
    ``text.word_table.entries`` / ``.misses``.
    """
    table = _WORD_TABLES[remove_stopwords, stemming]
    tokens = tokenize(text)
    forms = list(map(table.get, tokens))
    if None in forms:
        _fill_forms(tokens, forms, remove_stopwords, stemming)
    return list(filter(None, forms))  # drops the "" of a stop word


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'])")


def sentences(text: str) -> List[str]:
    """Split raw (non-normalized) text into sentences.

    The simulated LLM checks a number against the sentence that holds
    it (``llm/model.py``).  Splitting is heuristic: sentence-final
    punctuation followed by whitespace and an upper-case/numeric start.
    """
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in _SENTENCE_RE.split(text) if part.strip()]
