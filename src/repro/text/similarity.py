"""String and token-set similarity measures.

The rerankers, the simulated LLM and the claim engine compare a query
with a candidate through these: edit distance and its ratio, token-set
Jaccard, and character n-gram sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set


def levenshtein(a: str, b: str) -> int:
    """Edit distance between ``a`` and ``b`` (insert/delete/substitute = 1)."""
    if a == b:
        return 0
    # a shortest edit script leaves a shared prefix and suffix alone
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    # Myers' bit-parallel recurrence: bit i of ``plus`` / ``minus`` says
    # the DP column steps +1 / -1 from row i to row i + 1 of the pattern
    # ``a``, and one round of integer ops per character of ``b`` replaces
    # a DP row.  Python ints carry any pattern length, so there is no
    # 64-character block loop.
    occurs: Dict[str, int] = {}
    bit = 1
    for ch in a:
        occurs[ch] = occurs.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    distance = len(a)
    plus, minus = mask, 0
    occurs_get = occurs.get
    for ch in b:
        match = occurs_get(ch, 0) | minus
        diagonal = (((match & plus) + plus) ^ plus) | match
        across_plus = minus | ~(plus | diagonal)
        across_minus = plus & diagonal
        if across_plus & last:
            distance += 1
        elif across_minus & last:
            distance -= 1
        across_plus = (across_plus << 1) | 1  # row 0 of the DP counts up
        minus = across_plus & diagonal & mask
        plus = ((across_minus << 1) | ~(across_plus | diagonal)) & mask
    return distance


def levenshtein_ratio(a: str, b: str) -> float:
    """Normalized edit similarity in [0, 1]; 1.0 means identical strings."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections; a set or frozenset
    is read as it is, anything else is collected into a set first."""
    set_a = a if isinstance(a, (set, frozenset)) else set(a)
    set_b = b if isinstance(b, (set, frozenset)) else set(b)
    if not set_a and not set_b:
        return 1.0
    shared = len(set_a & set_b)
    return shared / (len(set_a) + len(set_b) - shared)


def ngrams(text: str, n: int = 3, pad: bool = True) -> Set[str]:
    """Character n-grams of ``text``; padded with ``$`` at both ends.

    >>> sorted(ngrams("ab", 3))
    ['$$a', '$ab', 'ab$', 'b$$']
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if pad:
        text = "$" * (n - 1) + text + "$" * (n - 1)
    if len(text) < n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def trigram_similarity(a: str, b: str) -> float:
    """Jaccard similarity over character trigrams (pg_trgm semantics)."""
    return jaccard(ngrams(a, 3), ngrams(b, 3))
