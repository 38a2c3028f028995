"""String and token-set similarity measures.

These are the content-based building blocks the Indexer's string-similarity
path uses (the paper cites Elasticsearch, tries, and suffix trees as
examples of this family).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple


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


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matched_b = [False] * len(b)
    matches = 0
    matched_a_chars: List[str] = []
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ch:
                matched_b[j] = True
                matches += 1
                matched_a_chars.append(ch)
                break
    if matches == 0:
        return 0.0
    matched_b_chars = [b[j] for j in range(len(b)) if matched_b[j]]
    transpositions = sum(
        1 for x, y in zip(matched_a_chars, matched_b_chars) if x != y
    )
    transpositions //= 2
    return (
        matches / len(a)
        + matches / len(b)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by common prefix length (<= 4)."""
    base = jaro(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


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


def cosine_token_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Cosine similarity of token multiset frequency vectors."""
    count_a, count_b = Counter(a), Counter(b)
    if not count_a or not count_b:
        return 0.0
    dot = sum(count_a[token] * count_b[token] for token in count_a)
    norm_a = math.sqrt(sum(value * value for value in count_a.values()))
    norm_b = math.sqrt(sum(value * value for value in count_b.values()))
    return dot / (norm_a * norm_b)


def token_overlap(a: Iterable[str], b: Iterable[str]) -> Tuple[int, float]:
    """Return (count, fraction-of-a) of ``a``'s distinct tokens found in ``b``."""
    set_a, set_b = set(a), set(b)
    if not set_a:
        return 0, 0.0
    shared = len(set_a & set_b)
    return shared, shared / len(set_a)
