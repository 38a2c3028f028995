"""Numeric token handling.

Verification of table-derived claims hinges on comparing numbers that
appear with different surface forms ("1,234" vs "1234" vs "1234.0").
"""

from __future__ import annotations

import re
from typing import List, Optional, Set

_NUMBER_RE = re.compile(r"[+-]?\d[\d,]*(?:\.\d+)?")


def parse_number(token: str) -> Optional[float]:
    """Parse a numeric token to float; None if it is not a number.

    >>> parse_number("1,234")
    1234.0
    >>> parse_number("51.2%")
    51.2
    >>> parse_number("abc") is None
    True
    """
    token = token.strip().rstrip("%")
    if not _NUMBER_RE.fullmatch(token):
        return None
    try:
        return float(token.replace(",", ""))
    except ValueError:  # pragma: no cover - fullmatch should prevent this
        return None


def numbers_in(text: str) -> List[float]:
    """All numbers appearing anywhere in ``text``, in order."""
    return [float(match.group(0).replace(",", "")) for match in _NUMBER_RE.finditer(text)]


def years_in(text: str) -> Set[int]:
    """Plausible calendar years mentioned in ``text``."""
    return {
        int(n) for n in numbers_in(text) if 1900 <= n <= 2100 and n == int(n)
    }


def numbers_equal(a: float, b: float, rel_tol: float = 1e-6) -> bool:
    """Compare two numbers with a small relative tolerance."""
    if a == b:
        return True
    return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)


def format_number(value: float) -> str:
    """Render a float the way web tables usually do: ints without '.0'."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"
