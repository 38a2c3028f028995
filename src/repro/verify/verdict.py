"""The ternary verification verdict.

The paper defines ``verify(g, x) -> 0 | 1 | 2`` for verified / refuted /
not related; the enum values match that encoding.
"""

from __future__ import annotations

import enum
from typing import Optional


class Verdict(enum.IntEnum):
    """Outcome of verifying one (data object, data instance) pair."""

    VERIFIED = 0
    REFUTED = 1
    NOT_RELATED = 2

    @classmethod
    def from_string(cls, text: Optional[str]) -> Optional["Verdict"]:
        """Map a response string (case-insensitive) to a verdict."""
        if text is None:
            return None
        return _FROM_STRING.get(text.strip().lower())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return {0: "Verified", 1: "Refuted", 2: "Not Related"}[int(self)]


_FROM_STRING = {
    "verified": Verdict.VERIFIED,
    "true": Verdict.VERIFIED,
    "refuted": Verdict.REFUTED,
    "false": Verdict.REFUTED,
    "not related": Verdict.NOT_RELATED,
    "unrelated": Verdict.NOT_RELATED,
}
