"""Rule packages; importing this module populates the rule registry."""

from repro.analysis.rules import (
    concurrency,
    contracts,
    determinism,
    meta,
    observability,
)

__all__ = [
    "concurrency",
    "contracts",
    "determinism",
    "meta",
    "observability",
]
