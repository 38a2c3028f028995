"""Rule packages; importing this module populates the rule registry."""

from repro.analysis.rules import (
    contracts,
    determinism,
    interprocedural,
    meta,
    observability,
)

__all__ = [
    "contracts",
    "determinism",
    "interprocedural",
    "meta",
    "observability",
]
