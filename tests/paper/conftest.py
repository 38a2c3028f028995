"""The paper's tables and figures as tier-1 tests.

Each file runs one experiment from :mod:`repro.experiments` and asserts
the *shape* the paper reports.  Scale is controlled with the
``REPRO_SCALE`` environment variable (``medium`` | ``paper``): the
default is what tier-1 runs; ``paper`` approximates the corpus shape of
the original evaluation and is what EXPERIMENTS.md reports.
"""

import os

import pytest

from repro.experiments import get_context


@pytest.fixture(scope="session")
def context():
    """The shared experiment context (lake + workloads + models)."""
    return get_context(os.environ.get("REPRO_SCALE", "medium"))
