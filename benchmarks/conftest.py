"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or
microbenchmarks the substrate that does) and prints the regenerated
rows/series so they can be compared side by side with the published values
in :mod:`repro.baselines.published`.
"""

from __future__ import annotations

import pytest

from repro.utils import seed_everything


@pytest.fixture(autouse=True)
def _seed_all():
    seed_everything(2023)
    yield


def emit(title: str, text: str) -> None:
    """Print a labelled block (visible with ``pytest -s`` or in benchmark logs)."""
    print(f"\n==== {title} ====\n{text}\n")
