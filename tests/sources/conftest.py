"""Fixtures for the multi-source federation suite.

The differential and outage-matrix tests each build several full
services, so the geography is the cheap deterministic one
(``detail=1``).  Seasons are handed out per test; the federation
adds its static-site events to its own copy of the season it is
given, never to the season itself.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from repro.datasets import SyntheticGreece
from repro.seviri.fires import FireSeason

CRISIS_START = datetime(2007, 8, 24, tzinfo=timezone.utc)

#: Acquisition slots per run; 15-minute cadence like the paper's MSG.
N_ACQUISITIONS = 3


@pytest.fixture(scope="package")
def sources_greece() -> SyntheticGreece:
    return SyntheticGreece(seed=42, detail=1)


@pytest.fixture
def make_season(sources_greece):
    def build(seed: int = 7) -> FireSeason:
        return FireSeason(
            sources_greece, CRISIS_START, days=1, seed=seed
        )

    return build


@pytest.fixture(scope="package")
def acquisition_requests():
    base = CRISIS_START + timedelta(hours=13)
    return [
        base + timedelta(minutes=15 * k)
        for k in range(N_ACQUISITIONS)
    ]
