"""Serving-layer fixtures.

One teleios service with two ingested crisis-day acquisitions is shared
(module-of-tests wide) by the HTTP and publisher tests; building it
costs a couple of seconds, and the serving layer never mutates it
outside the explicitly-writing concurrency test, which brings its own
timestamps.
"""

from __future__ import annotations

import tempfile
from datetime import timedelta

import pytest

from tests.conftest import CRISIS_START
from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService

INGESTED = [
    CRISIS_START + timedelta(hours=13, minutes=15 * k) for k in range(2)
]

#: Timestamps the concurrency test may ingest on top.
EXTRA = [
    CRISIS_START + timedelta(hours=14, minutes=15 * k) for k in range(2)
]


@pytest.fixture(scope="package")
def served_service(greece, season):
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            mode="teleios",
            workdir=tempfile.mkdtemp(prefix="test_serve_"),
        ),
    )
    service.run(INGESTED, RunOptions(season=season, on_error="raise"))
    yield service
    service.close()


@pytest.fixture(scope="package")
def serve_options(season):
    return RunOptions(season=season, on_error="raise")
