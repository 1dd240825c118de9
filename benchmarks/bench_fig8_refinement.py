"""Benchmark + regeneration of **Figure 8** (refinement response times).

One benchmark runs the whole per-acquisition refinement (all six
operations) once per round; the regeneration test prints the MSG1/MSG2
per-acquisition series the paper plots.

Paper shape: every operation completes well within the 5/15-minute
acquisition budget, mostly sub-second; one operation (Municipalities in
the paper's datasets) clearly dominates and its cost grows with the
number of hotspots in the acquisition.
"""

from __future__ import annotations

from datetime import timedelta

import pytest

from benchmarks.conftest import CRISIS_START, paper_scale
from repro.core.legacy import LegacyChain
from repro.core.refinement import RefinementPipeline
from repro.datasets import load_auxiliary_data
from repro.experiments.figure8 import (
    Figure8Config,
    format_figure8_result,
    run_figure8,
)
from repro.stsparql import Strabon

_RESULTS = {}


def test_refine_one_acquisition(
    benchmark, greece, season, georeference, scene_generator
):
    chain = LegacyChain(georeference)
    scene = scene_generator.generate(
        CRISIS_START + timedelta(hours=14), season
    )
    product = chain.process(scene)

    def setup():
        strabon = Strabon()
        load_auxiliary_data(strabon, greece)
        return (RefinementPipeline(strabon), product), {}

    def run(pipeline, prod):
        return pipeline.refine_acquisition(prod)

    timings = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert len(timings) == 6


def test_figure8_series(benchmark, greece):
    config = Figure8Config(
        start=CRISIS_START + timedelta(hours=12),
        # Two hours at least: the per-hotspot yardstick reads the
        # acquisitions after the one-hour persistence window has filled.
        hours=4.0 if paper_scale() else 2.0,
    )
    result = benchmark.pedantic(
        run_figure8, args=(greece, config), rounds=1, iterations=1
    )
    _RESULTS["figure8"] = result
    for sensor, rows in result.series.items():
        assert rows, f"no acquisitions for {sensor}"
        for row in rows:
            total = sum(row.seconds_by_operation.values())
            # Everything must fit comfortably in the 5-minute budget.
            assert total < 60.0


def teardown_module(module):
    from benchmarks.reporting import report

    result = _RESULTS.get("figure8")
    if result is not None:
        report("figure8", format_figure8_result(result))
