"""Ablation: R-tree-assisted spatial joins vs full scans.

DESIGN.md calls out the spatial index as the load-bearing design choice
behind Figure 8's sub-second refinement operations; this ablation
quantifies it by running the same Delete-In-Sea update with the engine's
spatial index enabled and disabled.
"""

from __future__ import annotations

from datetime import timedelta

import pytest

from benchmarks.conftest import CRISIS_START
from repro.core.legacy import LegacyChain
from repro.core.refinement import RefinementPipeline
from repro.datasets import load_auxiliary_data
from repro.perf.geometry_cache import PREDICATE_CACHE
from repro.stsparql import Strabon


@pytest.fixture(scope="module")
def product(greece, season, georeference, scene_generator):
    chain = LegacyChain(georeference)
    scene = scene_generator.generate(
        CRISIS_START + timedelta(hours=14), season
    )
    return chain.process(scene)


def _make_setup(greece, product, use_index: bool):
    """Per-round setup: fresh endpoint with data loaded and index built
    (outside the timed region); only the update itself is measured."""

    def setup():
        strabon = Strabon(enable_spatial_index=use_index)
        load_auxiliary_data(strabon, greece)
        pipeline = RefinementPipeline(strabon)
        pipeline.store(product)
        if use_index:
            strabon.spatial_candidates(
                product.hotspots[0].polygon
            )  # force the R-tree build now
        PREDICATE_CACHE.clear()  # measure cold predicate evaluation
        return (pipeline,), {}

    return setup


def test_delete_in_sea_with_index(benchmark, greece, product):
    def run(pipeline):
        return pipeline.delete_in_sea(product.timestamp)

    timing = benchmark.pedantic(
        run, setup=_make_setup(greece, product, True), rounds=3, iterations=1
    )
    assert timing.operation == "Delete In Sea"


def test_delete_in_sea_without_index(benchmark, greece, product):
    def run(pipeline):
        return pipeline.delete_in_sea(product.timestamp)

    timing = benchmark.pedantic(
        run, setup=_make_setup(greece, product, False), rounds=3, iterations=1
    )
    assert timing.operation == "Delete In Sea"


def test_municipalities_with_index(benchmark, greece, product):
    # 150 municipality polygons: the index-assisted join shines here.
    def run(pipeline):
        return pipeline.municipalities(product.timestamp)

    timing = benchmark.pedantic(
        run, setup=_make_setup(greece, product, True), rounds=3, iterations=1
    )
    assert timing.operation == "Municipalities"


def test_municipalities_without_index(benchmark, greece, product):
    def run(pipeline):
        return pipeline.municipalities(product.timestamp)

    timing = benchmark.pedantic(
        run, setup=_make_setup(greece, product, False), rounds=3, iterations=1
    )
    assert timing.operation == "Municipalities"


def test_index_and_scan_results_agree(benchmark, greece, product):
    def run():
        removed = []
        for use_index in (True, False):
            strabon = Strabon(enable_spatial_index=use_index)
            load_auxiliary_data(strabon, greece)
            pipeline = RefinementPipeline(strabon)
            pipeline.store(product)
            timing = pipeline.delete_in_sea(product.timestamp)
            removed.append(timing.detail["removed"])
        return removed

    removed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert removed[0] == removed[1]
