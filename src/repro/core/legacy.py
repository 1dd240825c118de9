"""The legacy processing chain (the paper's hand-coded C baseline).

Implements the full §3.1 pipeline — decode, crop, georeference, classify,
vectorise — directly in numpy with no database in the loop.  This is the
"Legacy C" row of Table 2; it also serves as an independent cross-check of
the SciQL chain's classification output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime
from types import SimpleNamespace
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.obs import get_metrics, get_tracer
from repro.core.products import CONFIDENCE_BY_CLASS, Hotspot, HotspotProduct
from repro.core.thresholds import threshold_grids
from repro.seviri.geo import GeoReference
from repro.seviri.hrit import read_hrit_image
from repro.seviri.scene import SceneImage
from repro.seviri.solar import solar_zenith_deg

ChainInput = Union[SceneImage, Tuple[Sequence[str], Sequence[str]]]

_log = logging.getLogger(__name__)
_tracer = get_tracer()
_metrics = get_metrics()


def window_mean_and_sq(
    grid: np.ndarray, valid: np.ndarray, half: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """3x3 (or (2h+1)²) window mean and mean-of-squares via integral
    images, averaging over in-bounds valid cells only."""
    data = np.where(valid, grid, 0.0)
    counts = _box_sum(valid.astype(np.float64), half)
    counts = np.where(counts == 0, 1.0, counts)
    mean = _box_sum(data, half) / counts
    sq_mean = _box_sum(data * data, half) / counts
    return mean, sq_mean


def _box_sum(grid: np.ndarray, half: int) -> np.ndarray:
    nx, ny = grid.shape
    integral = np.zeros((nx + 1, ny + 1), dtype=np.float64)
    np.cumsum(grid, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    xs = np.arange(nx)[:, None]
    ys = np.arange(ny)[None, :]
    x0 = np.clip(xs - half, 0, nx)
    x1 = np.clip(xs + half + 1, 0, nx)
    y0 = np.clip(ys - half, 0, ny)
    y1 = np.clip(ys + half + 1, 0, ny)
    return (
        integral[x1, y1]
        - integral[x0, y1]
        - integral[x1, y0]
        + integral[x0, y0]
    )


def classify_grids(
    t039: np.ndarray,
    t108: np.ndarray,
    zenith_deg: np.ndarray,
    cloud_mask: bool = True,
) -> np.ndarray:
    """The EUMETSAT classifier: per-pixel confidence 0 / 1 / 2.

    Thresholds are linearly interpolated between the day and night sets
    according to the per-pixel solar zenith angle.  With ``cloud_mask``
    (the paper's "cloud-masked" chain), pixels whose 10.8 µm temperature
    reveals cloud top are excluded from the classification *and* from the
    3x3 window statistics — otherwise a cloud edge next to a fire inflates
    the 10.8 window deviation and suppresses a real detection.
    """
    from repro.core.thresholds import CLOUD_T108_MAX

    valid = np.isfinite(t039) & np.isfinite(t108)
    if cloud_mask:
        valid &= np.where(np.isfinite(t108), t108, 0.0) > CLOUD_T108_MAX
    mean039, sq039 = window_mean_and_sq(t039, valid)
    mean108, sq108 = window_mean_and_sq(t108, valid)
    std039 = np.sqrt(np.maximum(sq039 - mean039 * mean039, 0.0))
    std108 = np.sqrt(np.maximum(sq108 - mean108 * mean108, 0.0))
    th = threshold_grids(zenith_deg)
    t039_safe = np.where(valid, t039, 0.0)
    diff = np.where(valid, t039 - t108, 0.0)
    base = (t039_safe > th["t039_min"]) & (std108 < th["std108_max"]) & valid
    fire = base & (diff > th["diff_fire"]) & (std039 > th["std039_fire"])
    potential = (
        base
        & (diff > th["diff_potential"])
        & (std039 > th["std039_potential"])
    )
    out = np.zeros(t039.shape, dtype=np.int64)
    out[potential] = 1
    out[fire] = 2
    return out


@dataclass
class ChainTimings:
    """Per-stage wall times of the most recent image (seconds), read
    from the ``chain.<stage>`` spans of :meth:`_Chain.process`."""

    decode: float = 0.0
    crop: float = 0.0
    georeference: float = 0.0
    classify: float = 0.0
    vectorize: float = 0.0

    #: The §3.1 stage names, in chain order — the one list of them.
    STAGES = ("decode", "crop", "georeference", "classify", "vectorize")

    @classmethod
    def from_spans(cls, **spans) -> "ChainTimings":
        """Build from one closed span per stage (keyword = stage name)."""
        return cls(
            **{stage: spans[stage].duration for stage in cls.STAGES}
        )

    def record_metrics(self, metrics, chain: str) -> None:
        """Feed the per-stage histograms of the metrics registry."""
        if not metrics.enabled:
            return
        histogram = metrics.histogram(
            "chain_stage_seconds",
            "Wall seconds per processing-chain stage",
        )
        for stage in self.STAGES:
            histogram.observe(getattr(self, stage), chain=chain,
                              stage=stage)
        metrics.counter(
            "chain_acquisitions_total",
            "Acquisitions processed per chain",
        ).inc(chain=chain)

    @property
    def total(self) -> float:
        return sum(getattr(self, stage) for stage in self.STAGES)


class _Chain:
    """What both §3.1 chains share around their stage bodies.

    A chain supplies one ``_<stage>(run)`` method per
    :attr:`ChainTimings.STAGES` entry.  ``run`` starts with the
    ``input`` and carries what one stage hands the next; the stages
    must leave ``timestamp``, ``sensor`` and ``hotspots`` on it.
    """

    name = ""

    def __init__(self) -> None:
        self.timings = ChainTimings()

    def process(self, chain_input: ChainInput) -> HotspotProduct:
        """Run the full chain on one acquisition.

        Every stage runs inside a ``chain.<stage>`` span under one
        ``chain.process`` span; :attr:`timings` is rebuilt from the
        stage spans (one timing mechanism).
        """
        run = SimpleNamespace(input=chain_input)
        spans = {}
        with _tracer.measure("chain.process", chain=self.name) as root:
            for stage in ChainTimings.STAGES:
                with _tracer.measure(f"chain.{stage}") as spans[stage]:
                    getattr(self, f"_{stage}")(run)
            root.set(sensor=run.sensor, hotspots=len(run.hotspots))
        self.timings = ChainTimings.from_spans(**spans)
        self.timings.record_metrics(_metrics, self.name)
        _log.debug(
            "%s chain %s %s: %d hotspot(s) in %.3fs",
            self.name,
            run.sensor,
            run.timestamp,
            len(run.hotspots),
            self.timings.total,
        )
        return HotspotProduct(
            sensor=run.sensor,
            timestamp=run.timestamp,
            chain=self.name,
            hotspots=run.hotspots,
            processing_seconds=self.timings.total,
        )


class LegacyChain(_Chain):
    """Direct-numpy processing chain (decode → crop → georef → classify →
    vectorise)."""

    name = "legacy-c"

    def __init__(
        self, georeference: GeoReference, cloud_mask: bool = True
    ) -> None:
        super().__init__()
        self.georeference = georeference
        self.cloud_mask = cloud_mask

    def _decode(self, run) -> None:
        chain_input = run.input
        if isinstance(chain_input, SceneImage):
            run.t039, run.t108 = chain_input.t039, chain_input.t108
            run.timestamp = chain_input.timestamp
            run.sensor = chain_input.sensor_name
            return
        paths039, paths108 = chain_input
        header039, run.t039 = read_hrit_image(list(paths039))
        _header108, run.t108 = read_hrit_image(list(paths108))
        run.timestamp, run.sensor = header039.timestamp, header039.sensor

    def _crop(self, run) -> None:
        run.window = self.georeference.crop_window()
        i_lo, i_hi, j_lo, j_hi = run.window
        run.t039 = run.t039[i_lo:i_hi, j_lo:j_hi]
        run.t108 = run.t108[i_lo:i_hi, j_lo:j_hi]

    def _georeference(self, run) -> None:
        run.t039 = self.georeference.resample(run.t039, run.window)
        run.t108 = self.georeference.resample(run.t108, run.window)

    def _classify(self, run) -> None:
        lon, lat = self.georeference.target.mesh()
        zenith = solar_zenith_deg(run.timestamp, lon, lat)
        run.confidence = classify_grids(
            run.t039, run.t108, zenith, cloud_mask=self.cloud_mask
        )

    def _vectorize(self, run) -> None:
        run.hotspots = vectorize_confidence(
            run.confidence,
            self.georeference.target,
            run.timestamp,
            run.sensor,
            self.name,
        )


def vectorize_confidence(
    confidence: np.ndarray,
    target,
    timestamp: datetime,
    sensor: str,
    chain: str,
) -> List[Hotspot]:
    """Fire / potential-fire pixels → 4x4 km polygon hotspots (§3.1.4)."""
    hotspots: List[Hotspot] = []
    xs, ys = np.nonzero(confidence)
    for x, y in zip(xs.tolist(), ys.tolist()):
        klass = int(confidence[x, y])
        hotspots.append(
            Hotspot(
                x=x,
                y=y,
                polygon=target.pixel_polygon(x, y),
                confidence=CONFIDENCE_BY_CLASS[klass],
                timestamp=timestamp,
                sensor=sensor,
                chain=chain,
            )
        )
    return hotspots
