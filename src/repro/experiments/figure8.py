"""Figure 8: per-acquisition response times of the refinement operations.

For each MSG1 (5-minute) and MSG2 (15-minute) acquisition in the
simulated window, the six operations run against a Strabon endpoint that
keeps accumulating hotspot history (as the operational store does), and
their wall times are recorded — the series the paper plots on a log
scale.

An operation's cost grows with the number of hotspots in the
acquisition, and that number changes over the run, so the yardstick is
per hotspot: over the acquisitions after the persistence window has
filled, the fitted ms per hotspot, and the slope of ms per hotspot
against the acquisition index — flat (about 0) when a hotspot costs the
same however much history the store holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.legacy import LegacyChain
from repro.core.refinement import RefinementPipeline
from repro.datasets import SyntheticGreece, load_auxiliary_data
from repro.seviri.fires import FireSeason
from repro.seviri.geo import GeoReference, RawGrid, TargetGrid
from repro.seviri.scene import SceneGenerator
from repro.seviri.sensors import MSG1, MSG2, Sensor
from repro.stsparql import Strabon


@dataclass
class Figure8Config:
    start: datetime = datetime(2007, 8, 24, 12, 0, tzinfo=timezone.utc)
    hours: float = 2.0
    sensors: tuple = (MSG1, MSG2)
    seed: int = 7


@dataclass
class AcquisitionTimings:
    timestamp: datetime
    hotspots: int
    seconds_by_operation: Dict[str, float]


@dataclass
class Figure8Result:
    series: Dict[str, List[AcquisitionTimings]] = field(default_factory=dict)
    #: Per sensor, the index of the first acquisition after the
    #: persistence window has filled (the settled acquisitions).
    settled_from: Dict[str, int] = field(default_factory=dict)

    def operation_average(self, sensor: str, operation: str) -> float:
        rows = self.series.get(sensor, [])
        values = [r.seconds_by_operation.get(operation, 0.0) for r in rows]
        return sum(values) / len(values) if values else 0.0

    def slowest_operation(self, sensor: str) -> str:
        ops = RefinementPipeline.OPERATIONS
        return max(
            ops, key=lambda op: self.operation_average(sensor, op)
        )

    def _settled(
        self, sensor: str, operation: str
    ) -> List[Tuple[int, int, float]]:
        """``(index, hotspots, seconds)`` of the settled acquisitions
        that had hotspots."""
        start = self.settled_from.get(sensor, 0)
        return [
            (i, row.hotspots, row.seconds_by_operation.get(operation, 0.0))
            for i, row in enumerate(self.series.get(sensor, []))
            if i >= start and row.hotspots > 0
        ]

    def ms_per_hotspot(self, sensor: str, operation: str) -> float:
        """The least-squares fit of ``ms = b * hotspots`` over the
        settled acquisitions: ``b``, in ms per hotspot (0 without
        any)."""
        points = self._settled(sensor, operation)
        squares = sum(spots * spots for _, spots, _ in points)
        if not squares:
            return 0.0
        return sum(spots * s for _, spots, s in points) * 1000 / squares

    def per_hotspot_slope_ms(self, sensor: str, operation: str) -> float:
        """Least-squares slope of ms per hotspot against the
        acquisition index over the settled acquisitions, in ms per
        hotspot per acquisition (0 for fewer than two).  About 0 when
        a hotspot costs the same whatever the history."""
        return _slope(
            [
                (i, seconds * 1000 / spots)
                for i, spots, seconds in self._settled(sensor, operation)
            ]
        )


def _slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` against ``x`` (0 for fewer than
    two distinct ``x``)."""
    n = len(points)
    if n < 2:
        return 0.0
    x_mean = sum(x for x, _ in points) / n
    y_mean = sum(y for _, y in points) / n
    variance = sum((x - x_mean) ** 2 for x, _ in points)
    if not variance:
        return 0.0
    covariance = sum((x - x_mean) * (y - y_mean) for x, y in points)
    return covariance / variance


def run_figure8(
    greece: Optional[SyntheticGreece] = None,
    config: Optional[Figure8Config] = None,
) -> Figure8Result:
    config = config or Figure8Config()
    greece = greece or SyntheticGreece(seed=42)
    season = FireSeason(
        greece,
        config.start.replace(hour=0, minute=0),
        days=1,
        seed=config.seed,
    )
    generator = SceneGenerator(greece)
    georeference = GeoReference(RawGrid(), TargetGrid())
    chain = LegacyChain(georeference)
    result = Figure8Result()
    for sensor in config.sensors:
        strabon = Strabon()
        load_auxiliary_data(strabon, greece)
        pipeline = RefinementPipeline(strabon)
        result.settled_from[sensor.name] = -(
            -pipeline.persistence_window_minutes // sensor.revisit_minutes
        )
        rows: List[AcquisitionTimings] = []
        when = config.start
        end = config.start + timedelta(hours=config.hours)
        step = timedelta(minutes=sensor.revisit_minutes)
        while when < end:
            scene = generator.generate(when, season, sensor_name=sensor.name)
            product = chain.process(scene)
            timings = pipeline.refine_acquisition(product)
            rows.append(
                AcquisitionTimings(
                    timestamp=when,
                    hotspots=len(product),
                    seconds_by_operation={
                        t.operation: t.seconds for t in timings
                    },
                )
            )
            when += step
        result.series[sensor.name] = rows
    return result


def format_figure8_result(result: Figure8Result) -> str:
    """Render the per-acquisition series (the paper plots these on a log
    scale; we print one row per acquisition)."""
    ops = RefinementPipeline.OPERATIONS
    lines: List[str] = []
    for sensor, rows in result.series.items():
        lines.append(
            f"Figure 8 ({sensor}): refinement response times per "
            f"acquisition (ms)"
        )
        header = f"{'time':<6} {'spots':>5} " + " ".join(
            f"{op.replace(' ', '')[:12]:>13}" for op in ops
        )
        lines.append(header)
        for row in rows:
            cells = " ".join(
                f"{row.seconds_by_operation.get(op, 0.0) * 1000:>13.2f}"
                for op in ops
            )
            lines.append(
                f"{row.timestamp.strftime('%H:%M'):<6} "
                f"{row.hotspots:>5} {cells}"
            )
        per_spot = " ".join(
            f"{result.ms_per_hotspot(sensor, op):>13.3f}" for op in ops
        )
        lines.append(f"{'ms/spot':<12} {per_spot}")
        slopes = " ".join(
            f"{result.per_hotspot_slope_ms(sensor, op):>+13.4f}"
            for op in ops
        )
        lines.append(f"{'slope/spot':<12} {slopes}")
        lines.append(
            f"over acquisitions >= {result.settled_from.get(sensor, 0)} "
            "(the persistence window has filled): ms/spot is the "
            "least-squares ms per hotspot, slope/spot the slope of ms "
            "per hotspot per acquisition (flat: about 0)"
        )
        slowest = result.slowest_operation(sensor)
        lines.append(f"slowest operation on average: {slowest}")
        lines.append("")
    return "\n".join(lines)
