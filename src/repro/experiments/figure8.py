"""Figure 8: per-acquisition response times of the refinement operations.

For each MSG1 (5-minute) and MSG2 (15-minute) acquisition in the
simulated window, the six operations run against a Strabon endpoint that
keeps accumulating hotspot history (as the operational store does), and
their wall times are recorded — the series the paper plots on a log
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional

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

    def operation_average(self, sensor: str, operation: str) -> float:
        rows = self.series.get(sensor, [])
        values = [r.seconds_by_operation.get(operation, 0.0) for r in rows]
        return sum(values) / len(values) if values else 0.0

    def slowest_operation(self, sensor: str) -> str:
        ops = RefinementPipeline.OPERATIONS
        return max(
            ops, key=lambda op: self.operation_average(sensor, op)
        )

    def slope_ms(self, sensor: str, operation: str) -> float:
        """Least-squares slope of ``operation``'s wall time against the
        acquisition index, in ms per acquisition (0 for fewer than two
        acquisitions).  The paper's curves are flat: about 0."""
        rows = self.series.get(sensor, [])
        n = len(rows)
        if n < 2:
            return 0.0
        ys = [
            r.seconds_by_operation.get(operation, 0.0) * 1000
            for r in rows
        ]
        x_mean = (n - 1) / 2
        y_mean = sum(ys) / n
        covariance = sum(
            (x - x_mean) * (y - y_mean) for x, y in enumerate(ys)
        )
        variance = sum((x - x_mean) ** 2 for x in range(n))
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
        slopes = " ".join(
            f"{result.slope_ms(sensor, op):>+13.3f}" for op in ops
        )
        lines.append(f"{'slope':<6} {'':>5} {slopes}")
        lines.append(
            "slope: least-squares ms per acquisition (the paper's "
            "curves are flat)"
        )
        slowest = result.slowest_operation(sensor)
        lines.append(f"slowest operation on average: {slowest}")
        lines.append("")
    return "\n".join(lines)
