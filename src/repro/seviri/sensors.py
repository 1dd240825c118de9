"""Sensor models.

Captures the observational characteristics the paper contrasts in
Section 2: the geostationary MSG/SEVIRI instruments with coarse pixels
but 5/15-minute revisit, versus polar-orbiting MODIS with 1 km fire
pixels but only two passes per platform per day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Sensor:
    """An earth-observation instrument as seen by the pipeline."""

    name: str
    platform: str
    #: Nadir pixel size in kilometres.
    pixel_km: float
    #: Revisit period in minutes (geostationary) — 0 for polar orbiters.
    revisit_minutes: int
    #: Spectral bands relevant to fire detection.
    bands: Tuple[str, ...]
    #: Local solar times of overpasses (polar orbiters only).
    overpass_local_times: Tuple[str, ...] = ()

    @property
    def is_geostationary(self) -> bool:
        return self.revisit_minutes > 0


MSG1 = Sensor(
    name="MSG1",
    platform="Meteosat-8",
    pixel_km=4.0,
    revisit_minutes=5,
    bands=("IR_039", "IR_108"),
)

MSG2 = Sensor(
    name="MSG2",
    platform="Meteosat-9",
    pixel_km=4.0,
    revisit_minutes=15,
    bands=("IR_039", "IR_108"),
)

MODIS_TERRA = Sensor(
    name="MODIS-Terra",
    platform="Terra",
    pixel_km=1.0,
    revisit_minutes=0,
    bands=("B21", "B22", "B31"),
    overpass_local_times=("09:30", "20:30"),
)

MODIS_AQUA = Sensor(
    name="MODIS-Aqua",
    platform="Aqua",
    pixel_km=1.0,
    revisit_minutes=0,
    bands=("B21", "B22", "B31"),
    overpass_local_times=("00:30", "11:30"),
)
