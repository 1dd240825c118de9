"""Solar geometry.

The classification thresholds of the EUMETSAT algorithm depend on the
per-pixel solar zenith angle at acquisition time (day < 70°, night > 90°,
linear interpolation in between).  This module implements the standard
NOAA solar-position approximation, accurate to a fraction of a degree —
far better than needed to pick thresholds.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


def _fractional_year(when: datetime) -> float:
    """Fractional year γ in radians (NOAA convention)."""
    start = datetime(when.year, 1, 1, tzinfo=when.tzinfo)
    doy = (when - start).total_seconds() / 86400.0
    return 2.0 * math.pi / 365.0 * (doy - 0.5 + when.hour / 24.0)


def solar_declination_rad(when: datetime) -> float:
    """Solar declination angle in radians."""
    g = _fractional_year(when)
    return (
        0.006918
        - 0.399912 * math.cos(g)
        + 0.070257 * math.sin(g)
        - 0.006758 * math.cos(2 * g)
        + 0.000907 * math.sin(2 * g)
        - 0.002697 * math.cos(3 * g)
        + 0.00148 * math.sin(3 * g)
    )


def equation_of_time_minutes(when: datetime) -> float:
    """Equation of time in minutes."""
    g = _fractional_year(when)
    return 229.18 * (
        0.000075
        + 0.001868 * math.cos(g)
        - 0.032077 * math.sin(g)
        - 0.014615 * math.cos(2 * g)
        - 0.040849 * math.sin(2 * g)
    )


def solar_zenith_deg(
    when_utc: datetime, lon_deg: ArrayLike, lat_deg: ArrayLike
) -> ArrayLike:
    """Solar zenith angle in degrees for a UTC time and lon/lat arrays."""
    if when_utc.tzinfo is None:
        when_utc = when_utc.replace(tzinfo=timezone.utc)
    decl = solar_declination_rad(when_utc)
    eqtime = equation_of_time_minutes(when_utc)
    minutes_utc = (
        when_utc.hour * 60.0
        + when_utc.minute
        + when_utc.second / 60.0
    )
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    true_solar_minutes = minutes_utc + eqtime + 4.0 * lon
    hour_angle = np.radians(true_solar_minutes / 4.0 - 180.0)
    cos_zenith = np.sin(lat) * math.sin(decl) + np.cos(lat) * math.cos(
        decl
    ) * np.cos(hour_angle)
    cos_zenith = np.clip(cos_zenith, -1.0, 1.0)
    zenith = np.degrees(np.arccos(cos_zenith))
    if np.isscalar(lon_deg) and np.isscalar(lat_deg):
        return float(zenith)
    return zenith
