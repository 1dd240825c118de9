"""Map projections used by the georeferencing step.

The NOA chain georeferences SEVIRI imagery to the Hellenic Geodetic
Reference System 1987 (HGRS 87 / "Greek Grid", EPSG:2100), a Transverse
Mercator projection of the GRS80 ellipsoid with central meridian 24°E,
scale factor 0.9996 and a 500 km false easting.  We implement the standard
Krüger series for the forward and inverse transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Ellipsoid:
    """A reference ellipsoid given by semi-major axis and flattening."""

    semi_major: float
    inverse_flattening: float

    @property
    def flattening(self) -> float:
        return 1.0 / self.inverse_flattening

    @property
    def eccentricity_sq(self) -> float:
        f = self.flattening
        return f * (2.0 - f)


GRS80 = Ellipsoid(semi_major=6378137.0, inverse_flattening=298.257222101)
WGS84 = Ellipsoid(semi_major=6378137.0, inverse_flattening=298.257223563)


class TransverseMercator:
    """Forward/inverse Transverse Mercator (Krüger series, 4th order).

    Accuracy is a few millimetres within ±6° of the central meridian, far
    beyond anything needed to georeference 4 km pixels.
    """

    def __init__(
        self,
        central_meridian_deg: float,
        scale_factor: float = 0.9996,
        false_easting: float = 500000.0,
        false_northing: float = 0.0,
        ellipsoid: Ellipsoid = GRS80,
    ) -> None:
        self.lon0 = math.radians(central_meridian_deg)
        self.k0 = scale_factor
        self.fe = false_easting
        self.fn = false_northing
        self.ellipsoid = ellipsoid
        f = ellipsoid.flattening
        n = f / (2.0 - f)
        self._n = n
        # Rectifying radius.
        self._A = (
            ellipsoid.semi_major
            / (1 + n)
            * (1 + n**2 / 4 + n**4 / 64)
        )
        # Krüger alpha (forward) and beta (inverse) coefficients.
        self._alpha = (
            n / 2 - 2 * n**2 / 3 + 5 * n**3 / 16,
            13 * n**2 / 48 - 3 * n**3 / 5,
            61 * n**3 / 240,
        )
        self._beta = (
            n / 2 - 2 * n**2 / 3 + 37 * n**3 / 96,
            n**2 / 48 + n**3 / 15,
            17 * n**3 / 480,
        )
        self._delta = (
            2 * n - 2 * n**2 / 3 - 2 * n**3,
            7 * n**2 / 3 - 8 * n**3 / 5,
            56 * n**3 / 15,
        )

    def forward(self, lon_deg: float, lat_deg: float) -> Tuple[float, float]:
        """Geographic (lon, lat) degrees → projected (easting, northing) m."""
        lon = math.radians(lon_deg)
        lat = math.radians(lat_deg)
        e2 = self.ellipsoid.eccentricity_sq
        e = math.sqrt(e2)
        # Conformal latitude.
        t = math.sinh(
            math.atanh(math.sin(lat))
            - e * math.atanh(e * math.sin(lat))
        )
        xi_prime = math.atan2(t, math.cos(lon - self.lon0))
        eta_prime = math.asinh(
            math.sin(lon - self.lon0) / math.hypot(t, math.cos(lon - self.lon0))
        )
        xi = xi_prime
        eta = eta_prime
        for j, a in enumerate(self._alpha, start=1):
            xi += a * math.sin(2 * j * xi_prime) * math.cosh(2 * j * eta_prime)
            eta += a * math.cos(2 * j * xi_prime) * math.sinh(2 * j * eta_prime)
        easting = self.fe + self.k0 * self._A * eta
        northing = self.fn + self.k0 * self._A * xi
        return (easting, northing)

    def inverse(self, easting: float, northing: float) -> Tuple[float, float]:
        """Projected (easting, northing) m → geographic (lon, lat) degrees."""
        xi = (northing - self.fn) / (self.k0 * self._A)
        eta = (easting - self.fe) / (self.k0 * self._A)
        xi_prime = xi
        eta_prime = eta
        for j, b in enumerate(self._beta, start=1):
            xi_prime -= b * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
            eta_prime -= b * math.cos(2 * j * xi) * math.sinh(2 * j * eta)
        chi = math.asin(math.sin(xi_prime) / math.cosh(eta_prime))
        lat = chi
        for j, d in enumerate(self._delta, start=1):
            lat += d * math.sin(2 * j * chi)
        lon = self.lon0 + math.atan2(
            math.sinh(eta_prime), math.cos(xi_prime)
        )
        return (math.degrees(lon), math.degrees(lat))


class GreekGrid(TransverseMercator):
    """HGRS 87 / Greek Grid (EPSG:2100)."""

    def __init__(self) -> None:
        super().__init__(
            central_meridian_deg=24.0,
            scale_factor=0.9996,
            false_easting=500000.0,
            false_northing=0.0,
            ellipsoid=GRS80,
        )
