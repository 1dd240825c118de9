"""Transverse Mercator / Greek Grid projection."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import GreekGrid, TransverseMercator
from repro.geometry.projection import GRS80, WGS84

lon = st.floats(min_value=19.0, max_value=29.0, allow_nan=False)
lat = st.floats(min_value=34.0, max_value=42.0, allow_nan=False)


class TestGreekGrid:
    def test_athens_reference(self):
        # Athens (23.7275 E, 37.9838 N) should land near the published
        # EPSG:2100 coordinates (~476 km E, ~4204 km N).
        e, n = GreekGrid().forward(23.7275, 37.9838)
        assert e == pytest.approx(476070, abs=50)
        assert n == pytest.approx(4204050, abs=50)

    def test_central_meridian_easting(self):
        e, _ = GreekGrid().forward(24.0, 38.0)
        assert e == pytest.approx(500000.0, abs=1e-3)

    def test_scale_factor_at_centre(self):
        gg = GreekGrid()
        # Distance between two close points on the central meridian should
        # be ~k0 times the ellipsoidal distance.
        _, n1 = gg.forward(24.0, 38.0)
        _, n2 = gg.forward(24.0, 38.001)
        ellipsoidal = 0.001 * 111132.0  # metres per degree latitude approx
        assert (n2 - n1) / ellipsoidal == pytest.approx(0.9996, abs=2e-3)

    @given(lon, lat)
    def test_roundtrip(self, lon_deg, lat_deg):
        gg = GreekGrid()
        e, n = gg.forward(lon_deg, lat_deg)
        lon_back, lat_back = gg.inverse(e, n)
        # Third-order Krüger series: sub-centimetre accuracy (1e-7 deg).
        assert lon_back == pytest.approx(lon_deg, abs=1e-7)
        assert lat_back == pytest.approx(lat_deg, abs=1e-7)

    @given(lat)
    def test_easting_monotonic_in_longitude(self, lat_deg):
        gg = GreekGrid()
        e1, _ = gg.forward(22.0, lat_deg)
        e2, _ = gg.forward(25.0, lat_deg)
        assert e2 > e1


class TestEllipsoids:
    def test_grs80_flattening(self):
        assert GRS80.flattening == pytest.approx(1 / 298.257222101)

    def test_custom_projection(self):
        tm = TransverseMercator(
            central_meridian_deg=0.0, false_easting=0.0, ellipsoid=WGS84
        )
        e, n = tm.forward(0.0, 0.0)
        assert e == pytest.approx(0.0, abs=1e-6)
        assert n == pytest.approx(0.0, abs=1e-6)
