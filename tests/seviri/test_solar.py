"""Solar geometry."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.seviri.solar import (
    equation_of_time_minutes,
    solar_declination_rad,
    solar_zenith_deg,
)

ATHENS = (23.7, 38.0)


class TestZenith:
    def test_noon_summer_low_zenith(self):
        z = solar_zenith_deg(
            datetime(2007, 6, 21, 10, 25, tzinfo=timezone.utc), *ATHENS
        )
        # Summer solstice solar noon at 38N: zenith = 38 - 23.44 = ~14.6.
        assert z == pytest.approx(14.6, abs=1.5)

    def test_midnight_sun_below_horizon(self):
        z = solar_zenith_deg(
            datetime(2007, 8, 24, 0, 0, tzinfo=timezone.utc), *ATHENS
        )
        assert z > 90

    def test_array_broadcast(self):
        lon = np.array([20.0, 23.0, 26.0])
        lat = np.array([35.0, 38.0, 41.0])
        z = solar_zenith_deg(
            datetime(2007, 8, 24, 12, 0, tzinfo=timezone.utc), lon, lat
        )
        assert z.shape == (3,)
        assert (z >= 0).all() and (z <= 180).all()

    def test_naive_datetime_treated_as_utc(self):
        a = solar_zenith_deg(datetime(2007, 8, 24, 12, 0), *ATHENS)
        b = solar_zenith_deg(
            datetime(2007, 8, 24, 12, 0, tzinfo=timezone.utc), *ATHENS
        )
        assert a == b

    def test_monotone_through_afternoon(self):
        values = [
            solar_zenith_deg(
                datetime(2007, 8, 24, h, 0, tzinfo=timezone.utc), *ATHENS
            )
            for h in (12, 14, 16, 18)
        ]
        assert values == sorted(values)

    @given(
        st.integers(min_value=0, max_value=23),
        st.floats(min_value=20, max_value=27),
        st.floats(min_value=34, max_value=42),
    )
    def test_range_invariant(self, hour, lon, lat):
        z = solar_zenith_deg(
            datetime(2007, 8, 24, hour, 0, tzinfo=timezone.utc), lon, lat
        )
        assert 0.0 <= float(z) <= 180.0


class TestHelpers:
    def test_declination_bounds(self):
        for month in range(1, 13):
            d = solar_declination_rad(
                datetime(2007, month, 15, tzinfo=timezone.utc)
            )
            assert abs(np.degrees(d)) <= 23.6

    def test_equation_of_time_bounds(self):
        for month in range(1, 13):
            e = equation_of_time_minutes(
                datetime(2007, month, 15, tzinfo=timezone.utc)
            )
            assert abs(e) < 18
