"""End-to-end integration: a mixed MSG1/MSG2 monitoring window."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.seviri.acquisition import AcquisitionSchedule
from repro.seviri.sensors import MSG1, MSG2

START = datetime(2007, 8, 24, tzinfo=timezone.utc)


@pytest.mark.slow
class TestMonitoringWindow:
    def test_interleaved_sensors_with_archive(self, greece, season):
        service = FireMonitoringService(
            greece=greece,
            config=ServiceConfig(archive_products=True),
        )
        schedule = AcquisitionSchedule(
            START.date(), days=1, sensors=(MSG1, MSG2), include_modis=False
        )
        window_start = START + timedelta(hours=14)
        window_end = window_start + timedelta(minutes=30)
        acquisitions = [
            a
            for a in schedule.msg_acquisitions()
            if window_start <= a.timestamp < window_end
        ]
        # 30 minutes: 6 MSG1 (5-min) + 2 MSG2 (15-min).
        assert len(acquisitions) == 8
        for acq in acquisitions:
            outcome = service.run(
                [acq.timestamp],
                RunOptions(
                    season=season,
                    sensor_name=acq.sensor.name,
                    on_error="raise",
                ),
            )[0]
            assert outcome.within_budget
            assert outcome.refined_count is not None
        assert len(service.archive) == 8
        by_sensor = {
            entry.sensor for entry in service.archive.entries()
        }
        assert by_sensor == {"MSG1", "MSG2"}
        assert len(service.outcomes) == 8
        # The endpoint has accumulated every acquisition's hotspots.
        all_hotspots = service.refinement.surviving_hotspots()
        assert len(all_hotspots) >= sum(
            o.refined_count for o in service.outcomes[-1:]
        )

    def test_time_persistence_confirms_repeats(self, greece, season):
        service = FireMonitoringService(greece=greece)
        when = START + timedelta(hours=14)
        last = None
        options = RunOptions(
            season=season, sensor_name="MSG1", on_error="raise"
        )
        for k in range(4):
            last = service.run(
                [when + timedelta(minutes=5 * k)], options
            )[0]
        confirmed = [
            row
            for row in service.refinement.surviving_hotspots(
                last.timestamp
            )
            if row.get("confirmation") is not None
            and row["confirmation"].local_name() == "confirmed"
        ]
        # After 4 repeats at 5-minute cadence, persisting fires confirm.
        assert confirmed
