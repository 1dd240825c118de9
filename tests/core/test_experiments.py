"""The experiment harnesses (small configurations)."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.experiments import (
    format_figure6_result,
    format_figure8_result,
    format_table1_result,
    format_table2_result,
    run_figure6,
    run_figure8,
    run_table1,
    run_table2,
)
from repro.experiments.figure6 import Figure6Config
from repro.experiments.figure8 import (
    AcquisitionTimings,
    Figure8Config,
    Figure8Result,
)
from repro.experiments.table1 import Table1Config
from repro.experiments.table2 import Table2Config

START = datetime(2007, 8, 24, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def table1_result(greece):
    return run_table1(greece, Table1Config(days=1))


class TestTable1:
    def test_row_structure(self, table1_result):
        assert table1_result.plain.chain == "Plain chain"
        assert table1_result.refined.chain == "After refinement"
        assert table1_result.plain.total_modis == \
            table1_result.refined.total_modis

    def test_rates_in_range(self, table1_result):
        for row in (table1_result.plain, table1_result.refined):
            assert 0 <= row.omission_error_pct <= 100
            assert 0 <= row.false_alarm_rate_pct <= 100

    def test_sea_false_alarms_eliminated(self, table1_result):
        assert table1_result.sea_hotspots_refined == 0

    def test_formatting(self, table1_result):
        text = format_table1_result(table1_result)
        assert "Plain chain" in text and "After refinement" in text
        assert "smoke false alarms" in text

    def test_overpasses_recorded(self, table1_result):
        assert len(table1_result.per_overpass) == 4  # one day


class TestTable2:
    def test_sequence(self, greece):
        result = run_table2(
            greece, Table2Config(image_count=4, use_files=False)
        )
        assert len(result.legacy.seconds) == 4
        assert len(result.sciql.seconds) == 4
        assert result.hotspot_agreement == 1.0
        assert result.legacy.min <= result.legacy.avg <= result.legacy.max
        text = format_table2_result(result)
        assert "Legacy C" in text and "SciQL" in text

    def test_with_files_includes_decode(self, greece):
        result = run_table2(
            greece, Table2Config(image_count=2, use_files=True)
        )
        assert result.hotspot_agreement == 1.0


class TestFigure8:
    def test_series(self, greece):
        result = run_figure8(
            greece,
            Figure8Config(
                start=START + timedelta(hours=13), hours=0.25
            ),
        )
        assert set(result.series) == {"MSG1", "MSG2"}
        assert len(result.series["MSG1"]) == 3  # 15 min / 5 min
        assert len(result.series["MSG2"]) == 1
        row = result.series["MSG1"][0]
        assert set(row.seconds_by_operation) == {
            "Store",
            "Municipalities",
            "Delete In Sea",
            "Invalid For Fires",
            "Refine In Coast",
            "Time Persistence",
        }
        slowest = result.slowest_operation("MSG1")
        assert slowest in row.seconds_by_operation
        assert "Figure 8" in format_figure8_result(result)

    def test_slopes_on_a_synthetic_series(self):
        # Two unsettled acquisitions with wild timings, then Store at
        # 1 ms per hotspot flat, Municipalities at 2 ms per hotspot
        # plus 0.5 ms per hotspot per acquisition, while the hotspot
        # count changes — the raw ms move, the per-hotspot slope of
        # Store does not.
        spots = [50, 1, 10, 20, 10, 20, 0]
        per_spot = [0, 0, 2.0, 2.5, 3.0, 3.5, 0]
        result = Figure8Result(
            series={
                "MSG1": [
                    AcquisitionTimings(
                        timestamp=START + timedelta(minutes=5 * i),
                        hotspots=spots[i],
                        seconds_by_operation={
                            "Store": (spots[i] if i >= 2 else 99) / 1000,
                            "Municipalities": spots[i] * per_spot[i]
                            / 1000,
                        },
                    )
                    for i in range(len(spots))
                ],
                "MSG2": [],
            },
            settled_from={"MSG1": 2, "MSG2": 1},
        )
        assert result.ms_per_hotspot("MSG1", "Store") == pytest.approx(1.0)
        assert result.per_hotspot_slope_ms(
            "MSG1", "Store"
        ) == pytest.approx(0.0)
        assert result.per_hotspot_slope_ms(
            "MSG1", "Municipalities"
        ) == pytest.approx(0.5)
        assert result.ms_per_hotspot(
            "MSG1", "Municipalities"
        ) == pytest.approx(
            sum(s * s * p for s, p in zip(spots[2:6], per_spot[2:6]))
            / sum(s * s for s in spots[2:6])
        )
        # An absent operation is flat; too short a series has no slope.
        assert result.per_hotspot_slope_ms("MSG1", "Refine In Coast") == 0.0
        assert result.per_hotspot_slope_ms("MSG2", "Store") == 0.0
        text = format_figure8_result(result)
        msg1 = text.split("\n\n")[0]
        rows = {
            line.split()[0]: line.split()[1:]
            for line in msg1.splitlines()
            if line.startswith(("ms/spot", "slope/spot"))
        }
        assert rows["ms/spot"][:2] == ["1.000", "2.900"]
        assert rows["slope/spot"][:2] == ["+0.0000", "+0.5000"]
        assert "acquisitions >= 2" in text


class TestFigure6:
    def test_layers(self, greece):
        result = run_figure6(
            greece,
            Figure6Config(start=START, acquisitions=2),
        )
        names = {s.name for s in result.layers}
        assert "hotspots" in names and "municipalities" in names
        assert result.map_document is not None
        assert "Figure 6" in format_figure6_result(result)
        assert result.layer("capitals").features == len(greece.prefectures)
