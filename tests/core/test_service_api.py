"""The redesigned service API: config objects, run(), lifecycle."""

from __future__ import annotations

import os
from datetime import timedelta

import pytest

from repro.core import (
    FaultPolicy,
    FireMonitoringService,
    RunOptions,
    ServiceConfig,
)
from repro.errors import ConfigurationError, ServiceStateError
from repro.obs import budget_summary
from tests.conftest import CRISIS_START

WHEN = CRISIS_START + timedelta(hours=12)


@pytest.fixture()
def service(greece):
    with FireMonitoringService(greece=greece) as svc:
        yield svc


class TestConfigObjects:
    def test_legacy_kwargs_funnel_into_config(self, greece):
        # The former constructor keywords are ServiceConfig fields.
        with FireMonitoringService(
            greece=greece,
            config=ServiceConfig(use_files=True, archive_products=True),
        ) as svc:
            assert svc.config.use_files is True
            assert svc.archive is not None

    def test_explicit_config_wins(self, greece):
        config = ServiceConfig(use_files=True)
        with FireMonitoringService(greece=greece, config=config) as svc:
            assert svc.config is config
            assert svc.use_files is True

    def test_invalid_run_options_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(on_error="explode").validate()

    def test_config_objects_are_the_only_surface(self, greece, service):
        with pytest.raises(TypeError):
            FireMonitoringService(greece=greece, use_files=True)
        with pytest.raises(TypeError):
            service.run([WHEN], on_error="raise")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("retry_jitter", 1.5),
            ("retry_jitter", -0.1),
            ("retry_base_delay_s", -1.0),
            ("retry_max_delay_s", float("inf")),
            ("retry_base_delay_s", float("nan")),
            ("window_seconds", float("nan")),
            ("window_seconds", float("inf")),
            ("refinement_reserve_s", -1.0),
            ("breaker_recovery_s", -5.0),
            ("max_attempts", True),
            ("breaker_threshold", True),
            ("seed", True),
        ],
    )
    def test_bad_fault_policy_rejected(self, field, value):
        options = RunOptions(fault_policy=FaultPolicy(**{field: value}))
        with pytest.raises(ConfigurationError, match=field):
            options.validate()

    def test_bad_fault_policy_fails_run_before_any_acquisition(
        self, service, season
    ):
        with pytest.raises(ConfigurationError, match="retry_jitter"):
            service.run(
                [WHEN],
                RunOptions(
                    season=season,
                    fault_policy=FaultPolicy(retry_jitter=1.5),
                ),
            )
        assert service.outcomes == []


class TestRun:
    def test_run_returns_ordered_outcomes(self, service, season):
        whens = [WHEN, WHEN + timedelta(minutes=15)]
        outcomes = service.run(whens, RunOptions(season=season))
        assert [o.timestamp for o in outcomes] == whens
        assert all(o.status == "ok" for o in outcomes)
        assert service.outcomes == outcomes

    def test_within_budget_uses_the_runs_window(self, service, season):
        options = RunOptions(
            season=season, fault_policy=FaultPolicy(window_seconds=0.001)
        )
        (outcome,) = service.run([WHEN], options)
        assert outcome.status == "degraded"
        assert any(
            e.startswith("refinement skipped") and "0.001s window" in e
            for e in outcome.errors
        )
        assert outcome.window_seconds == 0.001
        assert outcome.within_budget is False
        assert budget_summary(service.outcomes)["deadline_misses"] == 1

    def test_mixed_request_kinds(self, service, season):
        scene = service.scene_generator.generate(
            WHEN + timedelta(minutes=30), season
        )
        outcomes = service.run([WHEN, scene], RunOptions(season=season))
        assert [o.timestamp for o in outcomes] == [WHEN, scene.timestamp]


class TestLifecycle:
    def test_close_removes_owned_workdir(self, greece):
        svc = FireMonitoringService(greece=greece)
        workdir = svc.workdir
        assert os.path.isdir(workdir)
        svc.close()
        assert not os.path.exists(workdir)
        svc.close()  # idempotent

    def test_close_preserves_caller_workdir(self, greece, tmp_path):
        workdir = str(tmp_path / "mine")
        os.makedirs(workdir)
        svc = FireMonitoringService(
            greece=greece, config=ServiceConfig(workdir=workdir)
        )
        svc.close()
        assert os.path.isdir(workdir)

    def test_run_after_close_raises(self, greece, season):
        svc = FireMonitoringService(greece=greece)
        svc.close()
        with pytest.raises(ServiceStateError):
            svc.run([WHEN], RunOptions(season=season))

    def test_context_manager_closes(self, greece):
        with FireMonitoringService(greece=greece) as svc:
            workdir = svc.workdir
        assert not os.path.exists(workdir)


class TestShimsRemoved:
    def test_deprecated_entry_points_are_gone(self, service):
        # The DeprecationWarning shims completed their cycle; run() is
        # the only batch entry point.
        for name in (
            "process_acquisition",
            "process_scene",
            "process_ready",
            "process_scenes",
            "process_acquisitions",
        ):
            assert not hasattr(service, name)

    def test_run_covers_scene_requests(self, service, season):
        scenes = [
            service.scene_generator.generate(
                WHEN + timedelta(minutes=15 * k), season
            )
            for k in range(2)
        ]
        outcomes = service.run(scenes, RunOptions(on_error="raise"))
        assert [o.timestamp for o in outcomes] == [
            s.timestamp for s in scenes
        ]

    def test_run_raise_semantics_replace_the_shims(self, service, season):
        # The legacy entry points propagated failures; migrated callers
        # get the same behaviour with on_error="raise".
        from repro.faults import FaultInjected, FaultPlan, inject

        plan = FaultPlan().raise_in("stage.chain", times=99)
        with inject(plan):
            with pytest.raises(FaultInjected):
                service.run(
                    [WHEN],
                    RunOptions(season=season, on_error="raise"),
                )
