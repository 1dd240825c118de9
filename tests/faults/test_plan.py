"""Fault-plan semantics: stateless matching and derived randomness."""

from __future__ import annotations

import pytest

from repro.errors import TransientError
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_plan,
    inject,
    trip,
)


class TestSpecMatching:
    def test_kind_site_index_attempt(self):
        spec = FaultSpec("raise", "stage.chain", index=3, times=2)
        assert spec.matches("raise", "stage.chain", 3, 1)
        assert spec.matches("raise", "stage.chain", 3, 2)
        assert not spec.matches("raise", "stage.chain", 3, 3)
        assert not spec.matches("raise", "stage.chain", 4, 1)
        assert not spec.matches("raise", "refine.store", 3, 1)
        assert not spec.matches("delay", "stage.chain", 3, 1)

    def test_site_patterns(self):
        spec = FaultSpec("raise", "refine.*")
        assert spec.matches("raise", "refine.store", None, 1)
        assert spec.matches("raise", "refine.municipalities", 7, 1)
        assert not spec.matches("raise", "stage.chain", None, 1)

    def test_wildcard_index_hits_every_acquisition(self):
        spec = FaultSpec("delay", "*")
        assert spec.matches("delay", "anything", 0, 1)
        assert spec.matches("delay", "anything", 99, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")

    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("raise", times=0)


class TestPlan:
    def test_builders_assign_distinct_spec_ids(self):
        plan = (
            FaultPlan(seed=1)
            .corrupt_segment(index=0)
            .drop_band(index=1)
            .raise_in("stage.chain", index=2)
        )
        ids = [s.spec_id for s in plan.specs]
        assert len(set(ids)) == len(ids) == 3

    def test_match_is_pure(self):
        plan = FaultPlan().raise_in("stage.chain", index=1)
        for _ in range(3):
            assert len(plan.match("raise", "stage.chain", 1, 1)) == 1
        assert plan.match("raise", "stage.chain", 2, 1) == []

    def test_rng_deterministic_and_key_dependent(self):
        plan = FaultPlan(seed=11)
        a = plan.rng_for("corrupt-segment", (1, 2)).random()
        b = plan.rng_for("corrupt-segment", (1, 2)).random()
        c = plan.rng_for("corrupt-segment", (1, 3)).random()
        d = FaultPlan(seed=12).rng_for("corrupt-segment", (1, 2)).random()
        assert a == b
        assert a != c
        assert a != d

    def test_describe_mentions_every_spec(self):
        plan = (
            FaultPlan()
            .drop_band(index=2, band="IR_108")
            .delay("refine.store", seconds=0.5)
        )
        text = plan.describe()
        assert "drop-band" in text and "IR_108" in text
        assert "delay@refine.store" in text and "0.5s" in text
        assert FaultPlan().describe() == "no faults"


class TestActivePlanAndTrip:
    def test_inject_installs_and_restores(self):
        assert active_plan() is None
        plan = FaultPlan()
        with inject(plan):
            assert active_plan() is plan
            inner = FaultPlan()
            with inject(inner):
                assert active_plan() is inner
            assert active_plan() is plan
        assert active_plan() is None

    def test_trip_noop_without_plan(self):
        trip("stage.chain", 0, 1)  # must not raise

    def test_trip_raises_for_matching_spec(self):
        plan = FaultPlan().raise_in("stage.chain", index=2, message="boom")
        with inject(plan):
            trip("stage.chain", 1, 1)  # different index: silent
            with pytest.raises(FaultInjected, match="boom"):
                trip("stage.chain", 2, 1)
            trip("stage.chain", 2, 2)  # times=1: attempt 2 passes

    def test_injected_fault_is_transient(self):
        assert issubclass(FaultInjected, TransientError)
