"""SLO burn-rate engine: window math, multi-window alerting, status."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import (
    ACQUISITION_SLO,
    SERVING_SLO,
    SLO,
    SloEngine,
    default_service_slos,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_engine(**slo_kwargs):
    clock = FakeClock()
    slo = SLO(
        name="test",
        objective=slo_kwargs.pop("objective", 0.9),
        short_window_s=slo_kwargs.pop("short_window_s", 300.0),
        long_window_s=slo_kwargs.pop("long_window_s", 3600.0),
        burn_rate_threshold=slo_kwargs.pop("burn_rate_threshold", 2.0),
        **slo_kwargs,
    )
    return SloEngine(slos=[slo], clock=clock), slo, clock


def test_objective_must_be_a_fraction():
    with pytest.raises(ValueError):
        SLO(name="bad", objective=1.0)
    with pytest.raises(ValueError):
        SLO(name="bad", objective=0.0)


def test_default_slos_cover_acquisition_and_serving():
    names = {s.name for s in default_service_slos()}
    assert names == {ACQUISITION_SLO.name, SERVING_SLO.name}


def test_unknown_slo_raises():
    engine = SloEngine(slos=[])
    with pytest.raises(KeyError):
        engine.record("nope", True)
    with pytest.raises(KeyError):
        engine.burn_rate("nope", 60.0)


def test_burn_rate_is_bad_fraction_over_budget():
    engine, slo, clock = make_engine(objective=0.9)
    # 2 bad out of 10 -> bad_fraction 0.2, budget 0.1 -> burn rate 2.0.
    for k in range(10):
        engine.record("test", good=k >= 2)
    assert engine.burn_rate("test", slo.short_window_s) == pytest.approx(
        2.0
    )
    # An empty window is no evidence of burning.
    clock.advance(slo.short_window_s + 1)
    assert engine.burn_rate("test", slo.short_window_s) == 0.0


def test_events_age_out_of_the_window():
    engine, slo, clock = make_engine()
    engine.record("test", good=False)
    clock.advance(slo.short_window_s + 1)
    engine.record("test", good=True)
    # The old bad event left the short window; only the good one counts.
    assert engine.burn_rate("test", slo.short_window_s) == 0.0
    # It still counts against the long window.
    assert engine.burn_rate("test", slo.long_window_s) > 0.0


def test_alert_requires_both_windows_burning():
    engine, slo, clock = make_engine(objective=0.9)
    # All-bad events burn both windows immediately (rate 1/0.1 = 10).
    alerts = [engine.record("test", good=False) for _ in range(3)]
    fired = [a for a in alerts if a is not None]
    assert len(fired) == 1
    assert fired[0]["state"] == "burning"
    assert fired[0]["slo"] == "test"
    assert fired[0]["short_burn_rate"] >= slo.burn_rate_threshold
    assert engine.is_burning("test")
    assert list(engine.alerts) == fired


def test_long_window_burning_alone_does_not_alert():
    """The sticky long window alone never pages — both must burn."""
    engine, slo, clock = make_engine(objective=0.5, burn_rate_threshold=1.5)
    for _ in range(4):
        engine.record("test", good=False)
    assert engine.is_burning("test")
    # The bad events age out of the short window; the long window still
    # burns (4 bad / 5 events = 1.6 >= 1.5), but the quiet short window
    # resolves the alert — and keeps it resolved.
    clock.advance(slo.short_window_s + 1)
    alert = engine.record("test", good=True)
    assert alert is not None and alert["state"] == "recovered"
    assert engine.burn_rate("test", slo.long_window_s) >= 1.5
    assert not engine.is_burning("test")
    # More good events never re-fire off the long window alone.
    assert engine.record("test", good=True) is None


def test_alert_callbacks_fire_and_exceptions_are_swallowed():
    engine, slo, clock = make_engine()
    seen = []

    def bad_callback(alert):
        raise RuntimeError("broken alert sink")

    engine.on_alert.append(bad_callback)
    engine.on_alert.append(seen.append)
    for _ in range(3):
        engine.record("test", good=False, trace_id="abc123")
    assert len(seen) == 1
    assert seen[0]["trace_id"] == "abc123"


def test_budget_remaining_depletes_with_bad_events():
    engine, slo, clock = make_engine(objective=0.9)
    assert engine.budget_remaining("test") == 1.0
    for _ in range(9):
        engine.record("test", good=True)
    engine.record("test", good=False)
    # 1 bad, budget (1-0.9)*10 = 1 -> fully spent.
    assert engine.budget_remaining("test") == pytest.approx(0.0)


def test_status_reports_every_slo():
    engine, slo, clock = make_engine(objective=0.9)
    for _ in range(9):
        engine.record("test", good=True)
    engine.record("test", good=False)
    status = engine.status()
    entry = status["test"]
    assert entry["objective"] == 0.9
    assert entry["events"] == 10
    assert entry["bad_events"] == 1
    # 1 bad in 10 spends the budget at exactly rate 1 — no alert.
    assert entry["short_burn_rate"] == pytest.approx(1.0)
    assert entry["burning"] is False
    assert 0.0 <= entry["budget_remaining"] <= 1.0


def test_metrics_exported_only_when_registry_enabled():
    disabled = MetricsRegistry()
    disabled.enabled = False
    engine = SloEngine(
        slos=[SLO(name="test", objective=0.9)],
        clock=FakeClock(),
        metrics=disabled,
    )
    engine.record("test", good=True)
    assert disabled.collect() == []

    enabled = MetricsRegistry()
    enabled.enabled = True
    engine = SloEngine(
        slos=[SLO(name="test", objective=0.9)],
        clock=FakeClock(),
        metrics=enabled,
    )
    engine.record("test", good=False)
    names = {m["name"] for m in enabled.collect()}
    assert "slo_events_total" in names
    assert "slo_burn_rate" in names


def test_burn_rate_takes_only_the_slos_own_windows():
    engine, slo, clock = make_engine()
    engine.record("test", good=False)
    assert engine.burn_rate("test", slo.short_window_s) > 0.0
    assert engine.burn_rate("test", slo.long_window_s) > 0.0
    with pytest.raises(ValueError):
        engine.burn_rate("test", 60.0)
    with pytest.raises(KeyError):
        engine.burn_rate("nope", slo.short_window_s)


class _Recount:
    """The brute-force oracle: every retained (timestamp, good) event
    in a list, every read a full recount of the trailing window."""

    def __init__(self, slo: SLO, max_events: int) -> None:
        self.slo = slo
        self.max_events = max_events
        self.events = []
        self.burning = False
        self.alerts = []

    def counts(self, now: float, window_s: float):
        inside = [good for t, good in self.events if t >= now - window_s]
        return inside.count(False), len(inside)

    def burn_rate(self, now: float, window_s: float) -> float:
        bad, total = self.counts(now, window_s)
        return 0.0 if total == 0 else (bad / total) / (
            1.0 - self.slo.objective
        )

    def budget_remaining(self, now: float) -> float:
        bad, total = self.counts(now, self.slo.long_window_s)
        if total == 0:
            return 1.0
        budget = (1.0 - self.slo.objective) * total
        return max(0.0, 1.0 - bad / budget) if budget > 0 else 0.0

    def record(self, now: float, good: bool) -> None:
        self.events = (self.events + [(now, good)])[-self.max_events:]
        short = self.burn_rate(now, self.slo.short_window_s)
        long = self.burn_rate(now, self.slo.long_window_s)
        threshold = self.slo.burn_rate_threshold
        burning = short >= threshold and long >= threshold
        if burning != self.burning:
            self.burning = burning
            self.alerts.append(
                ("burning" if burning else "recovered",
                 round(short, 4), round(long, 4))
            )


@pytest.mark.parametrize("seed", range(12))
def test_window_counts_equal_a_recount(seed):
    """Seeded differential: running window counts against a full
    recount, over random good/bad records and clock steps that cross
    both window edges, with a small event cap so eviction runs too."""
    import random

    rng = random.Random(seed)
    short_s, long_s = 10.0, 40.0
    engine, slo, clock = make_engine(
        objective=rng.choice([0.5, 0.9, 0.95]),
        short_window_s=short_s,
        long_window_s=long_s,
        burn_rate_threshold=rng.choice([1.0, 1.5, 2.0]),
    )
    engine.max_events = rng.randint(3, 40)
    oracle = _Recount(slo, engine.max_events)
    for step in range(600):
        roll = rng.random()
        if roll < 0.55:
            good = rng.random() < rng.choice([0.3, 0.7, 0.95])
            engine.record("test", good=good)
            oracle.record(clock.now, good)
        else:
            # Small steps, exact window-edge hits and long jumps.
            clock.advance(
                rng.choice(
                    [0.0, rng.uniform(0, 3), short_s, long_s,
                     rng.uniform(0, 2 * long_s)]
                )
            )
        now = clock.now
        context = (seed, step)
        assert engine.burn_rate("test", short_s) == oracle.burn_rate(
            now, short_s
        ), context
        assert engine.burn_rate("test", long_s) == oracle.burn_rate(
            now, long_s
        ), context
        assert engine.budget_remaining("test") == oracle.budget_remaining(
            now
        ), context
        bad, total = oracle.counts(now, long_s)
        assert engine.status()["test"] == {
            "objective": slo.objective,
            "events": total,
            "bad_events": bad,
            "short_burn_rate": round(oracle.burn_rate(now, short_s), 4),
            "long_burn_rate": round(oracle.burn_rate(now, long_s), 4),
            "budget_remaining": round(oracle.budget_remaining(now), 4),
            "burning": oracle.burning,
        }, context
        assert [
            (a["state"], a["short_burn_rate"], a["long_burn_rate"])
            for a in engine.alerts
        ] == oracle.alerts, context


def test_record_at_the_event_cap_visits_no_retained_event(monkeypatch):
    """One more record after 50 000 costs O(1): no container of
    retained events is iterated."""
    from collections import deque

    import repro.obs.slo as slo_module

    visits = []

    def counted(items):
        for item in items:
            visits.append(item)
            yield item

    class CountingDeque(deque):
        # Counts only once armed, so filling the engine stays fast.
        armed = False

        def __iter__(self):
            items = deque.__iter__(self)
            return counted(items) if CountingDeque.armed else items

        def __reversed__(self):
            items = deque.__reversed__(self)
            return counted(items) if CountingDeque.armed else items

    monkeypatch.setattr(slo_module, "deque", CountingDeque)
    engine, slo, clock = make_engine(objective=0.9)
    for k in range(50_000):
        engine.record("test", good=k % 7 != 0)
    CountingDeque.armed = True
    engine.record("test", good=False)
    assert visits == []
    # The spy is live: an armed iteration is counted.
    list(CountingDeque("ab"))
    assert visits == ["a", "b"]


def test_concurrent_records_lose_no_count():
    """Records from more threads than cores, with a short switch
    interval, while another thread reads: every event is counted once
    in both windows."""
    import sys
    import threading

    engine, slo, clock = make_engine(objective=0.9)
    threads, per_thread = 8, 1500
    stop = threading.Event()
    read_errors = []

    def writer(index):
        for k in range(per_thread):
            engine.record("test", good=(index + k) % 2 == 0)

    def reader():
        while not stop.is_set():
            try:
                engine.status()
                engine.burn_rate("test", slo.short_window_s)
            except Exception as error:  # pragma: no cover
                read_errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher = threading.Thread(target=reader)
        watcher.start()
        workers = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not watcher.is_alive()
    assert read_errors == []
    entry = engine.status()["test"]
    assert entry["events"] == threads * per_thread
    assert entry["bad_events"] == threads * per_thread // 2
    assert engine.burn_rate("test", slo.short_window_s) == engine.burn_rate(
        "test", slo.long_window_s
    )
