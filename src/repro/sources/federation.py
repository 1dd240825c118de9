"""The acquisition federation: drivers + breakers + provenance.

:class:`SourceFederation` polls every registered driver once per
acquisition slot and returns what it got, *plus a report per source* —
the provenance record that rides the snapshot into ``/v1/hotspots``,
``health()`` and subscription notifications.  Losing a source is a
degradation, not a failure: a driver that raises (or whose fault site
``source.<name>`` trips) is recorded as an outage, its circuit
breaker counts the failure, and the acquisition proceeds with the
remaining feeds — the degradation-ladder entry "lose a source, keep
serving with provenance noting the gap".
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Tuple

from repro.datasets.geography import SyntheticGreece
from repro.faults import trip as faults_trip
from repro.faults.retry import CircuitBreaker
from repro.obs import get_metrics, get_tracer
from repro.rdf import Graph
from repro.seviri.fires import FireSeason
from repro.sources.base import (
    SourceBatch,
    SourceDriver,
    SourcesConfig,
)
from repro.sources.polar import PolarOrbiterDriver
from repro.sources.static import (
    StaticSite,
    attach_static_sites,
    load_static_sites,
    simulate_static_sites,
)
from repro.sources.weather import WeatherStationDriver

_tracer = get_tracer()
_metrics = get_metrics()

#: Report statuses.  ``idle`` (no pass scheduled) is not a gap;
#: ``outage`` and ``breaker-open`` are.
STATUS_OK = "ok"
STATUS_IDLE = "idle"
STATUS_OUTAGE = "outage"
STATUS_BREAKER_OPEN = "breaker-open"
GAP_STATUSES = (STATUS_OUTAGE, STATUS_BREAKER_OPEN)


@dataclass
class SourceReport:
    """Per-source provenance for one acquisition slot."""

    source: str
    kind: str
    status: str
    observations: int = 0
    seconds: float = 0.0
    error: Optional[str] = None

    @property
    def is_gap(self) -> bool:
        return self.status in GAP_STATUSES

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "source": self.source,
            "kind": self.kind,
            "status": self.status,
            "observations": self.observations,
            "seconds": round(self.seconds, 6),
        }
        if self.error:
            payload["error"] = self.error
        return payload


class SourceFederation:
    """All non-geostationary sources behind one collect() call."""

    def __init__(
        self,
        drivers: List[SourceDriver],
        config: Optional[SourcesConfig] = None,
        static_sites: Optional[List[StaticSite]] = None,
    ) -> None:
        self.config = config or SourcesConfig()
        self.drivers = list(drivers)
        self.static_sites = list(static_sites or [])
        self.season: Optional[FireSeason] = None
        self.breakers: Dict[str, CircuitBreaker] = {
            driver.name: CircuitBreaker(
                name=f"source.{driver.name}",
                failure_threshold=self.config.breaker_threshold,
                recovery_seconds=self.config.breaker_recovery_seconds,
            )
            for driver in self.drivers
        }
        self.last_reports: List[SourceReport] = []
        self._outages: Dict[str, int] = {
            driver.name: 0 for driver in self.drivers
        }
        self._observations: Dict[str, int] = {
            driver.name: 0 for driver in self.drivers
        }
        self._last_status: Dict[str, str] = {
            driver.name: STATUS_IDLE for driver in self.drivers
        }

    @classmethod
    def from_config(
        cls, config: SourcesConfig, greece: SyntheticGreece
    ) -> "SourceFederation":
        config.validate()
        drivers: List[SourceDriver] = []
        if config.polar:
            drivers.append(
                PolarOrbiterDriver(
                    greece,
                    seed=config.seed,
                    revisit_minutes=config.polar_revisit_minutes,
                    pass_minutes=config.polar_pass_minutes,
                )
            )
        if config.weather:
            drivers.append(
                WeatherStationDriver(
                    greece,
                    stations=config.stations,
                    seed=config.seed,
                )
            )
        sites = simulate_static_sites(
            greece, count=config.static_sites, seed=config.seed
        )
        return cls(drivers, config=config, static_sites=sites)

    # -- lifecycle ---------------------------------------------------------

    def prepare(
        self, season: Optional[FireSeason], graph: Graph
    ) -> Optional[FireSeason]:
        """Bind the season and seed the static-site catalogue; returns
        the season the run synthesises its scenes from.

        The static sites' heat events join a copy of ``season``, never
        the caller's own.  Idempotent: the catalogue triples only add
        what is missing, so a recovered durable service (whose WAL
        already replayed them) journals nothing new.
        """
        if season is not None and self.static_sites:
            season = copy.copy(season)
            season.events = list(season.events)
            attach_static_sites(season, self.static_sites)
        self.season = season
        if self.static_sites:
            load_static_sites(graph, self.static_sites)
        return season

    # -- acquisition -------------------------------------------------------

    def collect(
        self,
        when: datetime,
        fault_index: Optional[int] = None,
    ) -> Tuple[List[SourceBatch], List[SourceReport]]:
        """Poll every driver for the slot at ``when``.

        Never raises: each driver failure becomes an ``outage`` report
        (and a breaker failure); an open breaker short-circuits the
        driver entirely until its recovery window elapses.
        """
        batches: List[SourceBatch] = []
        reports: List[SourceReport] = []
        for driver in self.drivers:
            report, batch = self._collect_one(
                driver, when, fault_index
            )
            reports.append(report)
            self._last_status[driver.name] = report.status
            if report.status == STATUS_OK:
                self._observations[driver.name] += (
                    report.observations
                )
            elif report.is_gap:
                self._outages[driver.name] += 1
            if batch is not None:
                batches.append(batch)
        self.last_reports = reports
        return batches, reports

    def _collect_one(
        self,
        driver: SourceDriver,
        when: datetime,
        fault_index: Optional[int],
    ) -> Tuple[SourceReport, Optional[SourceBatch]]:
        if not driver.available(when):
            return (
                SourceReport(driver.name, driver.kind, STATUS_IDLE),
                None,
            )
        breaker = self.breakers[driver.name]
        if not breaker.allow():
            return (
                SourceReport(
                    driver.name,
                    driver.kind,
                    STATUS_BREAKER_OPEN,
                    error="circuit breaker open",
                ),
                None,
            )
        started = time.monotonic()
        try:
            with _tracer.span(
                "source.acquire", source=driver.name
            ) as span:
                faults_trip(
                    f"source.{driver.name}", index=fault_index
                )
                batch = driver.acquire(when, self.season)
                span.set(observations=len(batch))
        except Exception as error:  # noqa: BLE001 — gap, not crash
            breaker.record_failure()
            if _metrics.enabled:
                _metrics.counter(
                    "source_outages_total",
                    "Source acquisitions lost to outages",
                ).inc(source=driver.name)
            return (
                SourceReport(
                    driver.name,
                    driver.kind,
                    STATUS_OUTAGE,
                    seconds=time.monotonic() - started,
                    error=f"{type(error).__name__}: {error}",
                ),
                None,
            )
        breaker.record_success()
        if _metrics.enabled:
            _metrics.counter(
                "source_observations_total",
                "Observations ingested per source",
            ).inc(len(batch), source=driver.name)
        return (
            SourceReport(
                driver.name,
                driver.kind,
                STATUS_OK,
                observations=len(batch),
                seconds=time.monotonic() - started,
            ),
            batch,
        )

    # -- introspection -----------------------------------------------------

    def provenance(self) -> List[Dict[str, object]]:
        """The last slot's reports as plain dicts (for snapshots)."""
        return [report.to_dict() for report in self.last_reports]

    def status(self) -> Dict[str, Dict[str, object]]:
        """Per-source health block (breaker state, gap counters)."""
        return {
            driver.name: {
                "kind": driver.kind,
                "breaker": self.breakers[driver.name].state,
                "last_status": self._last_status[driver.name],
                "observations_total": self._observations[
                    driver.name
                ],
                "outages_total": self._outages[driver.name],
            }
            for driver in self.drivers
        }


__all__ = [
    "GAP_STATUSES",
    "SourceFederation",
    "SourceReport",
    "STATUS_BREAKER_OPEN",
    "STATUS_IDLE",
    "STATUS_OK",
    "STATUS_OUTAGE",
]
