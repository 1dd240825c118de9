"""Multi-source acquisition federation (``repro.sources``).

Per-source drivers (polar orbiter, weather stations) alongside the
geostationary SEVIRI stream, with spatio-temporal dedup/fusion,
static-heat-source simulation, and the federation layer that turns
source failures into provenance instead of crashes.
"""

from repro.sources.base import (
    KIND_FIRE,
    KIND_WEATHER,
    SourceBatch,
    SourceDriver,
    SourceObservation,
    SourcesConfig,
    sort_observations,
)
from repro.sources.federation import (
    GAP_STATUSES,
    STATUS_BREAKER_OPEN,
    STATUS_IDLE,
    STATUS_OK,
    STATUS_OUTAGE,
    SourceFederation,
    SourceReport,
)
from repro.sources.fusion import FusedCluster, fuse, fused_confidence
from repro.sources.polar import PolarOrbiterDriver
from repro.sources.static import (
    StaticHeatEvent,
    StaticSite,
    attach_static_sites,
    load_static_sites,
    simulate_static_sites,
    static_site_events,
)
from repro.sources.weather import (
    WeatherStation,
    WeatherStationDriver,
    danger_contribution,
    simulate_stations,
)

__all__ = [
    "GAP_STATUSES",
    "KIND_FIRE",
    "KIND_WEATHER",
    "STATUS_BREAKER_OPEN",
    "STATUS_IDLE",
    "STATUS_OK",
    "STATUS_OUTAGE",
    "FusedCluster",
    "PolarOrbiterDriver",
    "SourceBatch",
    "SourceDriver",
    "SourceFederation",
    "SourceObservation",
    "SourceReport",
    "SourcesConfig",
    "StaticHeatEvent",
    "StaticSite",
    "WeatherStation",
    "WeatherStationDriver",
    "attach_static_sites",
    "danger_contribution",
    "fuse",
    "fused_confidence",
    "load_static_sites",
    "simulate_static_sites",
    "simulate_stations",
    "sort_observations",
    "static_site_events",
]
