"""Configuration surface of the monitoring service.

One construction-time object (:class:`ServiceConfig`) is the service
constructor's whole configuration, and one per-batch object
(:class:`RunOptions`) carries everything that varies per
:meth:`~repro.core.service.FireMonitoringService.run` call:

>>> from repro.core import FireMonitoringService, ServiceConfig, RunOptions
>>> service = FireMonitoringService(config=ServiceConfig(use_files=True))
>>> outcomes = service.run(whens, RunOptions(season=season))  # doctest: +SKIP

:class:`FaultPolicy` bundles the fault-tolerance knobs — retry budget
and backoff, the real-time window the degradation logic enforces, and
the refinement circuit breaker — and builds the actual
:mod:`repro.faults` primitives from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.faults import CircuitBreaker, RetryPolicy

__all__ = ["ServiceConfig", "RunOptions", "FaultPolicy"]

#: What :attr:`RunOptions.on_error` accepts.
ON_ERROR_MODES = ("degrade", "raise")

#: Field metadata of the :class:`ServiceConfig` fields a durable
#: service does not persist: where this process keeps its files, and
#: in-memory grid objects.
_LOCAL = {"persisted": False}

#: :class:`FaultPolicy` durations, each a non-negative number of seconds.
_POLICY_SECONDS = (
    "retry_base_delay_s",
    "retry_max_delay_s",
    "window_seconds",
    "refinement_reserve_s",
    "breaker_recovery_s",
)


@dataclass
class FaultPolicy:
    """Knobs of the fault-tolerance layer for one run."""

    #: Stage-one attempts per acquisition (1 = no retry).  Only
    #: :class:`repro.errors.Transient` failures are retried.
    max_attempts: int = 3
    #: Exponential-backoff base / cap between attempts (seconds).
    retry_base_delay_s: float = 0.01
    retry_max_delay_s: float = 0.25
    #: Jitter fraction of the backoff delay, in [0, 1).
    retry_jitter: float = 0.5
    #: Seed for the deterministic jitter RNG.
    seed: int = 0
    #: The real-time window both stages must fit (§4.2.1).  Refinement
    #: is skipped or truncated when stage one has consumed it.
    window_seconds: float = 300.0
    #: Static floor for the "can stage two still fit?" estimate; the
    #: rolling mean of past refinement times is used when larger.
    refinement_reserve_s: float = 0.0
    #: Consecutive refinement failures that open the circuit breaker.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before admitting a probe.
    breaker_recovery_s: float = 120.0

    def validate(self) -> None:
        for name in ("max_attempts", "breaker_threshold", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in _POLICY_SECONDS + ("retry_jitter",):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or math.isnan(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if not 0 <= self.retry_jitter < 1:
            raise ConfigurationError("retry_jitter must be in [0, 1)")
        if not 0 < self.window_seconds < math.inf:
            raise ConfigurationError(
                "window_seconds must be positive and finite"
            )
        for name in _POLICY_SECONDS:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in ("retry_base_delay_s", "retry_max_delay_s"):
            if getattr(self, name) == math.inf:
                raise ConfigurationError(f"{name} must be finite")

    def build_retry(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.retry_base_delay_s,
            max_delay=self.retry_max_delay_s,
            jitter=self.retry_jitter,
            seed=self.seed,
        )

    def build_breaker(self, name: str = "refinement") -> CircuitBreaker:
        return CircuitBreaker(
            name,
            failure_threshold=self.breaker_threshold,
            recovery_seconds=self.breaker_recovery_s,
        )


@dataclass
class ServiceConfig:
    """Construction-time configuration of
    :class:`~repro.core.service.FireMonitoringService`."""

    #: ``"teleios"`` (SciQL chain + semantic refinement) or
    #: ``"pre-teleios"`` (legacy chain, no refinement).
    mode: str = "teleios"
    #: Seed of the synthetic Greece built when none is supplied.
    seed: int = 42
    #: Feed the chain HRIT segment files through the Data Vault
    #: instead of in-memory scenes.
    use_files: bool = False
    #: Working directory; a private temporary directory (cleaned up by
    #: ``close()``) is created when unset.
    workdir: Optional[str] = field(default=None, metadata=_LOCAL)
    #: File products into a :class:`~repro.core.archive.ProductArchive`.
    archive_products: bool = False
    #: Expected cloud fields per synthesised scene (Poisson).
    clouds_per_scene: float = 0.0
    #: Satellite grids; library defaults when unset.
    raw_grid: Optional[object] = field(default=None, metadata=_LOCAL)
    target_grid: Optional[object] = field(default=None, metadata=_LOCAL)
    #: Durable-state directory (``repro.durable``).  When set, the RDF
    #: store is write-ahead logged, each commit's WAL record carrying
    #: the acquisition cursor;
    #: ``FireMonitoringService.open(state_dir)`` resumes from it.
    #: Unset = the historical fully-in-memory behaviour.
    state_dir: Optional[str] = field(default=None, metadata=_LOCAL)
    #: WAL fsync policy: ``"commit"`` (once per acquisition commit,
    #: the default), ``"always"`` (every append) or ``"never"``
    #: (benchmarks/tests — survives process crashes, not OS crashes).
    wal_fsync: str = "commit"
    #: Commits between compacting graph checkpoints.
    checkpoint_interval: int = 16
    #: Multi-source acquisition federation (ISSUE 10): a
    #: :class:`repro.sources.SourcesConfig`, a plain dict of its
    #: fields, or ``True`` for the defaults.  ``None`` keeps the
    #: single-source (SEVIRI-only) pipeline.
    sources: Optional[object] = None

    def validate(self) -> None:
        if self.mode not in ("teleios", "pre-teleios"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.clouds_per_scene < 0:
            raise ConfigurationError("clouds_per_scene must be >= 0")
        if self.state_dir is not None and self.mode != "teleios":
            raise ConfigurationError(
                "state_dir requires mode='teleios' (the pre-TELEIOS "
                "configuration has no semantic store to persist)"
            )
        if self.wal_fsync not in ("always", "commit", "never"):
            raise ConfigurationError(
                f"wal_fsync must be 'always', 'commit' or 'never', "
                f"got {self.wal_fsync!r}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                "checkpoint_interval must be >= 1"
            )
        if self.sources is not None:
            if self.mode != "teleios":
                raise ConfigurationError(
                    "sources requires mode='teleios' (the federation "
                    "feeds the semantic refinement stage)"
                )
            self.sources = self.sources_config()

    def to_dict(self) -> Dict[str, object]:
        """The persisted fields as plain values (``sources`` as its
        :meth:`~repro.sources.SourcesConfig.to_dict`): what a durable
        service saves in ``service.json`` before it opens its store and
        :meth:`~repro.core.service.FireMonitoringService.open` feeds
        back into this constructor."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("persisted", True)
        }
        sources = self.sources_config()
        out["sources"] = None if sources is None else sources.to_dict()
        return out

    def sources_config(self):
        """The ``sources`` field normalised to a ``SourcesConfig``."""
        if self.sources is None:
            return None
        from repro.sources import SourcesConfig

        try:
            if isinstance(self.sources, SourcesConfig):
                self.sources.validate()
                return self.sources
            if self.sources is True:
                return SourcesConfig()
            if isinstance(self.sources, dict):
                return SourcesConfig.from_dict(self.sources)
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
        raise ConfigurationError(
            "sources must be a SourcesConfig, a dict of its fields, "
            f"True or None, got {type(self.sources).__name__}"
        )


@dataclass
class RunOptions:
    """Per-batch options of
    :meth:`~repro.core.service.FireMonitoringService.run`."""

    #: Fire season driving scene synthesis for timestamp requests.
    season: Optional[object] = None
    #: Sensor name for synthesised scenes.
    sensor_name: str = "MSG2"
    #: Fault-tolerance knobs; library defaults when unset.
    fault_policy: Optional[FaultPolicy] = None
    #: ``"degrade"`` — failures become non-``ok`` outcomes (the
    #: crisis-day contract: no exception escapes ``run``);
    #: ``"raise"`` — the first failure propagates (legacy semantics).
    on_error: str = "degrade"

    def validate(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.fault_policy is not None:
            self.fault_policy.validate()

    def policy(self) -> FaultPolicy:
        return (
            self.fault_policy
            if self.fault_policy is not None
            else FaultPolicy()
        )
