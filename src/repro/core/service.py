"""The end-to-end real-time fire monitoring service.

Ties everything together the way Figure 3 draws it: acquisitions flow
from the (simulated) satellite through the data vault into the processing
chain (SciQL over MonetDB), products are annotated in stRDF, refined with
linked geospatial data (stSPARQL over Strabon), and disseminated as
shapefiles and thematic map layers.

The service has one configuration, the paper's improved one: SciQL
chain plus semantic refinement.  The pre-TELEIOS baseline of Figure 1
is :class:`~repro.core.legacy.LegacyChain`, which the experiments and
examples time on its own over the same scenes.

The public surface is one constructor plus one batch method::

    service = FireMonitoringService(config=ServiceConfig(use_files=True))
    outcomes = service.run(whens, RunOptions(season=season))

Each acquisition runs to completion before the next starts: stage one
(resolve, guard, SciQL chain) then stage two (stSPARQL refinement,
archiving, commit and publish), on the calling thread.

:meth:`FireMonitoringService.run` owns the failure semantics (see
DESIGN.md, "Failure semantics"): stage one is retried under the
:class:`~repro.core.config.FaultPolicy`'s budget, undecodable segments
are quarantined, single-band acquisitions run degraded, refinement is
skipped or truncated when the real-time window demands it, and with
``on_error="degrade"`` (the default) **no exception escapes** — every
request yields an :class:`AcquisitionOutcome` whose ``status`` /
``errors`` say what happened; ``RunOptions(on_error="raise")``
propagates the first failure instead.  :meth:`serve_sharded` starts the
scatter-gather serving tier (``repro.serve.shard`` /
``repro.serve.router``) over this service's snapshot publications.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Deque, Dict, Iterable, List, Optional

from repro.core.archive import ProductArchive
from repro.core.config import FaultPolicy, RunOptions, ServiceConfig
from repro.core.products import HotspotProduct
from repro.core.refinement import OperationTiming, RefinementPipeline
from repro.core.runtime import (
    request_identity,
    resume_filter,
    run_stage_one,
)
from repro.core.sciql_chain import SciQLChain
from repro.datasets import SyntheticGreece, load_auxiliary_data
from repro.durable import crashpoints
from repro.errors import ConfigurationError, ServiceStateError
from repro.faults import CircuitBreaker, DeadLetterBox, RetryPolicy
from repro.obs import (
    SloEngine,
    TraceContext,
    context_of,
    get_flight_recorder,
    get_metrics,
    get_tracer,
)
from repro.obs import budget as _budget
from repro.obs import flightrec as _flightrec
from repro.rdf.graph import Graph, Op
from repro.serve.subscribe import delta_from_ops
from repro.seviri.geo import GeoReference, RawGrid, TargetGrid
from repro.seviri.scene import SceneGenerator
from repro.shapefile import write_shapefile
from repro.stsparql import Strabon

_log = logging.getLogger(__name__)
_tracer = get_tracer()
_metrics = get_metrics()

#: Outcome ``status`` values, from best to worst.
OUTCOME_STATUSES = ("ok", "degraded", "error")

#: Configuration keys a ``service.json`` may carry from before the
#: service had one configuration, each with the one value the service
#: now always runs with.
_RETIRED_CONFIG = {"mode": "teleios", "clouds_per_scene": 0.0}

#: Full refinements the "can stage two still fit the window?" estimate
#: averages over.
_REFINE_HISTORY = 8


@dataclass
class AcquisitionOutcome:
    """Everything the service produced for one acquisition.

    ``status`` is ``"ok"`` (full two-band processing, full refinement),
    ``"degraded"`` (the acquisition completed but something was
    sacrificed — a band, some segments, part or all of refinement;
    ``errors`` lists each sacrifice) or ``"error"`` (stage one failed
    permanently: no product; ``errors`` holds the failure).
    """

    timestamp: Optional[datetime]
    sensor: str
    raw_product: Optional[HotspotProduct] = None
    refined_count: Optional[int] = None
    chain_seconds: float = 0.0
    refinement_timings: List[OperationTiming] = field(default_factory=list)
    status: str = "ok"
    errors: List[str] = field(default_factory=list)
    #: Wall seconds of the whole first stage (synthesis/ingest + guard +
    #: chain) — what the stage-two budget decision was based on.
    stage_one_seconds: float = 0.0
    #: Distributed-trace identity of the acquisition's root span
    #: (``None`` when tracing was off) — carries the trace through the
    #: publish path after the root span has closed.
    trace_context: Optional[TraceContext] = None
    #: Per-source provenance dicts for this acquisition (multi-source
    #: federation); empty without a federation.  Rides the published
    #: snapshot so readers see which feeds contributed — including
    #: outage gaps.
    source_reports: List[Dict[str, object]] = field(
        default_factory=list
    )
    #: The run's real-time window (:attr:`FaultPolicy.window_seconds`,
    #: the 5-minute MSG1 cadence by default) that both stages must fit.
    window_seconds: float = FaultPolicy.window_seconds

    @property
    def trace_id(self) -> Optional[str]:
        ctx = self.trace_context
        return None if ctx is None else ctx.trace_id

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def refinement_seconds(self) -> float:
        return sum(t.seconds for t in self.refinement_timings)

    @property
    def within_budget(self) -> bool:
        """Both stages must fit the run's real-time window (§4.2.1)."""
        return (
            self.chain_seconds + self.refinement_seconds
        ) < self.window_seconds


class _RunState:
    """Per-run fault-tolerance machinery, shared by both stages."""

    def __init__(
        self,
        options: RunOptions,
        breaker: CircuitBreaker,
    ) -> None:
        self.options = options
        self.policy: FaultPolicy = options.policy()
        self.retry: RetryPolicy = self.policy.build_retry()
        self.breaker = breaker

    @property
    def raise_on_error(self) -> bool:
        return self.options.on_error == "raise"


class FireMonitoringService:
    """The NOA fire monitoring service, rebuilt on TELEIOS technologies."""

    def __init__(
        self,
        greece: Optional[SyntheticGreece] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if config is None:
            config = ServiceConfig()
        config.validate()
        self.config = config
        self.greece = (
            greece if greece is not None else SyntheticGreece(config.seed)
        )
        raw = RawGrid()
        self.scene_generator = SceneGenerator(self.greece, raw=raw)
        self.georeference = GeoReference(raw, TargetGrid())
        self.use_files = config.use_files
        # A durable service keeps its working state (dead-letter box,
        # archive) *inside* state_dir so it survives restarts; only a
        # private mkdtemp directory is ever deleted by close().
        self._owns_workdir = (
            config.workdir is None and config.state_dir is None
        )
        if config.workdir is not None:
            self.workdir = config.workdir
        elif config.state_dir is not None:
            self.workdir = os.path.join(config.state_dir, "work")
            os.makedirs(self.workdir, exist_ok=True)
        else:
            self.workdir = tempfile.mkdtemp(prefix="noa_service_")
        self._closed = False
        self.archive: Optional[ProductArchive] = (
            ProductArchive(os.path.join(self.workdir, "archive"))
            if config.archive_products
            else None
        )
        self.chain = SciQLChain(self.georeference)
        self.strabon = Strabon()
        if config.state_dir is None:
            load_auxiliary_data(self.strabon, self.greece)
        # Multi-source acquisition federation: polar orbiter + weather
        # stations behind per-source drivers; the refinement pipeline
        # grows the ingest / cross-confirm / static-source stages when
        # present.
        sources_config = config.sources_config()
        if sources_config is not None:
            from repro.sources import SourceFederation

            self.sources: Optional[SourceFederation] = (
                SourceFederation.from_config(sources_config, self.greece)
            )
        else:
            self.sources = None
        self.refinement = RefinementPipeline(
            self.strabon, federation=self.sources
        )
        #: Every accounted acquisition, in order; the budget report,
        #: ``health()`` and the BENCH_obs snapshot all read it.
        self.outcomes: List[AcquisitionOutcome] = []
        self._status_counts: Dict[str, int] = {
            s: 0 for s in OUTCOME_STATUSES
        }
        #: Refinement circuit breaker shared by runs that do not bring
        #: their own :class:`FaultPolicy` (a run with an explicit policy
        #: gets a fresh breaker so repeated runs behave identically).
        self._breaker = FaultPolicy().build_breaker()
        #: Recent full-refinement wall times driving the "can stage two
        #: still fit the window?" estimate.
        self._refine_history: Deque[float] = deque(maxlen=_REFINE_HISTORY)
        #: Rolling error-budget accounting for the 300 s acquisition
        #: budget and the serving-latency objective (the HTTP tier
        #: records into the same engine).
        self.slo = SloEngine(metrics=_metrics)
        self.slo.on_alert.append(self._on_slo_alert)
        #: Summary of the flight-recorder dump a previous crash left
        #: behind (``None`` on a clean start); surfaced in health().
        self._crash_report: Optional[Dict[str, object]] = None
        #: Durable state (``repro.durable``), populated by
        #: :meth:`_open_durable` when the config names a ``state_dir``.
        self.durable = None
        self.recovery = None
        self._committed_acquisitions = 0
        self._last_committed_timestamp: Optional[datetime] = None
        self._last_wal_seq: Optional[int] = None
        self._resume_skipped = 0
        if config.state_dir is not None:
            self._open_durable(config)
        else:
            # An auxiliary-data-only snapshot is published immediately
            # so /hotspots is answerable (empty) before the first
            # acquisition lands.
            self._open_serving()
            self.publisher.publish(self.strabon)

    def _open_serving(
        self,
        start_sequence: int = 0,
        subs_dir: Optional[str] = None,
        fsync: str = "commit",
    ) -> None:
        """Start the graph's mutation journal and build the publisher
        (the serving layer's write → read hand-off) and the
        continuous-query engine (``repro.serve.subscribe``), once the
        store holds its starting state (auxiliary data loaded, or the
        durable state recovered).

        From here on the graph records every mutation; each commit
        drains that one op list for the WAL record and the delta the
        engine and the publisher's hotspot table consume.
        """
        from repro.obs.slo import NOTIFICATION_SLO
        from repro.serve.state import SnapshotPublisher
        from repro.serve.subscribe import SubscriptionEngine

        self.strabon.graph.start_journal()
        self.publisher = SnapshotPublisher(start_sequence=start_sequence)
        self.slo.register(NOTIFICATION_SLO)
        self.subscriptions = SubscriptionEngine(
            state_dir=subs_dir, fsync=fsync, slo=self.slo
        )
        self.subscriptions.bind(self.strabon, self.publisher)

    # -- durability --------------------------------------------------------

    @classmethod
    def open(
        cls,
        state_dir: str,
        greece: Optional[SyntheticGreece] = None,
        **config_overrides,
    ) -> "FireMonitoringService":
        """Open (or create) a durable service rooted at ``state_dir``.

        On a directory that already holds committed state, the saved
        configuration is restored (explicit ``config_overrides`` win),
        the graph is rebuilt from checkpoint + WAL replay, and the
        service resumes exactly after the last committed acquisition —
        replaying the original request stream through :meth:`run` skips
        everything already committed.  ``greece`` should be the same
        geography used originally when timestamps will be re-requested
        (only scene *synthesis* depends on it; the semantic store comes
        from disk).
        """
        from repro.durable import load_service_state

        saved = load_service_state(
            os.path.join(state_dir, "service.json")
        )
        kwargs: Dict[str, object] = {}
        if saved is not None:
            kwargs.update(saved.get("config", {}))
        for key, kept in _RETIRED_CONFIG.items():
            if key in kwargs and kwargs.pop(key) != kept:
                raise ConfigurationError(
                    f"{state_dir}: saved configuration key {key!r} must "
                    f"be {kept!r}, the only value the service runs with"
                )
        kwargs.update(config_overrides)
        kwargs["state_dir"] = state_dir
        return cls(greece=greece, config=ServiceConfig(**kwargs))

    def _open_durable(self, config: ServiceConfig) -> None:
        """Attach (creating or recovering) the durable state under
        ``config.state_dir``; see DESIGN.md for the commit order."""
        from repro.durable import (
            DurableStore,
            load_service_state,
            save_service_state,
        )

        state_dir = config.state_dir
        assert state_dir is not None
        os.makedirs(state_dir, exist_ok=True)
        self._open_flight_recorder(state_dir)
        durable_dir = os.path.join(state_dir, "durable")
        fresh = not DurableStore.exists(durable_dir)
        state_path = os.path.join(state_dir, "service.json")
        floor = int(
            (load_service_state(state_path) or {}).get(
                "published_sequence", 0
            )
        )

        def save_state(start_sequence: int) -> None:
            # The one service.json write per open: what the next open
            # needs before the store is open (the configuration) plus
            # the sequence floor — the number this open's first
            # publication is about to use, so written before any
            # reader can see it.
            save_service_state(
                state_path,
                {
                    "version": 2,
                    "published_sequence": start_sequence + 1,
                    "config": config.to_dict(),
                },
                fsync=config.wal_fsync != "never",
            )

        with _tracer.span("durable.open", fresh=fresh):
            if fresh:
                load_auxiliary_data(self.strabon, self.greece)
                # Before the baseline checkpoint: a crash after it must
                # still find the configuration.
                save_state(floor)
            # Recovery rebuilds the term dictionary id for id, so it
            # starts from an empty graph; the checkpoint holds the
            # ontology the refinement pipeline loaded into this one.
            self.durable = DurableStore(
                durable_dir,
                graph=self.strabon.graph if fresh else Graph(),
                fsync=config.wal_fsync,
                checkpoint_interval=config.checkpoint_interval,
            )
            if not fresh:
                # The engine serves the recovered graph, and derived
                # indexes (R-tree, candidate memo, memoised view,
                # inference closure) must not outlive their source.
                self.strabon.reset_derived(self.durable.graph)
        self.recovery = self.durable.recovery
        # The newest commit's metadata (its WAL record, or else the
        # checkpoint that compacted it) is the whole service cursor.
        meta = (
            self.recovery.last_meta if self.recovery is not None else None
        ) or {}
        counts = meta.get("status_counts") or {}
        for status in OUTCOME_STATUSES:
            self._status_counts[status] = int(counts.get(status, 0))
        if meta.get("breaker") == "open":
            for _ in range(self._breaker.failure_threshold):
                self._breaker.record_failure()
        # URI namespacing must continue where the recovered
        # acquisitions left off, never restart at zero.
        self.refinement.product_count = int(meta.get("product_count", 0))
        self._committed_acquisitions = int(meta.get("committed", 0))
        last_ts = meta.get("timestamp")
        self._last_committed_timestamp = (
            datetime.fromisoformat(last_ts) if last_ts else None
        )
        # Publication numbering must never regress for a polling
        # reader: resume above the sequence the newest commit reserved
        # and the previous open's floor (no commit may have followed
        # it).  Durable subscription state rides in state_dir/subs/ —
        # the registry log (registrations, removals, acknowledged
        # cursors) and the notification log — and the at-most-one
        # notification batch a crash can have swallowed (committed to
        # the WAL, never logged) is regenerated before readers
        # reconnect, stamped with the imminent initial publication's
        # sequence.
        start_sequence = max(int(meta.get("sequence", 0)), floor)
        if not fresh:
            save_state(start_sequence)
        self._open_serving(
            start_sequence=start_sequence,
            subs_dir=os.path.join(state_dir, "subs"),
            fsync=config.wal_fsync,
        )
        recovery = self.recovery
        repaired = self.subscriptions.repair_tail(
            None if recovery is None else recovery.last_seq,
            None if recovery is None else recovery.last_ops,
            sequence=self.publisher.sequence + 1,
        )
        self.publisher.publish(
            self.strabon, timestamp=self._last_committed_timestamp
        )
        if repaired is not None:
            self.subscriptions.publish_batch(repaired)
        _log.info(
            "durable state at %s: %s (committed=%d, published_seq=%d)",
            state_dir,
            "fresh" if fresh else "recovered",
            self._committed_acquisitions,
            self.publisher.sequence,
        )

    def _open_flight_recorder(self, state_dir: str) -> None:
        """Point the flight recorder at ``state_dir/flightrec/`` and
        surface the dump a previous crash may have left there."""
        recorder = get_flight_recorder()
        recorder.configure(os.path.join(state_dir, "flightrec"))
        dump = _flightrec.latest_dump(recorder.dump_dir)
        if dump is None:
            return
        events = dump.get("events", [])
        last = events[-1] if events else None
        self._crash_report = {
            "path": dump.get("path"),
            "reason": dump.get("reason"),
            "pid": dump.get("pid"),
            "dumped_at": dump.get("dumped_at"),
            "events": len(events),
            "last_event": (
                None
                if last is None
                else {
                    "kind": last.get("kind"),
                    "name": last.get("name"),
                    "trace_id": last.get("trace_id"),
                }
            ),
        }
        with _tracer.span(
            "flightrec.recovered",
            reason=str(dump.get("reason")),
            events=len(events),
        ):
            recorder.record(
                "recovery",
                "flightrec.loaded",
                reason=dump.get("reason"),
                path=dump.get("path"),
            )
        _log.warning(
            "previous crash left flight-recorder dump %s (reason=%s, "
            "%d event(s))",
            dump.get("path"),
            dump.get("reason"),
            len(events),
        )

    def _durable_commit(
        self, outcome: AcquisitionOutcome, ops: List[Op]
    ) -> None:
        """Make one acquisition durable, *then* let it publish.

        The WAL append of ``ops`` + fsync is **the commit point** and
        the acquisition's only durable write: its metadata carries the
        whole service cursor — the acquisition count and timestamp,
        cumulative status counts, breaker state, the product count, and
        the sequence the imminent publication will use (reserved
        *before* publishing, so a restart never reuses an observed
        sequence number).  The caller then publishes and compacts.
        Refinement wall times stay out: they measure this process, and
        durable bytes must follow the input alone.
        """
        if self.durable is None:
            return
        with _tracer.span(
            "durable.commit",
            acquisition=self._committed_acquisitions + 1,
        ):
            self._committed_acquisitions += 1
            self._last_committed_timestamp = outcome.timestamp
            self._last_wal_seq = self.durable.commit(
                ops,
                meta={
                    "committed": self._committed_acquisitions,
                    "timestamp": (
                        None
                        if outcome.timestamp is None
                        else outcome.timestamp.isoformat()
                    ),
                    "status_counts": dict(self._status_counts),
                    "breaker": self._breaker.state,
                    "product_count": self.refinement.product_count,
                    "sequence": self.publisher.sequence + 1,
                },
            )
            crashpoints.crash("commit.pre-publish")

    # -- lifecycle ---------------------------------------------------------

    @property
    def dead_letters(self) -> DeadLetterBox:
        """The quarantine box for undecodable input of this service."""
        return DeadLetterBox(os.path.join(self.workdir, "dead_letter"))

    def close(self) -> None:
        """Release the working directory (idempotent).

        The service used to leak one ``mkdtemp`` directory per instance;
        directories the service created are now removed here, while a
        caller-supplied ``workdir`` is left alone.
        """
        if self._closed:
            return
        self._closed = True
        self.subscriptions.close()
        if self.durable is not None:
            self.durable.close()
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "FireMonitoringService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the batch entry point ---------------------------------------------

    def run(
        self,
        requests: Iterable,
        options: Optional[RunOptions] = None,
    ) -> List[AcquisitionOutcome]:
        """Process a batch of acquisition requests, in order.

        ``requests`` may hold timestamps (scenes are synthesised),
        :class:`~repro.seviri.scene.SceneImage` objects, acquisitions
        dispatched by a :class:`~repro.seviri.monitor.SeviriMonitor`, or
        raw chain inputs — mixed freely.  ``options`` selects the scene
        synthesis inputs and the failure semantics; see the module
        docstring.
        """
        if self._closed:
            raise ServiceStateError("service is closed")
        options = options if options is not None else RunOptions()
        options.validate()
        if self.sources is not None:
            # Bind the season to the federation (polar detections
            # sample its ground truth) and seed the static-site
            # catalogue before any scene is synthesised; scenes come
            # from the federation's copy, which holds the static
            # sites' heat.  Idempotent.
            options = replace(
                options,
                season=self.sources.prepare(
                    options.season, self.strabon.graph
                ),
            )
        if self._last_committed_timestamp is not None:
            # Resuming a replayed request stream: acquisitions at or
            # before the durable cursor are already in the store.
            requests, skipped = resume_filter(
                requests, self._last_committed_timestamp
            )
            if skipped:
                self._resume_skipped += skipped
                _log.info(
                    "resume: skipped %d already-committed "
                    "acquisition(s) at or before %s",
                    skipped,
                    self._last_committed_timestamp,
                )
                if _metrics.enabled:
                    _metrics.counter(
                        "service_resume_skipped_total",
                        "Requests skipped as already committed",
                    ).inc(skipped)
        breaker = (
            self._breaker
            if options.fault_policy is None
            else options.fault_policy.build_breaker()
        )
        state = _RunState(options, breaker)
        return [
            self._run_one(request, index, state)
            for index, request in enumerate(requests)
        ]

    # -- stage one ---------------------------------------------------------

    def _stage_one_with_retry(self, request, index: int, state: _RunState):
        """Resolve + guard + chain, under the retry policy.

        The attempt counter increments per invocation — the number the
        fault plan matches on, so a ``raise_in("stage.chain", times=2)``
        spec fails exactly the first two attempts.
        """
        attempt = 0

        def once():
            nonlocal attempt
            attempt += 1
            return run_stage_one(
                self.chain,
                request,
                index=index,
                attempt=attempt,
                workdir=self.workdir,
                scene_generator=self.scene_generator,
                season=state.options.season,
                sensor_name=state.options.sensor_name,
                use_files=self.use_files,
            )

        return state.retry.call(
            once, key=("stage-one", index), site="stage.chain"
        )

    def _run_one(
        self, request, index: int, state: _RunState
    ) -> AcquisitionOutcome:
        with _tracer.span("acquisition") as root:
            try:
                result = self._stage_one_with_retry(request, index, state)
            except Exception as error:
                if state.raise_on_error:
                    raise
                outcome = self._failure_outcome(
                    request, error, root, state
                )
                self._account_outcome(outcome)
                return outcome
            outcome = self._stage_two(result, state, root)
        self._account_outcome(outcome)
        return outcome

    def _failure_outcome(
        self, request, error: BaseException, root, state: _RunState
    ) -> AcquisitionOutcome:
        timestamp, sensor = request_identity(request)
        outcome = AcquisitionOutcome(
            timestamp=timestamp,
            sensor=sensor or "",
            status="error",
            errors=[f"{type(error).__name__}: {error}"],
            trace_context=context_of(root),
            window_seconds=state.policy.window_seconds,
        )
        root.set(status="error", error=type(error).__name__)
        _log.error(
            "acquisition %s failed permanently: %s",
            timestamp if timestamp is not None else "<unresolved>",
            outcome.errors[0],
        )
        return outcome

    # -- stage two ---------------------------------------------------------

    def _refine_estimate(self, state: _RunState) -> float:
        """Expected stage-two seconds: the policy's static reserve or
        the rolling mean of recent full refinements, whichever is
        larger."""
        history = self._refine_history
        rolling = sum(history) / len(history) if history else 0.0
        return max(state.policy.refinement_reserve_s, rolling)

    def _stage_two(
        self, result, state: _RunState, root
    ) -> AcquisitionOutcome:
        """Refine, archive and flag one stage-one product under the
        acquisition's ``root`` span.

        Every degradation decision (circuit open, window exhausted,
        refinement failure, truncation) lands in the outcome's
        ``errors`` and flips ``status`` to ``"degraded"``.
        """
        product = result.product
        outcome = AcquisitionOutcome(
            timestamp=product.timestamp,
            sensor=product.sensor,
            raw_product=product,
            chain_seconds=product.processing_seconds,
            stage_one_seconds=result.stage_seconds,
            errors=list(result.notes.reasons),
            trace_context=context_of(root),
            window_seconds=state.policy.window_seconds,
        )
        degraded = result.notes.degraded
        with _tracer.span("stage.refine", hotspots=len(product)):
            degraded |= not self._refine(product, result, state, outcome)
            if self.archive is not None:
                self.archive.store(product)
        if degraded:
            outcome.status = "degraded"
        root.set(
            sensor=outcome.sensor,
            timestamp=str(outcome.timestamp),
            raw_hotspots=len(product),
            refined_hotspots=outcome.refined_count,
            status=outcome.status,
        )
        if degraded:
            root.set(degraded=True)
        return outcome

    def _refine(
        self, product, result, state: _RunState, outcome
    ) -> bool:
        """Stage-two refinement under breaker + window pressure.

        Returns True only for a *full* refinement — anything less
        (skip, truncation, failure) degrades the outcome.
        """
        refinement = self.refinement
        remaining = state.policy.window_seconds - result.stage_seconds
        if not state.breaker.allow():
            return self._degrade(
                outcome,
                "breaker-open",
                "refinement skipped: circuit breaker open",
            )
        if remaining <= 0 or self._refine_estimate(state) > remaining:
            return self._degrade(
                outcome,
                "window-exhausted",
                f"refinement skipped: {remaining:.1f}s left of the "
                f"{state.policy.window_seconds:g}s window",
            )
        deadline = time.monotonic() + remaining
        try:
            outcome.refinement_timings = refinement.refine_acquisition(
                product, deadline=deadline, fault_index=result.index
            )
        except Exception as error:
            state.breaker.record_failure()
            if state.raise_on_error:
                raise
            return self._degrade(
                outcome,
                "refinement-failed",
                f"refinement failed: {type(error).__name__}: {error}",
            )
        state.breaker.record_success()
        if outcome.refinement_timings:
            outcome.refined_count = len(
                refinement.surviving_hotspots(product.timestamp)
            )
        full = len(outcome.refinement_timings) == len(
            refinement.operations
        )
        if full:
            self._refine_history.append(outcome.refinement_seconds)
        else:
            self._degrade(
                outcome,
                "refinement-truncated",
                f"refinement truncated at the window deadline "
                f"({len(outcome.refinement_timings)}/"
                f"{len(refinement.operations)} operations)",
            )
        # Losing a federated source is its own degradation-ladder
        # rung: the acquisition keeps serving on the remaining feeds
        # and the gap rides the provenance the snapshot publishes.
        gaps = []
        ran_ingest = any(
            t.operation == "Source Ingest"
            for t in outcome.refinement_timings
        )
        if self.sources is not None and ran_ingest:
            reports = refinement.last_source_reports
            outcome.source_reports = [r.to_dict() for r in reports]
            gaps = [r for r in reports if r.is_gap]
            if gaps:
                self._degrade(
                    outcome,
                    "source-outage",
                    *(
                        f"source {gap.source} unavailable "
                        f"({gap.status}): {gap.error}"
                        for gap in gaps
                    ),
                )
        return full and not gaps

    def _on_slo_alert(self, alert: Dict[str, object]) -> None:
        """Structured alert sink: log + flight recorder."""
        get_flight_recorder().record(
            "alert",
            f"slo.{alert['slo']}",
            trace_id=alert.get("trace_id"),
            state=alert["state"],
            short_burn_rate=alert["short_burn_rate"],
            long_burn_rate=alert["long_burn_rate"],
        )
        log = (
            _log.warning
            if alert["state"] == "burning"
            else _log.info
        )
        log(
            "SLO %s %s (burn rate short=%.2f long=%.2f, threshold %.2f)",
            alert["slo"],
            alert["state"],
            alert["short_burn_rate"],
            alert["long_burn_rate"],
            alert["threshold"],
        )

    def _degrade(self, outcome, reason: str, *errors: str) -> bool:
        """One degradation-ladder rung: note ``errors`` on the outcome
        and count ``reason``; returns False, the rung's verdict."""
        outcome.errors.extend(errors)
        get_flight_recorder().record("degradation", reason)
        if _metrics.enabled:
            _metrics.counter(
                "acquisitions_degraded_total",
                "Acquisitions that completed in degraded mode",
            ).inc(reason=reason)
        return False

    def _account_outcome(self, outcome: AcquisitionOutcome) -> None:
        product = outcome.raw_product
        self.outcomes.append(outcome)
        self._status_counts[outcome.status] = (
            self._status_counts.get(outcome.status, 0) + 1
        )
        # Publish the refined state for readers.  Runs after stage two
        # for every acquisition that produced a product (ok *or*
        # degraded — a degraded product is still the best available
        # data), never mid-refinement: readers can only ever observe
        # complete per-acquisition states.  With durable state the
        # acquisition is made crash-proof *first* (the WAL fsync) —
        # publication follows durability, which is why a reader can
        # never observe state that a recovery would roll back.  An
        # "error" outcome mutated nothing and published nothing, so it
        # is deliberately not committed: a restart reprocesses it,
        # deterministically failing again.
        if outcome.status != "error":
            # The acquisition's root span has already closed; the
            # ambient context re-parents the publish span (and the
            # durable-commit span inside it) into the same trace.
            with _tracer.use_context(outcome.trace_context):
                with _tracer.span(
                    "service.publish",
                    sequence=self.publisher.sequence + 1,
                ):
                    # The graph's op list is the one record of the
                    # commit: drained once, framed into the WAL record
                    # and collapsed into the delta both consumers read.
                    # The subscription engine evaluates it and
                    # (durably) logs its notification batch *before*
                    # the publish, so the snapshot readers see always
                    # contains the notified state; the publisher
                    # updates the hotspot table from it; fan-out
                    # follows the publish.
                    ops = self.strabon.graph.drain_journal()
                    self._durable_commit(outcome, ops)
                    delta = delta_from_ops(ops)
                    batch = self.subscriptions.process_commit(
                        self.publisher.sequence + 1,
                        delta,
                        wal_seq=self._last_wal_seq,
                    )
                    published = self.publisher.publish(
                        self.strabon,
                        timestamp=outcome.timestamp,
                        trace_id=outcome.trace_id,
                        sources=tuple(outcome.source_reports),
                        delta=delta,
                    )
                    self.subscriptions.publish_batch(batch, published)
                    if self.durable is not None:
                        crashpoints.crash("commit.post-publish")
                        self.durable.maybe_checkpoint()
        self.slo.record(
            "acquisition-budget",
            outcome.status != "error" and outcome.within_budget,
            trace_id=outcome.trace_id,
        )
        get_flight_recorder().record(
            "acquisition",
            str(outcome.timestamp),
            trace_id=outcome.trace_id,
            status=outcome.status,
            within_budget=outcome.within_budget,
        )
        if _metrics.enabled:
            status_gauge = _metrics.gauge(
                "service_outcomes",
                "Acquisition outcomes accounted so far, by status",
            )
            for status, count in self._status_counts.items():
                status_gauge.set(count, status=status)
            _metrics.gauge(
                "service_dead_letters",
                "Quarantined undecodable inputs in the dead-letter box",
            ).set(len(self.dead_letters))
            histogram = _metrics.histogram(
                "acquisition_stage_seconds",
                "Wall seconds per acquisition, by service stage",
            )
            histogram.observe(outcome.chain_seconds, stage="chain")
            histogram.observe(
                outcome.refinement_seconds, stage="refinement"
            )
            histogram.observe(
                outcome.chain_seconds + outcome.refinement_seconds,
                stage="total",
                exemplar=outcome.trace_id,
            )
            if not outcome.within_budget:
                _metrics.counter(
                    "acquisition_deadline_misses_total",
                    "Acquisitions that overran the 5-minute window",
                ).inc()
            if outcome.status == "error":
                _metrics.counter(
                    "acquisitions_failed_total",
                    "Acquisitions that produced no product",
                ).inc()
        _log.info(
            "acquisition %s %s [%s]: %s raw / %s refined hotspot(s), "
            "chain %.3fs + refinement %.3fs%s",
            outcome.sensor,
            outcome.timestamp,
            outcome.status,
            "n/a" if product is None else len(product),
            "n/a" if outcome.refined_count is None
            else outcome.refined_count,
            outcome.chain_seconds,
            outcome.refinement_seconds,
            "" if outcome.within_budget else "  ** DEADLINE MISS **",
        )

    # -- sharded serving ---------------------------------------------------

    def serve_sharded(
        self,
        shards: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        read_workers: int = 2,
    ):
        """Start the sharded scatter-gather serving tier over this
        service's publications.

        Partitions the published store into ``shards`` spatial tiles
        (plus a catch-all for non-geometric triples), starts one HTTP
        server per shard and a router front end, and wires the shard
        tier to this service's publisher so every future acquisition
        repartitions automatically.  Returns ``(manager, router
        handle)``; stop with ``handle.stop(); manager.stop_http()``.
        """
        from repro.serve.router import serve_router_in_thread
        from repro.serve.shard import ShardManager

        manager = ShardManager(self, shards=shards)
        manager.start_http(host=host, read_workers=read_workers)
        handle = serve_router_in_thread(
            manager, host=host, port=port
        )
        return manager, handle

    # -- dissemination -----------------------------------------------------

    def export_product(
        self, product: HotspotProduct, base_path: Optional[str] = None
    ) -> str:
        """Write the product as an ESRI shapefile; returns the .shp path."""
        if base_path is None:
            stamp = product.timestamp.strftime("%Y%m%d%H%M%S")
            base_path = os.path.join(
                self.workdir, f"hotspots_{product.sensor}_{stamp}"
            )
        with _tracer.span(
            "disseminate.shapefile", hotspots=len(product)
        ) as span:
            shp, _shx, _dbf = write_shapefile(
                product.to_shapefile(), base_path
            )
            span.set(path=shp)
        product.filename = shp
        _log.debug("disseminated %d hotspot(s) to %s", len(product), shp)
        return shp

    # -- reporting -------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Machine-readable service health, as served at ``/health``.

        ``status`` reflects the *current* degradation state: ``"error"``
        when the latest acquisition produced no product, ``"degraded"``
        when it completed with sacrifices or the refinement circuit
        breaker is open, ``"ok"`` otherwise (including before the first
        acquisition).
        """
        last = self.outcomes[-1].status if self.outcomes else None
        breaker_state = self._breaker.state
        if last == "error":
            status = "error"
        elif last == "degraded" or breaker_state == "open":
            status = "degraded"
        else:
            status = "ok"
        dead = len(self.dead_letters)
        report: Dict[str, object] = {
            "status": status,
            "acquisitions": dict(self._status_counts),
            "last_acquisition_status": last,
            "circuit_breaker": breaker_state,
            "dead_letters": dead,
            "deadline_misses": _budget.budget_summary(self.outcomes)[
                "deadline_misses"
            ],
            "slo": self.slo.status(),
        }
        latest = self.publisher.latest()
        report["snapshot"] = (
            None
            if latest is None
            else {
                "sequence": latest.sequence,
                "generation": latest.generation,
                "triples": len(latest),
                "timestamp": None
                if latest.timestamp is None
                else latest.timestamp.isoformat(),
            }
        )
        report["subscriptions"] = self.subscriptions.stats()
        if self.sources is not None:
            report["sources"] = self.sources.status()
        if self.durable is not None:
            report["durability"] = {
                "state_dir": self.config.state_dir,
                "committed_acquisitions": (
                    self._committed_acquisitions
                ),
                "last_committed_timestamp": (
                    None
                    if self._last_committed_timestamp is None
                    else self._last_committed_timestamp.isoformat()
                ),
                "recovered": self.recovery is not None,
                "recovery": (
                    None
                    if self.recovery is None
                    else self.recovery.to_dict()
                ),
                "resume_skipped": self._resume_skipped,
                "wal": self.durable.stats(),
                "flight_recorder": self._crash_report,
            }
        if _metrics.enabled:
            _metrics.gauge(
                "service_dead_letters",
                "Quarantined undecodable inputs in the dead-letter box",
            ).set(dead)
        return report

    def budget_report(self) -> str:
        """The per-acquisition budget report (5-minute window, §4.2.1)
        over :attr:`outcomes`; :func:`repro.obs.budget_summary` gives
        the same numbers as a dict."""
        return _budget.budget_report(self.outcomes)
