"""The fault-aware acquisition runtime: stage one of every acquisition.

Stage one — resolve the request, apply any injected data faults,
validate the input, run the processing chain — goes through
:func:`run_stage_one`, which the service's retry loop calls once per
attempt:

* **resolution** (:func:`resolve_request`): timestamps synthesise a
  scene, scenes optionally become HRIT segment files, monitor-dispatched
  acquisitions expose their archived paths, raw chain inputs pass
  through,
* **fault application**: active ``corrupt-segment`` / ``drop-band``
  specs of the installed :class:`repro.faults.FaultPlan` mangle the
  input (first attempt only — data faults are facts about the input,
  not flakiness),
* **validation + quarantine** (:func:`prepare_chain_input`): every
  segment file's header is decoded; undecodable files move to the
  dead-letter box under ``<workdir>/dead_letter`` with a reason record,
* **degradation**: an acquisition that lost one band entirely (or lost
  segments of it) is rebuilt as a *single-band* scene —

  - missing **IR_108**: the 10.8 µm background is substituted with a
    climatological cap (``BACKGROUND_108_K``), which reduces the
    Figure 4 classifier to its 3.9 µm tests (the difference and
    σ10.8 criteria become trivially true over hot pixels),
  - missing **IR_039**: 3.9 µm is *the* fire channel; detection is
    suppressed (the scene yields no hotspots) but the acquisition still
    flows end to end so dissemination and accounting see it,

* an acquisition that lost **both** bands raises
  :class:`repro.errors.AcquisitionFailed` — a permanent error the
  service turns into an ``status="error"`` outcome.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.products import HotspotProduct
from repro.errors import AcquisitionFailed, ReproError
from repro.faults import DeadLetterBox, FaultPlan, active_plan, trip
from repro.seviri.hrit import (
    image_metadata,
    read_hrit_image,
    segment_paths_for,
    write_hrit_segments,
)
from repro.seviri.scene import SceneImage

__all__ = [
    "BACKGROUND_108_K",
    "PrepareNotes",
    "StageOneResult",
    "prepare_chain_input",
    "resolve_request",
    "run_stage_one",
    "request_identity",
    "resume_filter",
]

#: Climatological 10.8 µm background (K) substituted for a missing
#: IR_108 band — cool enough that every fire pixel passes the
#: ``v039 - v108`` difference tests, warm enough that the σ10.8
#: texture test stays quiet.
BACKGROUND_108_K = 290.0

#: Band order of a two-band chain-input tuple.
_BANDS = ("IR_039", "IR_108")


@dataclass
class PrepareNotes:
    """What the guard did to one acquisition's input."""

    degraded: bool = False
    reasons: List[str] = field(default_factory=list)
    #: Dead-lettered file paths (the reason records live on disk).
    quarantined: List[str] = field(default_factory=list)
    missing_bands: List[str] = field(default_factory=list)

    def note(self, reason: str, degraded: bool = True) -> None:
        self.reasons.append(reason)
        if degraded:
            self.degraded = True


@dataclass
class StageOneResult:
    """Stage one's product plus everything stage two must know."""

    index: int
    product: HotspotProduct
    notes: PrepareNotes
    #: Wall seconds stage one consumed, *including* injected delays and
    #: guard work — what the budget decision in stage two is based on
    #: (``product.processing_seconds`` covers only the chain proper).
    stage_seconds: float = 0.0


def scene_to_chain_input(
    scene: SceneImage, use_files: bool, workdir: str
):
    """What the processing chain consumes for ``scene``.

    In-memory mode hands the scene straight over; file mode writes the
    two IR bands as HRIT segment directories (full fidelity: the vault
    ingests them like downlinked data).
    """
    if not use_files:
        return scene
    stamp = scene.timestamp.strftime("%Y%m%d%H%M%S")
    dir039 = os.path.join(workdir, f"{stamp}_039")
    dir108 = os.path.join(workdir, f"{stamp}_108")
    write_hrit_segments(
        dir039, scene.sensor_name, "IR_039", scene.timestamp, scene.t039
    )
    write_hrit_segments(
        dir108, scene.sensor_name, "IR_108", scene.timestamp, scene.t108
    )
    return (dir039, dir108)


def resolve_request(
    item: object,
    *,
    scene_generator=None,
    season=None,
    sensor_name: str = "MSG2",
    use_files: bool = False,
    workdir: Optional[str] = None,
):
    """Turn any accepted request into what the chain consumes.

    Mirrors the service entry points: a bare timestamp (scene synthesis
    happens here), a :class:`~repro.seviri.scene.SceneImage`, a
    monitor-dispatched acquisition exposing ``chain_input``, or a raw
    chain input.
    """
    if isinstance(item, datetime):
        if scene_generator is None:
            raise AcquisitionFailed(
                "timestamp request needs a scene generator"
            )
        item = scene_generator.generate(
            item, season, sensor_name=sensor_name
        )
    if isinstance(item, SceneImage):
        return scene_to_chain_input(item, use_files, workdir or ".")
    if hasattr(item, "chain_input"):
        return item.chain_input
    return item


def request_identity(
    item: object,
) -> Tuple[Optional[datetime], Optional[str]]:
    """Best-effort (timestamp, sensor) of a request, for failure
    outcomes whose input never decoded."""
    if isinstance(item, datetime):
        return item, None
    if isinstance(item, SceneImage):
        return item.timestamp, item.sensor_name
    timestamp = getattr(item, "timestamp", None)
    sensor = getattr(item, "sensor", None)
    if timestamp is not None:
        return timestamp, sensor
    if isinstance(item, tuple) and len(item) == 2:
        for paths in item:
            for path in _expand(paths):
                try:
                    header = image_metadata([path])[0]
                except (ReproError, OSError):
                    continue
                return header.timestamp, header.sensor
    return None, None


def resume_filter(
    requests, last_committed: Optional[datetime]
) -> Tuple[list, int]:
    """Drop requests the durable acquisition cursor already covers.

    Returns ``(pending, skipped)``.  A recovered service resumes a
    replayed request stream *after* the last committed acquisition:
    anything whose :func:`request_identity` timestamp is at or before
    ``last_committed`` is already in the store and must not be
    reprocessed.  Requests whose timestamp cannot be resolved (or
    cannot be compared — naive vs aware datetimes) are conservatively
    processed.
    """
    if last_committed is None:
        return list(requests), 0
    pending = []
    skipped = 0
    for item in requests:
        timestamp, _sensor = request_identity(item)
        covered = False
        if timestamp is not None:
            try:
                covered = timestamp <= last_committed
            except TypeError:
                covered = False
        if covered:
            skipped += 1
        else:
            pending.append(item)
    return pending, skipped


def _expand(paths) -> List[str]:
    """A band's input as an explicit file list."""
    if paths is None:
        return []
    if isinstance(paths, (str, os.PathLike)):
        path = str(paths)
        if os.path.isdir(path):
            return segment_paths_for(path)
        return [path]
    return [str(p) for p in paths]


def _corrupt_file(path: str, rng) -> None:
    """Overwrite ``path`` with deterministic garbage (header included)."""
    size = max(64, min(os.path.getsize(path), 4096))
    with open(path, "r+b") as f:
        f.write(bytes(rng.randrange(256) for _ in range(size)))


def _validate_band(
    band: str,
    paths: Sequence[str],
    box: Optional[DeadLetterBox],
    notes: PrepareNotes,
) -> List[str]:
    """Header-check every segment file; quarantine the undecodable.

    Returns the surviving paths **only if** they assemble a complete
    image; an incomplete band returns ``[]`` (unusable).
    """
    good: List[str] = []
    expected: Optional[int] = None
    seen = set()
    for path in paths:
        try:
            header = image_metadata([path])[0]
        except (ReproError, OSError) as error:
            notes.note(
                f"{band}: quarantined undecodable segment "
                f"{os.path.basename(path)}"
            )
            if box is not None and os.path.exists(path):
                box.quarantine(
                    path,
                    reason="undecodable-segment",
                    site=f"prepare.{band}",
                    error=error,
                )
                notes.quarantined.append(path)
            continue
        expected = header.segment_count
        if header.segment_index not in seen:
            seen.add(header.segment_index)
            good.append(path)
    if expected is None or len(seen) < expected:
        if good:
            notes.note(
                f"{band}: incomplete after quarantine "
                f"({len(seen)}/{expected} segments)"
            )
        return []
    return good


def _degraded_scene(
    timestamp: datetime,
    sensor: str,
    available_band: str,
    image: np.ndarray,
) -> SceneImage:
    """A single-band acquisition rebuilt as a full scene (see module
    docstring for the substitution semantics)."""
    if available_band == "IR_039":
        t039 = image
        t108 = np.minimum(image, BACKGROUND_108_K)
    else:
        t108 = image
        t039 = image.copy()
    return SceneImage(
        timestamp=timestamp, t039=t039, t108=t108, sensor_name=sensor
    )


def prepare_chain_input(
    chain_input,
    *,
    index: Optional[int] = None,
    attempt: int = 1,
    workdir: Optional[str] = None,
    plan: Optional[FaultPlan] = None,
) -> Tuple[object, PrepareNotes]:
    """Apply data faults, validate, quarantine and degrade one input.

    Returns the (possibly rewritten) chain input plus the
    :class:`PrepareNotes` describing every intervention.
    """
    if plan is None:
        plan = active_plan()
    notes = PrepareNotes()

    if isinstance(chain_input, SceneImage):
        if plan is not None and attempt == 1:
            for spec in plan.match("drop-band", "*", index, attempt):
                band = spec.band or "IR_039"
                keep = "IR_108" if band == "IR_039" else "IR_039"
                image = (
                    chain_input.t108
                    if keep == "IR_108"
                    else chain_input.t039
                )
                notes.note(f"band {band} dropped; single-band mode")
                notes.missing_bands.append(band)
                chain_input = _degraded_scene(
                    chain_input.timestamp,
                    chain_input.sensor_name,
                    keep,
                    image,
                )
        return chain_input, notes

    if not (isinstance(chain_input, tuple) and len(chain_input) == 2):
        return chain_input, notes  # raw arrays etc. — nothing to guard

    band_paths = {
        band: _expand(paths)
        for band, paths in zip(_BANDS, chain_input)
    }

    if plan is not None and attempt == 1:
        for spec in plan.match("drop-band", "*", index, attempt):
            band = spec.band or "IR_039"
            if band_paths.get(band):
                band_paths[band] = []
                notes.note(f"band {band} dropped; single-band mode")
        for spec in plan.match("corrupt-segment", "*", index, attempt):
            victims = (
                band_paths.get(spec.band, [])
                if spec.band
                else [p for ps in band_paths.values() for p in ps]
            )
            victims = [v for v in victims if os.path.exists(v)]
            if victims:
                rng = plan.rng_for("corrupt-segment", (index, spec.spec_id))
                _corrupt_file(rng.choice(sorted(victims)), rng)

    box = (
        DeadLetterBox(os.path.join(workdir, "dead_letter"))
        if workdir
        else None
    )
    usable = {
        band: _validate_band(band, paths, box, notes)
        for band, paths in band_paths.items()
        if paths
    }
    usable = {band: paths for band, paths in usable.items() if paths}
    missing = [band for band in _BANDS if band not in usable]

    if not missing:
        return (usable["IR_039"], usable["IR_108"]), notes

    if not usable:
        raise AcquisitionFailed(
            "no usable band in acquisition input: "
            + "; ".join(notes.reasons or ["empty input"])
        )

    (band, paths), = usable.items()
    header, image = read_hrit_image(paths)
    for lost in missing:
        if lost not in notes.missing_bands:
            notes.missing_bands.append(lost)
    notes.note(
        f"single-band mode on {band}"
        + (
            " (detection suppressed: 3.9 um band lost)"
            if band == "IR_108"
            else f" (IR_108 background substituted at "
            f"{BACKGROUND_108_K:g} K)"
        )
    )
    scene = _degraded_scene(header.timestamp, header.sensor, band, image)
    return scene, notes


def run_stage_one(
    chain,
    request: object,
    *,
    index: int,
    attempt: int = 1,
    workdir: Optional[str] = None,
    plan: Optional[FaultPlan] = None,
    scene_generator=None,
    season=None,
    sensor_name: str = "MSG2",
    use_files: bool = False,
) -> StageOneResult:
    """Resolve, guard and run the chain for one acquisition attempt."""
    start = time.perf_counter()
    resolved = resolve_request(
        request,
        scene_generator=scene_generator,
        season=season,
        sensor_name=sensor_name,
        use_files=use_files,
        workdir=workdir,
    )
    prepared, notes = prepare_chain_input(
        resolved,
        index=index,
        attempt=attempt,
        workdir=workdir,
        plan=plan,
    )
    trip("stage.chain", index, attempt)
    product = chain.process(prepared)
    return StageOneResult(
        index=index,
        product=product,
        notes=notes,
        stage_seconds=time.perf_counter() - start,
    )
