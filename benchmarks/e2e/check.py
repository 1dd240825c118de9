"""Oracle and failure accounting.

Every operation the load generator attempts is counted in a
:class:`Ledger` (acquisitions, reads, expected notifications); every
correctness rule is a named check.  The oracle is a second,
independent run of the same requests — in-process, serial,
non-durable, unsharded — whose ``query_hotspots`` answer the served
GeoJSON must equal.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

import workloads


def features_digest(features: Iterable[dict]) -> str:
    """Canonical digest of a GeoJSON feature list (order-free)."""
    ordered = sorted(
        features, key=lambda f: f["properties"]["hotspot"]
    )
    text = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ledger:
    """Operations attempted / failed, and named correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.checks: Dict[str, bool] = {}
        self.details: List[str] = []

    def op(self, ok: bool, kind: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[kind] += 1
            if detail and len(self.details) < 20:
                self.details.append(f"{kind}: {detail}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok and len(self.details) < 20:
            self.details.append(f"check {name}: {detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class TokenWatch:
    """Consistency tokens seen on one connection never go backwards."""

    def __init__(self) -> None:
        self.last = None
        self.regressions = 0

    def see(self, text: Optional[str]) -> None:
        if not text:
            return
        from repro.serve import ConsistencyToken

        token = ConsistencyToken.decode(text)
        if self.last is not None and len(self.last.parts) == len(
            token.parts
        ):
            if token.is_behind(self.last):
                self.regressions += 1
        self.last = token


def check_notifications(
    ledger: Ledger,
    received: Sequence[Sequence],
    logged: Sequence[Sequence],
    markers: Sequence[int],
) -> Dict[str, int]:
    """SSE keys received == the durable log's, exactly once; batch
    markers arrive in strictly increasing sequence order."""
    got = Counter(tuple(key) for key in received)
    want = Counter(tuple(key) for key in logged)
    gaps = sum((want - got).values())
    duplicates = sum((got - want).values())
    for _ in range(sum(want.values()) - gaps):
        ledger.op(True, "notification")
    for _ in range(gaps):
        ledger.op(False, "notification", "logged but never streamed")
    for _ in range(duplicates):
        ledger.op(False, "notification", "duplicate or unlogged")
    ordered = all(a < b for a, b in zip(markers, markers[1:]))
    ledger.check(
        "sse_markers_ordered", ordered, f"marker sequences {markers}"
    )
    return {"gaps": gaps, "duplicates": duplicates}


def chain_inputs(plan: workloads.Plan, root: str, served: str) -> List:
    """The requests the SUT processed, as the reference run consumes
    them: the HRIT segment paths its monitor archived under
    ``served`` (the last round's directory) per acquisition, or the
    run's saved scenes."""
    from repro.seviri.scene import SceneImage
    import numpy as np

    out = []
    for index in range(plan.acquisitions):
        when = workloads.acquisition_time(index)
        if plan.workload.transport == "hrit":
            stamp = when.strftime("%Y%m%d%H%M")
            archive = os.path.join(served, "disk_array")
            bands = []
            for band in workloads.BANDS:
                bands.append(
                    sorted(
                        os.path.join(archive, name)
                        for name in os.listdir(archive)
                        if f"-{band}-{stamp}-" in name
                    )
                )
            out.append(tuple(bands))
        else:
            with np.load(scene_path(root, index)) as data:
                out.append(
                    SceneImage(
                        timestamp=when,
                        t039=data["t039"],
                        t108=data["t108"],
                        sensor_name=workloads.SENSOR,
                    )
                )
    return out


def scene_path(root: str, index: int) -> str:
    return os.path.join(root, "scenes", f"scene_{index:03d}.npz")


def reference_service(
    plan: workloads.Plan, root: str, served: str, season
):
    """Run the oracle: same requests, fresh in-memory service.  The
    caller closes the returned service."""
    from repro.core import FireMonitoringService, RunOptions

    greece = season.greece
    service = FireMonitoringService(
        greece=greece,
        config=workloads.service_config(
            plan.workload,
            workdir=os.path.join(root, "reference_work"),
        ),
    )
    outcomes = service.run(
        chain_inputs(plan, root, served),
        RunOptions(season=season, on_error="raise"),
    )
    assert len(outcomes) == plan.acquisitions
    return service


def reference_answer(service, request: workloads.ReadRequest):
    """What the reference store answers to one read of the mix: a
    feature digest for ``/v1/hotspots`` shapes, a sorted binding list
    for stSPARQL."""
    from urllib.parse import parse_qs, urlsplit

    from repro.serve import parse_bbox, query_hotspots

    published = service.publisher.require_latest()
    if request.kind == "stsparql":
        text = json.loads(request.body)["query"]
        doc = published.view.query(text).to_sparql_json()
        return canonical_bindings(doc)
    params = {
        key: values[-1]
        for key, values in parse_qs(
            urlsplit(request.path).query
        ).items()
    }
    collection = query_hotspots(
        published,
        bbox=parse_bbox(params["bbox"]) if "bbox" in params else None,
        since=params.get("since"),
        confirmed=_flag(params.get("confirmed")),
        static=_flag(params.get("static")),
    )
    return features_digest(collection["features"])


def served_answer(request: workloads.ReadRequest, body: bytes):
    doc = json.loads(body)
    if request.kind == "stsparql":
        return canonical_bindings(doc)
    return features_digest(doc["features"])


def canonical_bindings(doc: dict) -> List[str]:
    return sorted(
        json.dumps(row, sort_keys=True)
        for row in doc.get("results", {}).get("bindings", [])
    )


def _flag(text: Optional[str]) -> Optional[bool]:
    return None if text is None else text == "true"


def tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
