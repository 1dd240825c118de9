"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is an immutable-ish list of :class:`FaultSpec`
records plus a seed.  Instrumented code consults the *active* plan at
named **fault sites** (``faults.trip("stage.chain", index=3)``); the
plan decides — purely from its specs, the site name, the acquisition
index and the attempt number — whether to delay, raise, corrupt input
bytes or drop a band.

Determinism is the design constraint: the same plan must injure the
same acquisitions in the same way across repeated runs.  Two rules
give that:

* **Stateless matching.**  A spec matches on ``(kind, site, index,
  attempt)`` only; the plan keeps no hit counters.  The attempt number
  is supplied by the caller (the retry loop), so a spec with
  ``times=2`` fails the first two attempts of its acquisition and then
  lets the third succeed.
* **Derived randomness.**  Random bytes (segment corruption patterns,
  retry jitter) come from :meth:`FaultPlan.rng_for`, a fresh
  ``random.Random`` seeded from ``(plan seed, site, key)`` — never from
  a shared mutable RNG whose consumption order would depend on thread
  scheduling.

The active plan is installed with the :func:`inject` context manager.
"""

from __future__ import annotations

import contextlib
import fnmatch
import random
import threading
import time
import zlib
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import TransientError

__all__ = [
    "FAULT_KINDS",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "inject",
    "active_plan",
    "trip",
]

#: Every fault class the harness can inject.
FAULT_KINDS = (
    "raise",
    "delay",
    "corrupt-segment",
    "drop-band",
)


class FaultInjected(TransientError):
    """The error a ``raise`` fault produces.

    Transient by design: it models flaky infrastructure, so
    :class:`repro.faults.RetryPolicy` retries it — a spec with
    ``times=n`` therefore succeeds on attempt ``n + 1`` when the retry
    budget allows.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``site`` is an ``fnmatch`` pattern over fault-site names
    (``"stage.chain"``, ``"refine.*"`` ...); ``index`` pins the fault to
    one acquisition of the batch (``None`` hits every acquisition);
    ``times`` bounds how many *attempts* of that acquisition are
    affected (raise/delay faults only — data faults apply on the
    first attempt, after which the mangled input speaks for itself).
    """

    kind: str
    site: str = "*"
    index: Optional[int] = None
    times: int = 1
    band: Optional[str] = None
    seconds: float = 0.05
    message: str = ""
    spec_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def matches(
        self, kind: str, site: str, index: Optional[int], attempt: int
    ) -> bool:
        if self.kind != kind:
            return False
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.index is not None and index != self.index:
            return False
        return attempt <= self.times

    def describe(self) -> str:
        where = f"@{self.site}" if self.site != "*" else ""
        which = f"[{self.index}]" if self.index is not None else "[*]"
        extra = ""
        if self.kind == "delay":
            extra = f" {self.seconds:g}s"
        elif self.kind == "drop-band" and self.band:
            extra = f" {self.band}"
        return f"{self.kind}{where}{which}x{self.times}{extra}"


class FaultPlan:
    """A seeded collection of fault specs with a builder API.

    >>> plan = (FaultPlan(seed=7)
    ...         .corrupt_segment(index=1)
    ...         .drop_band(index=2, band="IR_039")
    ...         .raise_in("stage.chain", index=3, times=2)
    ...         .delay("refine.municipalities", seconds=0.2))
    """

    def __init__(
        self, seed: int = 0, specs: Sequence[FaultSpec] = ()
    ) -> None:
        self.seed = seed
        self._specs: List[FaultSpec] = list(specs)
        self._next_id = max(
            (s.spec_id for s in self._specs), default=0
        ) + 1

    # -- builders ---------------------------------------------------------

    def _add(self, spec: FaultSpec) -> "FaultPlan":
        self._specs.append(replace(spec, spec_id=self._next_id))
        self._next_id += 1
        return self

    def raise_in(
        self,
        site: str,
        index: Optional[int] = None,
        times: int = 1,
        message: str = "",
    ) -> "FaultPlan":
        """Raise :class:`FaultInjected` inside ``site``."""
        return self._add(
            FaultSpec("raise", site, index, times, message=message)
        )

    def delay(
        self,
        site: str,
        seconds: float,
        index: Optional[int] = None,
        times: int = 1,
    ) -> "FaultPlan":
        """Sleep ``seconds`` inside ``site`` (a slow stage / wedged IO)."""
        return self._add(
            FaultSpec("delay", site, index, times, seconds=seconds)
        )

    def corrupt_segment(
        self, index: Optional[int] = None, band: Optional[str] = None
    ) -> "FaultPlan":
        """Overwrite one segment file of the acquisition with garbage."""
        return self._add(
            FaultSpec("corrupt-segment", index=index, band=band)
        )

    def drop_band(
        self, index: Optional[int] = None, band: str = "IR_039"
    ) -> "FaultPlan":
        """Remove one whole band from the acquisition's input."""
        return self._add(FaultSpec("drop-band", index=index, band=band))

    # -- matching ---------------------------------------------------------

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(self._specs)

    def match(
        self,
        kind: str,
        site: str = "*",
        index: Optional[int] = None,
        attempt: int = 1,
    ) -> List[FaultSpec]:
        """Specs firing for this (kind, site, index, attempt) — pure."""
        return [
            s
            for s in self._specs
            if s.matches(kind, site, index, attempt)
        ]

    def rng_for(self, site: str, key: object) -> random.Random:
        """A deterministic RNG for one (site, key) — order-independent.

        Seeding hashes the plan seed with the site and key *values*
        (via zlib.crc32 over their repr, stable across processes), so
        identical work items derive identical streams in any order.
        """
        token = f"{self.seed}|{site}|{key!r}".encode()
        return random.Random(zlib.crc32(token))

    def describe(self) -> str:
        if not self._specs:
            return "no faults"
        return ", ".join(s.describe() for s in self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, [{self.describe()}])"


# -- the active plan -------------------------------------------------------

_state = threading.local()
_GLOBAL: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan installed by the innermost :func:`inject`, if any."""
    plan = getattr(_state, "plan", None)
    return plan if plan is not None else _GLOBAL


@contextlib.contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Make ``plan`` the active fault plan for the ``with`` body.

    Installs both a thread-local binding (so nested injections on the
    same thread restore correctly) and the process-global fallback that
    worker threads observe.
    """
    global _GLOBAL
    prev_local = getattr(_state, "plan", None)
    prev_global = _GLOBAL
    _state.plan = plan
    _GLOBAL = plan
    try:
        yield plan
    finally:
        _state.plan = prev_local
        _GLOBAL = prev_global


def trip(
    site: str, index: Optional[int] = None, attempt: int = 1
) -> None:
    """Consult the active plan at a named fault site.

    Applies matching ``delay`` faults (sleeps), then matching ``raise``
    faults (raises :class:`FaultInjected`).  A no-op without an active
    plan — the production fast path is one ``None`` check.
    """
    plan = active_plan()
    if plan is None:
        return
    for spec in plan.match("delay", site, index, attempt):
        time.sleep(spec.seconds)
    for spec in plan.match("raise", site, index, attempt):
        raise FaultInjected(
            spec.message
            or f"injected fault at {site} "
            f"(acquisition {index}, attempt {attempt})"
        )
