"""``repro.faults`` — fault injection and fault-tolerance primitives.

The paper's service is *real-time*: a new MSG acquisition lands every
5/15 minutes and both processing stages must finish inside the window
(§4.2.1).  Operational pipelines treat partial input loss, flaky
infrastructure and deadline pressure as the normal case; this package
supplies both halves of engineering for that:

* a **deterministic fault-injection harness** —
  :class:`FaultPlan` / :func:`inject` / :func:`trip` — that can corrupt
  HRIT segments, drop one band of an acquisition, and delay or raise
  inside named stages, all seeded so a faulted run replays identically,
* **resilience primitives** — :class:`RetryPolicy` (exponential backoff
  with seeded jitter, dispatching on the
  :class:`repro.errors.Transient` marker), :class:`Timeout` and
  :class:`CircuitBreaker` — all registered in the :mod:`repro.obs`
  metrics,
* the **dead-letter box** (:class:`DeadLetterBox`) that quarantines
  undecodable input files with machine-readable reason records.

The service runtime (:mod:`repro.core.service` /
:mod:`repro.core.runtime`) wires these together: see DESIGN.md
"Failure semantics" for what degrades, what retries and what
dead-letters.

>>> from repro import faults
>>> plan = faults.FaultPlan(seed=7).corrupt_segment(index=2)
>>> with faults.inject(plan):
...     outcomes = service.run(requests)  # doctest: +SKIP
"""

from __future__ import annotations

from repro.faults.deadletter import DeadLetterBox, DeadLetterRecord
from repro.faults.plan import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_plan,
    inject,
    trip,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy, Timeout

__all__ = [
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "inject",
    "trip",
    "RetryPolicy",
    "Timeout",
    "CircuitBreaker",
    "DeadLetterBox",
    "DeadLetterRecord",
]
