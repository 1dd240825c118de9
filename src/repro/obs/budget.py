"""Per-acquisition budget accounting against the 5-minute SEVIRI window.

§4.2.1 of the paper: MSG1 delivers an image every 5 minutes, so the
whole hotspot chain *plus* semantic refinement must finish inside 300
seconds or the service falls behind the stream.  The
:class:`AcquisitionBudget` records (chain, refinement) seconds per
acquisition, exposes a rolling deadline-miss ratio and renders an
operator report.

:func:`table2_from_spans` regenerates the paper's Table 2 per-stage
breakdown **purely from recorded spans** — no separate timing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.export import SpanLike, span_record

__all__ = [
    "AcquisitionRecord",
    "AcquisitionBudget",
    "StageStats",
    "Table2Breakdown",
    "table2_from_spans",
]

#: The MSG1 acquisition cadence (seconds) — the paper's real-time bound.
DEFAULT_WINDOW_SECONDS = 300.0


@dataclass
class AcquisitionRecord:
    """Budget accounting for one processed acquisition."""

    timestamp: Optional[datetime]
    chain_seconds: float
    refinement_seconds: float = 0.0
    sensor: str = ""
    window_seconds: float = DEFAULT_WINDOW_SECONDS

    @property
    def total_seconds(self) -> float:
        return self.chain_seconds + self.refinement_seconds

    @property
    def within_budget(self) -> bool:
        return self.total_seconds < self.window_seconds

    @property
    def headroom_seconds(self) -> float:
        """Seconds left in the window (negative on a miss)."""
        return self.window_seconds - self.total_seconds


class AcquisitionBudget:
    """Tracks how acquisitions fit the real-time window."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        rolling_window: int = 96,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        #: The deadline-miss ratio is computed over this many most
        #: recent acquisitions (96 = 8 hours of MSG1 at 5-minute cadence).
        self.rolling_window = rolling_window
        self.records: List[AcquisitionRecord] = []

    # -- recording --------------------------------------------------------

    def record(
        self,
        timestamp: Optional[datetime],
        chain_seconds: float,
        refinement_seconds: float = 0.0,
        sensor: str = "",
    ) -> AcquisitionRecord:
        entry = AcquisitionRecord(
            timestamp=timestamp,
            chain_seconds=chain_seconds,
            refinement_seconds=refinement_seconds,
            sensor=sensor,
            window_seconds=self.window_seconds,
        )
        self.records.append(entry)
        return entry

    def record_outcome(self, outcome: Any) -> AcquisitionRecord:
        """Record a service ``AcquisitionOutcome`` (duck-typed) against
        the window its run enforced."""
        entry = AcquisitionRecord(
            timestamp=getattr(outcome, "timestamp", None),
            chain_seconds=outcome.chain_seconds,
            refinement_seconds=getattr(outcome, "refinement_seconds", 0.0),
            sensor=getattr(outcome, "sensor", ""),
            window_seconds=getattr(
                outcome, "window_seconds", self.window_seconds
            ),
        )
        self.records.append(entry)
        return entry

    # -- statistics -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def misses(self) -> int:
        return sum(1 for r in self.records if not r.within_budget)

    def miss_ratio(self, last: Optional[int] = None) -> float:
        """Deadline-miss ratio over the rolling window (0.0 when empty)."""
        window = self.rolling_window if last is None else last
        recent = self.records[-window:] if window else self.records
        if not recent:
            return 0.0
        missed = sum(1 for r in recent if not r.within_budget)
        return missed / len(recent)

    def _mean(self, values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def summary(self) -> Dict[str, float]:
        chain = [r.chain_seconds for r in self.records]
        refine = [r.refinement_seconds for r in self.records]
        total = [r.total_seconds for r in self.records]
        return {
            "acquisitions": float(len(self.records)),
            "window_seconds": self.window_seconds,
            "chain_avg_s": self._mean(chain),
            "refinement_avg_s": self._mean(refine),
            "total_avg_s": self._mean(total),
            "total_max_s": max(total) if total else 0.0,
            "headroom_min_s": (
                min(r.headroom_seconds for r in self.records)
                if self.records
                else self.window_seconds
            ),
            "deadline_miss_ratio": self.miss_ratio(),
        }

    # -- reporting --------------------------------------------------------

    def report(self) -> str:
        """Human-readable budget report for the operator console."""
        s = self.summary()
        n = int(s["acquisitions"])
        lines = [
            f"Acquisition budget: {self.window_seconds:.0f} s window, "
            f"{n} acquisition(s)",
        ]
        if not n:
            lines.append("  (no acquisitions recorded)")
            return "\n".join(lines)
        lines += [
            f"  chain       avg {s['chain_avg_s']:8.3f} s",
            f"  refinement  avg {s['refinement_avg_s']:8.3f} s",
            f"  total       avg {s['total_avg_s']:8.3f} s   "
            f"max {s['total_max_s']:8.3f} s",
            f"  headroom    min {s['headroom_min_s']:8.3f} s",
            f"  deadline misses: {self.misses()}/{n} "
            f"(rolling ratio {s['deadline_miss_ratio']:.1%} over last "
            f"{min(self.rolling_window, n)})",
        ]
        return "\n".join(lines)

    def reset(self) -> None:
        self.records.clear()


# -- Table 2 regeneration from spans --------------------------------------


@dataclass
class StageStats:
    """Min/avg/max seconds of one chain stage over acquisitions."""

    seconds: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.seconds)

    @property
    def min(self) -> float:
        return min(self.seconds) if self.seconds else 0.0

    @property
    def avg(self) -> float:
        return (
            sum(self.seconds) / len(self.seconds) if self.seconds else 0.0
        )

    @property
    def max(self) -> float:
        return max(self.seconds) if self.seconds else 0.0


@dataclass
class Table2Breakdown:
    """Per-chain, per-stage timing table reconstructed from spans."""

    #: chain name → stage name → stats; "TOTAL" holds root durations.
    chains: Dict[str, Dict[str, StageStats]]
    acquisition_count: int

    def format(self) -> str:
        lines = [
            f"Table 2 (regenerated from spans): per-stage seconds over "
            f"{self.acquisition_count} acquisition(s)",
            f"{'Chain':<12} {'Stage':<14} {'N':>4} {'Min (s)':>10} "
            f"{'Avg (s)':>10} {'Max (s)':>10}",
        ]
        for chain in sorted(self.chains):
            stages = self.chains[chain]
            ordered = [s for s in _STAGE_ORDER if s in stages]
            ordered += sorted(
                s for s in stages if s not in _STAGE_ORDER and s != "TOTAL"
            )
            if "TOTAL" in stages:
                ordered.append("TOTAL")
            for stage in ordered:
                st = stages[stage]
                lines.append(
                    f"{chain:<12} {stage:<14} {st.count:>4} "
                    f"{st.min:>10.6f} {st.avg:>10.6f} {st.max:>10.6f}"
                )
        return "\n".join(lines)


#: Presentation order of the §3.1 chain stages.
_STAGE_ORDER = ("decode", "crop", "georeference", "classify", "vectorize")

#: Span names emitted by the instrumented chains.
CHAIN_ROOT_SPAN = "chain.process"
CHAIN_STAGE_PREFIX = "chain."


def table2_from_spans(spans: Iterable[SpanLike]) -> Table2Breakdown:
    """Rebuild the Table 2 per-stage breakdown from recorded spans.

    Works on live :class:`~repro.obs.span.Span` objects or on records
    read back from a JSON-lines span log.
    """
    records = [span_record(s) for s in spans]
    roots = {
        r["span_id"]: r for r in records if r["name"] == CHAIN_ROOT_SPAN
    }
    chains: Dict[str, Dict[str, StageStats]] = {}
    for root in roots.values():
        chain = str(root.get("attributes", {}).get("chain", "?"))
        stages = chains.setdefault(chain, {})
        stages.setdefault("TOTAL", StageStats()).seconds.append(
            float(root["duration_s"])
        )
    for record in records:
        parent = record.get("parent_id")
        if parent not in roots:
            continue
        name = record["name"]
        if not name.startswith(CHAIN_STAGE_PREFIX):
            continue
        stage = name[len(CHAIN_STAGE_PREFIX):]
        root = roots[parent]
        chain = str(root.get("attributes", {}).get("chain", "?"))
        chains.setdefault(chain, {}).setdefault(
            stage, StageStats()
        ).seconds.append(float(record["duration_s"]))
    return Table2Breakdown(chains=chains, acquisition_count=len(roots))
