"""Per-acquisition budget accounting against the 5-minute SEVIRI window.

§4.2.1 of the paper: MSG1 delivers an image every 5 minutes, so the
whole hotspot chain *plus* semantic refinement must finish inside 300
seconds or the service falls behind the stream.
:func:`budget_summary` and :func:`budget_report` read the service's
acquisition outcomes (anything with ``chain_seconds``,
``refinement_seconds`` and the ``window_seconds`` its run enforced)
and give the deadline accounting and the operator report.

:func:`table2_from_spans` regenerates the paper's Table 2 per-stage
breakdown **purely from recorded spans** — no separate timing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.obs.export import SpanLike, span_record

__all__ = [
    "budget_summary",
    "budget_report",
    "StageStats",
    "Table2Breakdown",
    "table2_from_spans",
]

#: The MSG1 acquisition cadence (seconds) — the paper's real-time bound.
DEFAULT_WINDOW_SECONDS = 300.0

#: The deadline-miss ratio covers this many most recent acquisitions
#: (96 = 8 hours of MSG1 at 5-minute cadence).
ROLLING_WINDOW = 96


def budget_summary(outcomes: Sequence) -> Dict[str, float]:
    """Stage averages and deadline accounting over ``outcomes``.

    An acquisition misses its deadline when chain plus refinement
    seconds reach the window of the run that processed it.
    """
    n = len(outcomes)
    chain = [o.chain_seconds for o in outcomes]
    refine = [o.refinement_seconds for o in outcomes]
    total = [c + r for c, r in zip(chain, refine)]
    headroom = [o.window_seconds - t for o, t in zip(outcomes, total)]
    missed = [h <= 0 for h in headroom]
    recent = missed[-ROLLING_WINDOW:]
    return {
        "acquisitions": float(n),
        "window_seconds": DEFAULT_WINDOW_SECONDS,
        "chain_avg_s": sum(chain) / n if n else 0.0,
        "refinement_avg_s": sum(refine) / n if n else 0.0,
        "total_avg_s": sum(total) / n if n else 0.0,
        "total_max_s": max(total, default=0.0),
        "headroom_min_s": min(headroom, default=DEFAULT_WINDOW_SECONDS),
        "deadline_misses": sum(missed),
        "deadline_miss_ratio": (
            sum(recent) / len(recent) if recent else 0.0
        ),
    }


def budget_report(outcomes: Sequence) -> str:
    """Human-readable budget report for the operator console."""
    s = budget_summary(outcomes)
    n = len(outcomes)
    lines = [
        f"Acquisition budget: {DEFAULT_WINDOW_SECONDS:.0f} s window, "
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
        f"  deadline misses: {s['deadline_misses']}/{n} "
        f"(rolling ratio {s['deadline_miss_ratio']:.1%} over last "
        f"{min(ROLLING_WINDOW, n)})",
    ]
    return "\n".join(lines)


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
