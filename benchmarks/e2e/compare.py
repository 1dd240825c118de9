"""Compare two sets of benchmark result files.

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... \
                                      --change B1.json B2.json ...
    python3 benchmarks/e2e/compare.py --spread R1.json R2.json ...

Each file is what ``run.py --out FILE`` wrote (one or more workloads).
With ``--base``/``--change`` there is one row per (metric, workload):
both medians and quartiles, the ratio change ÷ base with its base, the
bound from ``BENCHMARK.json`` and a verdict:

* ``improved`` / ``regressed`` — the change's median is better / worse
  than the base's by more than the bound,
* ``unchanged`` — within the bound, and both sets are steadier than it,
* ``unresolved`` — the quartile spread of either set is wider than the
  bound, so the run cannot tell.

When the two sets have equally many files they are also read as
alternating pairs (file *i* of each set ran back to back) and the share
of pairs the change won is shown — the rule for claiming a gain is
nine tenths of at least ten pairs *and* medians further apart than the
base's own quartile spread.  ``--spread`` reports one set's quartile
spread per metric as a share of its median (the steadiness check).
Exit status 1 when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def load_spec() -> Dict[str, Dict]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
    }


def load(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, one per file, in file order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for result in doc["results"]:
            for name, value in result["metrics"].items():
                values.setdefault(
                    (result["workload"], name), []
                ).append(float(value))
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, change, better, bound) -> Tuple[str, float]:
    _, base_median, _ = quartiles(base)
    _, change_median, _ = quartiles(change)
    ratio = change_median / base_median if base_median else 1.0
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if bound is None:
        return "-", ratio
    if max(spread(base), spread(change)) > bound:
        return "unresolved", ratio
    if worse > bound:
        return "regressed", ratio
    if worse < -bound:
        return "improved", ratio
    return "unchanged", ratio


def pairs_won(base, change, better) -> str:
    if len(base) != len(change):
        return ""
    wins = sum(
        (c < b) if better == "lower" else (c > b)
        for b, c in zip(base, change)
    )
    ties = sum(b == c for b, c in zip(base, change))
    return f"{wins}/{len(base) - ties}"


def compare(base_paths, change_paths) -> int:
    spec = load_spec()
    base, change = load(base_paths), load(change_paths)
    bad = 0
    print(
        f"{'workload':<20}{'metric':<30}{'base q1/med/q3':>34}"
        f"{'change q1/med/q3':>34}{'ratio':>8}{'bound':>7}"
        f"{'pairs':>7}  verdict"
    )
    for key in sorted(set(base) & set(change)):
        workload, name = key
        meta = spec.get(name, {})
        bound = meta.get("bound")
        better = meta.get("better", "lower")
        word, ratio = verdict(base[key], change[key], better, bound)
        bad += word in ("regressed", "unresolved")
        b = "/".join(f"{v:.4g}" for v in quartiles(base[key]))
        c = "/".join(f"{v:.4g}" for v in quartiles(change[key]))
        print(
            f"{workload:<20}{name:<30}{b:>34}{c:>34}{ratio:>8.3f}"
            f"{'' if bound is None else format(bound, '.2f'):>7}"
            f"{pairs_won(base[key], change[key], better):>7}  {word}"
        )
    print(
        f"ratio = change median / base median; base = "
        f"{len(base_paths)} file(s), change = {len(change_paths)}"
    )
    return 1 if bad else 0


def report_spread(paths) -> int:
    spec = load_spec()
    values = load(paths)
    bad = 0
    print(
        f"{'workload':<20}{'metric':<30}{'q1/median/q3':>36}"
        f"{'spread':>9}{'bound':>7}"
    )
    for key in sorted(values):
        workload, name = key
        bound = spec.get(name, {}).get("bound")
        share = spread(values[key])
        flag = ""
        if bound is not None and name != "setup_s":
            if share > bound:
                flag, bad = "  WIDER THAN BOUND", bad + 1
            elif share > bound / 3:
                flag = "  above a third of the bound"
        q = "/".join(f"{v:.5g}" for v in quartiles(values[key]))
        print(
            f"{workload:<20}{name:<30}{q:>36}{share:>9.4f}"
            f"{'' if bound is None else format(bound, '.2f'):>7}{flag}"
        )
    print(f"{len(paths)} file(s); spread = (q3 - q1) / median")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--spread", nargs="+")
    args = parser.parse_args(argv)
    if args.spread:
        return report_spread(args.spread)
    if not (args.base and args.change):
        parser.error("give --base and --change, or --spread")
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
