#!/usr/bin/env python3
"""Compare two reports of ``perf/run.py --out``: ``compare.py A B``.

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both must come from the same seed, ``--seconds`` and mode,
because the bounds applied here are the same-seed bounds of
``harness/catalog.py``.  One row per (metric, workload) with both
medians, both spreads, B's change in the *worse* direction and a
verdict:

``ok``          B's median is no worse than A's by more than the bound
``REGRESSION``  it is worse by more than the bound
``unresolved``  the run-to-run spread (quartile distance / median, min
                to max below four samples) of either side exceeds the
                bound, unless every run of B reads better than every
                run of A
``missing``     the metric is absent on one side (absent on both: it is
                null on that workload, and has no row)

Exits 1 on any regression (a higher ``failed_ops_share`` is one: its
bound is zero) or missing metric, 2 when the two reports were not made
with the same settings, 0 otherwise.  Running it both ways on two sets
of runs of one commit is the "two sets agree" check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import catalog, stats  # noqa: E402


def spread(summary: dict):
    """Run-to-run spread of one summarised metric, as a share of its
    median; ``None`` for a single run."""
    values = summary["values"]
    if len(values) >= 4:
        return stats.iqr_share(values)
    if len(values) < 2 or summary["median"] == 0:
        return None
    return (summary["max"] - summary["min"]) / abs(summary["median"])


def worsening(metric: catalog.EndToEnd, a: float, b: float) -> float:
    """B's move in the worse direction as a share of A (negative:
    B is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def all_better(metric: catalog.EndToEnd, a: dict, b: dict) -> bool:
    """Every run of B reads better than every run of A."""
    if metric.better == "lower":
        return b["max"] < a["min"]
    return b["min"] > a["max"]


def judge(metric: catalog.EndToEnd, a: dict, b: dict):
    """``(worsening, verdict)`` for one (metric, workload) pairing."""
    worse = worsening(metric, a["median"], b["median"])
    if metric.slack and abs(b["median"] - a["median"]) <= metric.slack:
        return worse, "ok"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if (spreads and max(spreads) > metric.bound
            and not all_better(metric, a, b)):
        return worse, "unresolved"
    return worse, "REGRESSION" if worse > metric.bound else "ok"


SETTINGS = ("seed", "seconds", "quick")


def compare(report_a: dict, report_b: dict) -> int:
    differing = [key for key in SETTINGS
                 if report_a.get(key) != report_b.get(key)]
    if differing:
        print(f"the reports differ in {differing}: same-seed bounds do "
              f"not apply; rerun both sides with identical settings")
        return 2
    failures = 0
    header = (f"{'workload':<20}{'metric':<24}{'A median':>14}"
              f"{'B median':>14}{'A spread':>10}{'B spread':>10}"
              f"{'worse by':>10}{'bound':>8}  verdict")
    print(header)
    print("-" * len(header))

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.2%}"

    for name in report_a["workloads"]:
        entry_a = report_a["workloads"][name]["end_to_end"]
        entry_b = report_b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in catalog.END_TO_END:
            a, b = entry_a.get(metric.name), entry_b.get(metric.name)
            if a is None and b is None:
                continue  # null on this workload, by definition
            if a is None or b is None:
                failures += 1
                print(f"{name:<20}{metric.name:<24}{'':>66}  missing")
                continue
            worse, verdict = judge(metric, a, b)
            failures += verdict == "REGRESSION"
            print(f"{name:<20}{metric.name:<24}{a['median']:>14.6g}"
                  f"{b['median']:>14.6g}{fmt(spread(a)):>10}"
                  f"{fmt(spread(b)):>10}{worse:>10.2%}"
                  f"{metric.bound:>8.1%}  {verdict}")
    print(f"\n{failures} regression(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="parent / first report")
    parser.add_argument("b", type=Path, help="change / second report")
    args = parser.parse_args(argv)
    return compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(main())
