"""``compare BASE.json NEW.json``: verdicts per workload and metric.

A file holds one ``run`` record, or ``{"sets": [record, ...]}`` (as
``baseline.json`` does), whose repetitions are pooled.  For every workload
and end-to-end metric the verdict is:

``better``
    every NEW repetition beats every BASE repetition; or, with BASE's
    spread within the bound, NEW's median beats BASE's by more than BASE's
    interquartile range and NEW wins at least nine tenths of the
    repetition pairs;
``worse``
    NEW's median is worse than BASE's by more than the bound, and either
    every BASE repetition beats every NEW one or BASE's spread is within
    the bound;
``unresolved``
    BASE's interquartile range is wider than the metric's bound and
    neither of the clear-cut cases above holds;
``within-bound``
    anything else.

A higher ``failed_frac`` is a regression too.  Exact per-layer counts are
shown with their differences.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

from benchmarks.ladder import stats
from benchmarks.ladder.metrics import END_TO_END, EXACT_COUNTS, Metric


def load_sets(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["sets"] if "sets" in data else [data]


def pooled(sets: list[dict]) -> dict[str, dict]:
    """Per workload: raw end-to-end values, failure counts, counts, digests."""
    pools: dict[str, dict] = {}
    for record in sets:
        for name, result in record["workloads"].items():
            pool = pools.setdefault(name, {"values": {}, "attempted": 0,
                                           "failed": 0, "per_layer": None,
                                           "digests": set()})
            for metric, entry in result.get("end_to_end", {}).items():
                pool["values"].setdefault(metric, []).extend(entry["values"])
            pool["attempted"] += result["attempted"]
            pool["failed"] += result["failed"]
            pool["digests"].add(result["digest"])
            if pool["per_layer"] is None:
                pool["per_layer"] = result.get("per_layer")
    return pools


def _beats(metric: Metric, a: float, b: float) -> bool:
    """Whether value ``a`` is strictly better than ``b``."""
    return a < b if metric.better == "lower" else a > b


def verdict(metric: Metric, base: list[float], new: list[float]) -> str:
    if not base or not new:
        return "unresolved"
    if all(_beats(metric, n, b) for n in new for b in base):
        return "better"
    base_median, new_median = stats.median(base), stats.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (new_median - base_median) / base_median
    if (worsening > metric.bound
            and all(_beats(metric, b, n) for n in new for b in base)):
        return "worse"
    if stats.iqr_share(base) > metric.bound:
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    q1, q3 = stats.quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(_beats(metric, n, b) for b, n in pairs)
    if (-worsening * base_median > q3 - q1
            and wins >= 0.9 * len(pairs)):
        return "better"
    return "within-bound"


def _fmt(values: list[float]) -> str:
    q1, q3 = stats.quartiles(values)
    return f"{stats.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_sets: list[dict],
            new_sets: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether any regression was found."""
    base, new = pooled(base_sets), pooled(new_sets)
    lines = [f"{'workload':14s} {'metric':18s} {'base median [q1, q3]':34s} "
             f"{'new median [q1, q3]':34s} verdict"]
    regressed = False
    for name in base:
        if name not in new:
            lines.append(f"{name:14s} missing from NEW")
            regressed = True
            continue
        b, n = base[name], new[name]
        for metric in END_TO_END:
            base_values = b["values"].get(metric.name, [])
            new_values = n["values"].get(metric.name, [])
            result = verdict(metric, base_values, new_values)
            regressed |= result == "worse"
            lines.append(
                f"{name:14s} {metric.name:18s} "
                f"{_fmt(base_values) if base_values else '-':34s} "
                f"{_fmt(new_values) if new_values else '-':34s} {result}")
        base_failed = b["failed"] / b["attempted"] if b["attempted"] else 1.0
        new_failed = n["failed"] / n["attempted"] if n["attempted"] else 1.0
        failed_verdict = "worse" if new_failed > base_failed else "same"
        regressed |= new_failed > base_failed
        lines.append(f"{name:14s} {'failed_frac':18s} {base_failed:<34.5g} "
                     f"{new_failed:<34.5g} {failed_verdict}")
        if b["digests"] != n["digests"]:
            lines.append(f"{name:14s} digest changed")
        lines += _count_lines(name, b["per_layer"], n["per_layer"])
    return lines, regressed


def _count_lines(name: str, base: Optional[dict],
                 new: Optional[dict]) -> list[str]:
    if base is None or new is None:
        return []
    lines = []
    for count in EXACT_COUNTS:
        old, now = base.get(count), new.get(count)
        if old is None or now is None:
            continue
        change = "" if old == now else f"  ({now - old:+d})"
        lines.append(f"{name:14s}   {count:30s} {old:>10d} -> {now:<10d}"
                     f"{change}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare BASE.json NEW.json", file=sys.stderr)
        return 2
    lines, regressed = compare(load_sets(argv[0]), load_sets(argv[1]))
    print("\n".join(lines))
    print("regression" if regressed else "no regression")
    return 1 if regressed else 0
