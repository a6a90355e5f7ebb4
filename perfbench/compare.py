#!/usr/bin/env python3
"""Summarise benchmark runs, or compare them with a baseline.

    python3 perfbench/compare.py RUNS [BASE]

RUNS and BASE are files holding the stdout of any number of
``perfbench/run.py`` runs, one after another. For each workload and
end-to-end metric the summary gives the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles(n=4)``)
against the metric's bound in ``BENCHMARK.json``. A spread above a third of
the bound is marked ``noisy``; above the bound, ``unsteady`` (``setup_s`` is
exempt from both).

With BASE, each median of RUNS is also compared with BASE's: a change worse
than the bound is a ``REGRESSION`` (exit 1). Runs made with different
row-kernel backends (``flagcohom.BACKEND``) are refused (exit 2): the
compiled and the pure-Python kernel are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> dict:
    """{workload: {"records": [...], "results": [...]}} for untraced runs."""
    runs: dict = {}
    record = None
    for line in Path(path).read_text().splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(doc, dict):
            continue
        if "record" in doc:
            record = doc["record"]
        elif "metrics" in doc and record is not None:
            if not record["trace"]:
                entry = runs.setdefault(record["workload"], {"records": [], "results": []})
                entry["records"].append(record)
                entry["results"].append(doc)
            record = None
    return runs


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def backends(runs: dict) -> set:
    return {r["provenance"]["backend"] for w in runs.values() for r in w["records"]}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    runs = load(argv[0])
    base = load(argv[1]) if len(argv) == 2 else None
    if base is not None and backends(runs) | backends(base) != backends(runs) & backends(base):
        print(
            f"refusing to compare: backends differ ({sorted(backends(runs))} vs {sorted(backends(base))})",
            file=sys.stderr,
        )
        return 2

    status = 0
    for workload, entry in sorted(runs.items()):
        results = entry["results"]
        bad = sum(1 for r in results if not r["correct"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {bad} incorrect, {failed}/{attempted} checks failed")
        if bad:
            status = 1
        for name, spec in E2E.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3 = stats(values)
            spread = (q3 - q1) / median if median else float("inf")
            note = ""
            if name != "setup_s":
                note = "unsteady" if spread > spec["bound"] else "noisy" if spread > spec["bound"] / 3 else ""
            line = (
                f"  {name:12} median {median:12.6g} {spec['unit']:5} "
                f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} bound {spec['bound']:.0%} {note}"
            )
            if base is not None and workload in base:
                old = [r["metrics"][name]["value"] for r in base[workload]["results"]]
                old_median = stats(old)[0]
                change = (median - old_median) / old_median
                worse = change if spec["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > spec["bound"] else "ok"
                if verdict != "ok":
                    status = 1
                line += f" | base {old_median:12.6g} change {change:+7.2%} {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
