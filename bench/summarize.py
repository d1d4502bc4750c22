#!/usr/bin/env python3
"""Summarise benchmark result files into one JSON document.

    python3 bench/summarize.py [bench/results] > summary.json

For every workload: each metric's median, quartiles and spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
them) across the untraced runs, the traced per-layer medians, and the
checks that tie the numbers to the ROADMAP baseline: the solver's share on
``tall``, the stall on ``wide``, calls against scipy ``lm`` per model on
``corpus``, and the failed quintic on ``external``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def metric_table(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {n: spread([r["metrics"][n]["value"] for r in runs]) for n in names}


def model_table(runs: list[dict], key: str) -> dict:
    models = runs[0][key]
    return {
        model: {field: statistics.median(r[key][model][field] for r in runs)
                for field in runs[0][key][model]}
        for model in models
    }


def summarize(directory: str) -> dict:
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        out.setdefault(record["workload"], {}).setdefault(
            f"trace{record['trace']}", []).append(record)
    summary = {}
    for workload, by_trace in out.items():
        entry: dict = {}
        plain = by_trace.get("trace0", [])
        traced = by_trace.get("trace1", [])
        if plain:
            entry["seeds"] = sorted(r["seed"] for r in plain)
            entry["environment"] = plain[0]["environment"]
            entry["end_to_end"] = metric_table(plain)
            entry["fail_frac"] = spread([r["fail_frac"] for r in plain])
            entry["solver_share"] = spread([r["solver_share"] for r in plain])
            entry["fit_s_tail_percentile"] = spread(
                [r["fit_s_tail"]["percentile"] for r in plain])
            entry["fit_s_tail_problems"] = spread(
                [r["fit_s_tail"]["problems"] for r in plain])
            entry["iterations_per_fit"] = spread(
                [statistics.fmean(p["iterations"] for p in r["problems"]) for r in plain])
            entry["failed_problems"] = sorted(
                {p["problem"] for r in plain for p in r["problems"] if p["failed"]})
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["versus_scipy"] = {
                f: statistics.median(r["versus_scipy"][f] for r in traced)
                for f in traced[0]["versus_scipy"]}
            entry["by_model"] = model_table(traced, "by_model")
            entry["by_case"] = model_table(traced, "by_case")
            entry["per_layer"] = {n: v["median"]
                                  for n, v in metric_table(traced).items()}
            entry["absent"] = sorted({n for r in traced for n in r["absent"]})
            shares = [r["accounting"]["self_share"] for r in traced]
            entry["self_share"] = {
                n: statistics.median(s.get(n, 0.0) for s in shares) for n in shares[0]}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else os.path.join(os.path.dirname(__file__), "results")
    json.dump(summarize(directory), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
