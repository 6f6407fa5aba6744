"""Judge run set B against run set A with the bounds in ``BENCHMARK.json``.

A run set is a result file written by ``run.py --out`` (all workloads or
one) or a directory of such files; other JSON in the directory (the trace
files ``out/`` also holds) is passed over.  For every
(end-to-end metric, workload) pair the verdict is

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's run-to-run spread (inter-quartile distance
  over the median, needs four runs a side) is wider than the bound, so the
  medians cannot carry a verdict either way;
* ``ok``         -- neither.

Every ratio is printed with its base (B / A).  Per-layer metrics have no
bound and get no verdict: their two medians and ratio are listed so a
moved end-to-end number can be traced to a layer.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List

from harness import spread

#: spread needs quartiles; fewer runs than this and it is not computed
MIN_RUNS_FOR_SPREAD = 4


def _results_in(document: dict) -> List[dict]:
    """Single-workload results inside whatever ``--out`` wrote."""
    if "workloads" in document:
        return list(document["workloads"].values())
    return [document] if "values" in document else []


def load_run_set(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per run]}}`` for a file or directory."""
    files = sorted(os.path.join(path, name) for name in os.listdir(path)
                   if name.endswith(".json")) if os.path.isdir(path) else [path]
    out: Dict[str, Dict[str, List[float]]] = {}
    for file_path in files:
        with open(file_path, encoding="utf-8") as fh:
            for result in _results_in(json.load(fh)):
                metrics = out.setdefault(result["workload"], {})
                for name, value in result["values"].items():
                    metrics.setdefault(name, []).append(value)
    return out


def judge(a: List[float], b: List[float], better: str, bound: float) -> dict:
    """The verdict for one (metric, workload) pair."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    ratio = b_median / a_median if a_median else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    enough = min(len(a), len(b)) >= MIN_RUNS_FOR_SPREAD
    widest = max(spread(a), spread(b)) if enough else None
    if widest is not None and widest > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {"a": a_median, "b": b_median, "ratio": ratio,
            "worse_by": worse_by, "spread": widest, "status": status,
            "runs": (len(a), len(b))}


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    """Print the table; exit status 1 when any pair is ``worse``."""
    set_a, set_b = load_run_set(path_a), load_run_set(path_b)
    any_worse = False
    print(f"# A = {path_a}\n# B = {path_b}\n# ratio = B / A (base A)")
    header = (f"{'workload':18s} {'metric':34s} {'A':>12s} {'B':>12s} "
              f"{'B/A':>7s} {'bound':>6s} {'spread':>7s} {'runs':>7s} verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        in_a, in_b = set_a.get(workload, {}), set_b.get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in in_a or name not in in_b:
                continue
            verdict = judge(in_a[name], in_b[name],
                            metric["better"], metric["bound"])
            any_worse = any_worse or verdict["status"] == "worse"
            shown = "-" if verdict["spread"] is None \
                else f"{verdict['spread']:.3f}"
            print(f"{workload:18s} {name:34s} {verdict['a']:12.5g} "
                  f"{verdict['b']:12.5g} {verdict['ratio']:7.3f} "
                  f"{metric['bound']:6.3f} {shown:>7s} "
                  f"{verdict['runs'][0]:3d}/{verdict['runs'][1]:<3d} "
                  f"{verdict['status']}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in in_a or name not in in_b:
                continue
            a_median = statistics.median(in_a[name])
            b_median = statistics.median(in_b[name])
            if a_median == b_median:
                continue  # unchanged layers are the common case; keep it short
            ratio = b_median / a_median if a_median else float("inf")
            print(f"{workload:18s} {name:34s} {a_median:12.5g} "
                  f"{b_median:12.5g} {ratio:7.3f} {'':6s} {'':7s} "
                  f"{len(in_a[name]):3d}/{len(in_b[name]):<3d} -")
    return 1 if any_worse else 0
