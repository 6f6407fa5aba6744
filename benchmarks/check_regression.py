#!/usr/bin/env python
"""CI perf-regression gate: compare BENCH_*.json artifacts to baselines.

The bench suite emits ``benchmarks/results/BENCH_<name>.json`` files holding
*simulated* (deterministic) metrics -- simulated seconds, HDFS bytes read,
task counts.  This script compares each metric against the committed
baseline in ``benchmarks/baselines/`` and fails the build when a tracked
metric regresses beyond the tolerance in its bad direction:

* ``direction: lower``  -- a cost; fails when current > baseline * (1+tol)
* ``direction: higher`` -- a benefit (e.g. a speedup ratio); fails when
  current < baseline * (1-tol)

Improvements beyond the tolerance are reported as stale-baseline warnings
(exit 0) so intentional wins get their baselines refreshed.  Scale mismatch
(smoke baseline vs full-scale run) is an error: simulated totals are only
comparable at the same nominal data size.

Usage::

    python benchmarks/check_regression.py \
        [--baselines benchmarks/baselines] [--results benchmarks/results] \
        [--tolerance 0.15] [--require <name> ...]

``--require views`` makes a *missing* ``BENCH_views.json``
baseline a named failure instead of a silent skip -- the glob-driven loop
otherwise only gates benches that already have a committed baseline.

Refresh a baseline by re-running the bench and copying the artifact::

    BENCH_SMOKE=1 pytest benchmarks/bench_ablation_caching.py
    cp benchmarks/results/BENCH_caching.json benchmarks/baselines/
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List

DEFAULT_TOLERANCE = 0.15


def _load(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def validate_payload(payload: object, label: str) -> List[str]:
    """Structural validation of one ``BENCH_*.json`` payload.

    Returns human-readable problems (empty = valid) instead of letting a
    malformed baseline or artifact surface as a bare ``KeyError`` deep in
    the comparison: the gate names the file, the metric and exactly which
    keys are missing or unexpected.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"{label}: payload must be a JSON object, "
                f"got {type(payload).__name__}"]
    missing = sorted({"bench", "scale", "metrics"} - set(payload))
    if missing:
        problems.append(
            f"{label}: missing top-level key(s) {', '.join(missing)}")
    metrics = payload.get("metrics")
    if metrics is None:
        return problems
    if not isinstance(metrics, dict):
        return problems + [
            f"{label}: 'metrics' must be an object, "
            f"got {type(metrics).__name__}"]
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            problems.append(
                f"{label}: metric {name!r} must be an object with "
                f"'value' and 'direction', got {type(entry).__name__}")
            continue
        missing = sorted({"value", "direction"} - set(entry))
        extra = sorted(set(entry) - {"value", "direction"})
        if missing:
            problems.append(
                f"{label}: metric {name!r} is missing key(s) "
                f"{', '.join(missing)}")
        if extra:
            problems.append(
                f"{label}: metric {name!r} has unexpected key(s) "
                f"{', '.join(extra)}")
        if "direction" in entry and entry["direction"] not in (
                "lower", "higher"):
            problems.append(
                f"{label}: metric {name!r} direction must be 'lower' or "
                f"'higher', got {entry['direction']!r}")
        if "value" in entry and not isinstance(
                entry["value"], (int, float)):
            problems.append(
                f"{label}: metric {name!r} value must be numeric, "
                f"got {type(entry['value']).__name__}")
    return problems


def check_bench(baseline: dict, current: dict, tolerance: float,
                failures: List[str], warnings: List[str]) -> List[str]:
    """Compare one bench's current metrics to its baseline; returns report lines."""
    lines = []
    name = baseline.get("bench", "?")
    if baseline.get("scale") != current.get("scale"):
        failures.append(
            f"{name}: scale mismatch -- baseline is "
            f"{baseline.get('scale')!r}, current run is "
            f"{current.get('scale')!r}; rerun at the baseline's scale"
        )
        return lines
    for metric, entry in baseline.get("metrics", {}).items():
        base_value = float(entry["value"])
        direction = entry["direction"]
        now = current.get("metrics", {}).get(metric)
        if now is None:
            failures.append(f"{name}.{metric}: missing from current run")
            continue
        value = float(now["value"])
        delta = (value - base_value) / base_value if base_value else 0.0
        marker = "ok"
        if direction == "lower" and value > base_value * (1.0 + tolerance):
            marker = "REGRESSION"
            failures.append(
                f"{name}.{metric}: {value:.6g} is {delta:+.1%} vs baseline "
                f"{base_value:.6g} (lower is better, tolerance "
                f"{tolerance:.0%})"
            )
        elif direction == "higher" and value < base_value * (1.0 - tolerance):
            marker = "REGRESSION"
            failures.append(
                f"{name}.{metric}: {value:.6g} is {delta:+.1%} vs baseline "
                f"{base_value:.6g} (higher is better, tolerance "
                f"{tolerance:.0%})"
            )
        elif (direction == "lower" and value < base_value * (1.0 - tolerance)) \
                or (direction == "higher"
                    and value > base_value * (1.0 + tolerance)):
            marker = "improved"
            warnings.append(
                f"{name}.{metric}: improved {delta:+.1%}; consider "
                f"refreshing the baseline"
            )
        lines.append(
            f"  {metric:<35} {base_value:>14.6g} -> {value:>14.6g} "
            f"({delta:+7.1%}) [{marker}]"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = pathlib.Path(__file__).parent
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=here / "baselines")
    parser.add_argument("--results", type=pathlib.Path,
                        default=here / "results")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME",
        help="fail if BENCH_<NAME>.json has no committed baseline")
    args = parser.parse_args(argv)

    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no baselines found under {args.baselines}", file=sys.stderr)
        return 2

    failures: List[str] = []
    warnings: List[str] = []
    present = {p.name for p in baseline_files}
    for name in args.require:
        wanted = f"BENCH_{name}.json"
        if wanted not in present:
            failures.append(
                f"{name}: no baseline {wanted} under {args.baselines} -- "
                f"run the bench at smoke scale and commit the artifact"
            )
    for baseline_path in baseline_files:
        current_path = args.results / baseline_path.name
        try:
            baseline = _load(baseline_path)
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(
                f"baseline {baseline_path.name}: unreadable JSON -- {exc}")
            continue
        problems = validate_payload(
            baseline, f"baseline {baseline_path.name}")
        bench_name = baseline.get("bench", baseline_path.stem) \
            if isinstance(baseline, dict) else baseline_path.stem
        scale = baseline.get("scale") if isinstance(baseline, dict) else None
        print(f"{bench_name} (scale={scale}):")
        if not current_path.exists():
            # a malformed baseline is reported even when the bench never
            # ran -- both problems need fixing, name them both
            failures.extend(problems)
            failures.append(
                f"{baseline_path.name}: no current artifact at "
                f"{current_path} -- did the bench run?"
            )
            continue
        try:
            current = _load(current_path)
        except (OSError, json.JSONDecodeError) as exc:
            failures.extend(problems)
            failures.append(
                f"artifact {current_path.name}: the bench emitted invalid "
                f"JSON -- {exc}")
            continue
        problems += validate_payload(
            current, f"artifact {current_path.name}")
        if problems:
            failures.extend(problems)
            continue
        for line in check_bench(baseline, current,
                                args.tolerance, failures, warnings):
            print(line)

    if warnings:
        print("\nwarnings:")
        for w in warnings:
            print(f"  {w}")
    if failures:
        print("\nFAIL: tracked bench metrics regressed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: all tracked metrics within {args.tolerance:.0%} "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
