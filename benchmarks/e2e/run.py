#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark.  README.md is the manual.

One workload (what the driver runs)::

    python3 benchmarks/e2e/run.py --workload olap_paper --seed 3 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.

All four workloads, both passes, one table (what a person runs; shorter
windows than the driver's, one set-up each, about 120 s)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--quick] [--out FILE]

Two sets of such runs, judged against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
#: the all-workloads run must fit this, or it exits non-zero
BUDGET_S = 180.0
#: its default ``--seconds``: shorter windows than the driver's runs
#: (``run_seconds`` in BENCHMARK.json), so that four workloads with both
#: passes take about 120 s
MATRIX_SECONDS = 10.0


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict, trace: str) -> list:
    """The metric declarations a run with this ``--trace`` must emit."""
    if trace == "0":
        return spec["end_to_end"]
    if trace == "1":
        return spec["per_layer"]
    return spec["end_to_end"] + spec["per_layer"]


def to_driver_result(result: dict, spec: dict, trace: str) -> dict:
    """The contract's last-line object: declared metrics, nothing else."""
    values = result["values"]
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared(spec, trace)},
    }


def print_metrics(result: dict, spec: dict) -> None:
    """Every measured value by name, with its unit and sample count."""
    units = {m["name"]: m["unit"] for m in declared(spec, "both")}
    values, samples = result["values"], result["samples"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name in sorted(values):
        print(f"{name:38s} {values[name]:>16.6g} {units.get(name, ''):7s} "
              f"n={samples[name]}")
    for line in result["failures"]:
        print(f"! {line}")


def run_single(args, spec: dict) -> int:
    from passes import run_workload

    # the trace file lands beside the result file
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else OUT_DIR
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          quick=args.quick, out_dir=out_dir)
    print_metrics(result, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps(to_driver_result(result, spec, args.trace)))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh interpreter, timed then traced pass."""
    started = time.perf_counter()
    out = os.path.abspath(
        args.out or os.path.join(OUT_DIR, f"run_seed{args.seed}.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    results = {}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        part = os.path.join(os.path.dirname(out), f"run_{workload}.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "both",
                   "--out", part]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, check=False)
        if done.returncode != 0:
            status = 1
        if os.path.exists(part):
            with open(part, encoding="utf-8") as fh:
                results[workload] = json.load(fh)
            os.remove(part)  # merged below: one document per run in out/
    elapsed = time.perf_counter() - started
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "elapsed_s": elapsed,
                   "workloads": results}, fh, indent=1)
    print(f"# wrote {out}")
    print(f"# elapsed {elapsed:.1f} s (budget {BUDGET_S:.0f} s)")
    if elapsed > BUDGET_S and not args.quick:
        print("# over budget", file=sys.stderr)
        return 3
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--quick", action="store_true",
                        help="a quarter of the cycles, one set-up: smoke use")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge run set B against run set A")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare[0], args.compare[1], spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"--workload must be one of {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"]) if args.workload \
            else MATRIX_SECONDS
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order reaches region placement: simulated seconds
        # differ in the 5th digit across hash seeds.  Pin it, same process.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args, spec)
    return run_single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
