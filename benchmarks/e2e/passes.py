"""One workload, one interpreter: set-up, timed pass, traced pass, verdict.

``run_workload`` is what a single ``run.py --workload NAME`` invocation
does.  The timed pass measures the end-to-end metrics with nothing
attached; the traced pass then takes the same loaded data through three
instrumented legs (counters, spans, profile) plus the direct probes.  The
two are separate invocations for the driver (``--trace 0`` / ``--trace
1``) and share one interpreter in the all-workloads run (``both``).
"""

from __future__ import annotations

import cProfile
import json
import os
import statistics
from typing import Dict, List, Optional

from harness import (
    CalibrationKernel, CycleSample, measure_setup, peak_rss_mb, percentile,
    run_cycles, settle, step_norm_ms, summarise_window, tail_supported,
)
from layers import GROUPS, LayerClassifier, profile_by_layer
from tracing import (
    PROBE_REPEATS, ZERO_SERVING, CounterCollector, SpanRecorder,
    execute_stepwise, run_probes, run_serving_probe, span_metrics,
    stepwise_outcome,
)
from workloads import WORKLOADS, Workload

import repro

#: simulated seconds may differ this much between two runs of one cycle
#: (q38's stage placement is thread-timing dependent in the 4th digit)
SIM_TOLERANCE = 0.005


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _build(name: str, seed: int) -> Workload:
    workload = WORKLOADS[name](seed)
    workload.build()
    return workload


class Measured:
    """Metric values, each with the number of samples it was read off."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}

    def add(self, values: Dict[str, float], samples: int) -> None:
        """Take ``values`` unless already measured (first reading wins)."""
        for name, value in values.items():
            if name not in self.values:
                self.values[name] = value
                self.samples[name] = samples


def traced_pass(workload: Workload, kernel: CalibrationKernel,
                first_index: int, timed_cycles: int,
                out_dir: Optional[str],
                measured: Measured) -> List[CycleSample]:
    """Counters, spans, profile, probes.  Returns the cycles it ran."""
    period = workload.cycle_period
    cycles = _round_up(max(4, timed_cycles // 4), period)
    # a read-only workload's instrumented legs replay leg 1's cycles, so
    # they can be held against it cycle by cycle; one that writes moves on
    advance = 0 if workload.read_only else cycles
    index = first_index
    settle()

    # leg 1: the one-call path, reading the program's own counters
    collector = CounterCollector(workload)
    plain = run_cycles(workload, index, cycles, kernel, observer=collector)
    measured.add(collector.metrics(), cycles)
    window = summarise_window(plain)
    measured.add({k: v for k, v in window.items() if k.startswith("client.")},
                 cycles)
    steps_norm = step_norm_ms(plain)
    # elsewhere too few samples lie beyond p99 and the tail is not reported
    measured.add({"client.stmt_wall_norm_ms_p99": percentile(steps_norm, 99)
                  if tail_supported(len(steps_norm), 99) else 0.0},
                 len(steps_norm))

    # leg 2: the same statements taken apart at the layer boundaries
    index += advance
    recorder = SpanRecorder()
    recorder.cycle = index
    stepwise = run_cycles(
        workload, index, cycles, kernel,
        execute=lambda step: execute_stepwise(workload, step, recorder),
        to_outcome=lambda step, raw: stepwise_outcome(workload, step, raw),
        observer=recorder)
    spans = span_metrics(recorder, stepwise)
    spans["client.trace_overhead_ratio"] = \
        statistics.median(s.norm_ms for s in stepwise) / window["wall_norm_ms_p50"]
    measured.add(spans, cycles)
    _check_same_sim(workload, plain, stepwise, "stepwise path")

    # leg 3: self time by layer.  cProfile sees the calling thread only,
    # so the stage runner goes serial; answers and simulated seconds must
    # not notice
    index += advance
    profiled_cycles = _round_up(max(2, cycles // 4), period)
    profiler = cProfile.Profile()
    conf = workload.session.conf
    parallel = conf.get("engine.parallel.enabled", True)
    conf["engine.parallel.enabled"] = False
    try:
        profiled = run_cycles(
            workload, index, profiled_cycles, kernel,
            execute=lambda step: profiler.runcall(workload.execute, step))
    finally:
        conf["engine.parallel.enabled"] = parallel
    _check_same_sim(workload, plain, profiled, "serial profiled run")
    classifier = LayerClassifier(os.path.dirname(repro.__file__))
    by_layer = profile_by_layer(profiler.getstats(), classifier)
    total_self = sum(entry["self_s"] for entry in by_layer.values())
    shares: Dict[str, float] = {}
    for group in GROUPS:
        shares[f"{group}.self_share"] = by_layer[group]["self_s"] / total_self
        shares[f"{group}.pycalls_per_cycle"] = \
            by_layer[group]["calls"] / profiled_cycles
    measured.add(shares, profiled_cycles)

    measured.add(run_probes(workload, kernel), PROBE_REPEATS)
    if workload.serving_probe:
        measured.add(*run_serving_probe(workload))
    else:
        measured.add(ZERO_SERVING, 0)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{workload.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": workload.name, "seed": workload.seed,
                "cycles": [s.index for s in stepwise],
                "calib_ms": {s.index: statistics.fmean(s.calib_s) * 1000.0
                             for s in stepwise},
                "spans": recorder.to_json(),
                "profile": by_layer,
            }, fh, indent=1)
    return plain + stepwise + profiled


def _check_same_sim(workload: Workload, reference: List[CycleSample],
                    other: List[CycleSample], what: str) -> None:
    """An instrumented leg must cost the same simulated seconds as leg 1,
    cycle by cycle.

    Only replayed cycles have a counterpart: ``ingest_views`` grows its
    tables, its legs run different cycles and only their answers are
    checked.
    """
    want = {s.index: s.sim_s for s in reference}
    for sample in other:
        expected = want.get(sample.index)
        if expected is not None \
                and abs(sample.sim_s - expected) > SIM_TOLERANCE * expected:
            workload.failures.append(
                f"{what}, cycle {sample.index}: {sample.sim_s:.6f} simulated "
                f"s, one-call path {expected:.6f}")


def run_workload(name: str, seed: int, seconds: float, trace: str,
                 quick: bool = False,
                 out_dir: Optional[str] = None) -> Dict[str, object]:
    """Everything one invocation measures; returns the raw result.

    ``trace`` is ``"0"`` (end-to-end metrics), ``"1"`` (per-layer metrics)
    or ``"both"``.  ``quick`` quarters the cycle counts.
    """
    kernel = CalibrationKernel()
    timed = trace in ("0", "both")
    # the repeated set-ups are for the driver's timed runs; the
    # all-workloads run has a 120 s budget and reads set-up once
    workload, setups_s = measure_setup(
        lambda: _build(name, seed), lambda built: built.teardown(), kernel,
        WORKLOADS[name].setup_repeats if trace == "0" and not quick else 1)
    workload.prepare_checks()

    cycles = workload.timed_cycles(seconds)
    if quick:
        cycles = max(4, cycles // 4)
    index = 0
    run_cycles(workload, index, workload.warmup_cycles, kernel)
    index += workload.warmup_cycles

    measured = Measured()
    counted: List[CycleSample] = []
    raw_cycles: List[Dict[str, object]] = []
    if timed:
        # the timed window: nothing attached, the collector run once before
        settle()
        counted = run_cycles(workload, index, cycles, kernel)
        index += cycles
        measured.add(summarise_window(counted), len(counted))
        measured.add({"setup_s": statistics.median(setups_s)}, len(setups_s))
        raw_cycles = [{"index": s.index, "step_wall_s": s.step_wall_s,
                       "calib_s": s.calib_s, "sim_s": s.sim_s, "ok": s.ok}
                      for s in counted]
    if trace in ("1", "both"):
        # client.* read off the timed window win when both passes ran
        traced = traced_pass(workload, kernel, index, cycles, out_dir, measured)
        if not timed:
            counted = traced
    final_ok = workload.final_check()
    measured.add({"peak_rss_mb": peak_rss_mb()}, 1)
    return {
        "workload": name, "seed": seed,
        "correct": final_ok and not workload.failures,
        "attempted": len(counted),
        "failed": sum(1 for s in counted if not s.ok),
        "failures": workload.failures[:10],
        "values": measured.values,
        "samples": measured.samples,
        # the timed window sample by sample, for whoever doubts a median
        "cycles": raw_cycles,
    }
