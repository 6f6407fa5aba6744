"""Measurement helpers: calibration kernel, closed-loop driver, statistics.

Everything here is workload-agnostic.  A workload (``workloads.py``) hands
the driver a list of :class:`Step` objects per cycle; the driver times each
step with ``time.perf_counter``, brackets it with runs of a fixed
pure-Python calibration kernel, and reports wall-clock in *calibrated*
milliseconds -- ``wall / mean(adjacent kernel runs) * CALIB_REF_MS`` -- so a
box that happens to run 1.5x slower for a minute (this one does) moves the
kernel and the program together and the ratio stays put.  README.md has
the evidence and the method.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail_supported(n: int, q: float) -> bool:
    """Do ``n`` samples leave at least ten beyond percentile ``q``?

    A tail percentile read off fewer than ten samples is one outlier's
    value, not a property of the distribution.
    """
    return n * (100 - q) / 100.0 >= 10


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# -- calibration kernel ----------------------------------------------------------

#: what one kernel pass costs on this repo's reference box when it is quiet;
#: only a unit conversion (calibrated ms read like raw ms on a quiet box)
CALIB_REF_MS = 4.0
#: kernel passes per calibration point (one point sits between two steps)
CALIB_PASSES = 3

_KERNEL_CELLS = 60_000
_KERNEL_SLICE = 5_000


class _KernelCell:
    """Shaped like ``repro.hbase.cell.Cell``: small object, own byte strings."""

    __slots__ = ("row", "family", "qualifier", "timestamp", "value")

    def __init__(self, row, family, qualifier, timestamp, value):
        self.row = row
        self.family = family
        self.qualifier = qualifier
        self.timestamp = timestamp
        self.value = value


class CalibrationKernel:
    """A fixed slab of pure-Python work with the program's instruction mix.

    Bytes slicing, ``struct.unpack``, ``int.from_bytes``, attribute loads on
    slotted objects, tuple/dict building and a sort, over a ~10 MB object
    set walked a slice at a time so the cache behaviour resembles decoding
    scan results rather than a register-resident loop.  The work per pass
    is constant, so its duration measures the machine, not the program.
    """

    def __init__(self) -> None:
        pack_key = struct.Struct(">iii").pack
        pack_val = struct.Struct(">i").pack
        # a fixed multiplicative scramble, not random: same set every run
        self._cells = [
            _KernelCell(pack_key((i * 2654435761) & 0x3FFFFFFF, i, i % 7),
                        "cf%d" % (i % 4), "q", i, pack_val(i))
            for i in range(_KERNEL_CELLS)
        ]
        self._pos = 0
        self._unpack_key = struct.Struct(">iii").unpack

    def run_pass(self) -> float:
        """One pass; returns its wall-clock seconds."""
        start = time.perf_counter()
        unpack_key = self._unpack_key
        lo = self._pos
        self._pos = (lo + _KERNEL_SLICE) % _KERNEL_CELLS
        acc = 0
        table = {}
        for cell in self._cells[lo:lo + _KERNEL_SLICE]:
            a, b, c = unpack_key(cell.row)
            v = int.from_bytes(cell.value, "big")
            acc += cell.row[4:8][0] + v
            table[(cell.family, b)] = (a, c, v, cell.timestamp)
        ordered = sorted(table.values())
        if acc < 0 or not ordered:  # consume the results
            raise AssertionError("calibration kernel produced nothing")
        return time.perf_counter() - start

    def point(self) -> List[float]:
        """One calibration point: ``CALIB_PASSES`` back-to-back kernel runs.

        The collector is held off meanwhile: the kernel allocates, and a
        full collection landing inside a 4 ms pass (40 ms right after a
        load) would measure the program's heap, not the machine.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return [self.run_pass() for __ in range(CALIB_PASSES)]
        finally:
            if collecting:
                gc.enable()


def normalise(wall_s: float, calib_passes_s: Sequence[float]) -> float:
    """Calibrated milliseconds: wall time in units of the kernel's time."""
    return wall_s / statistics.fmean(calib_passes_s) * CALIB_REF_MS


# -- answers -----------------------------------------------------------------------


def _sort_key(row: Sequence[object]) -> tuple:
    exact, floats = [], []
    for value in row:
        if isinstance(value, float):
            floats.append(value)
        else:
            # None sorts first; the type name keeps mixed columns comparable
            exact.append((value is not None, type(value).__name__, value))
    return (exact, floats)


def _values_equal(a: object, b: object, rel_tol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12)
    return a == b


def rows_match(actual: Sequence[Sequence[object]],
               expected: Sequence[Sequence[object]],
               order_by: Sequence[int] = (),
               rel_tol: float = 1e-9) -> bool:
    """Do two answers hold the same rows?

    Compared as sorted multisets with floats to ``rel_tol`` relative.  When
    the statement has an ORDER BY, ``order_by`` names the key columns and
    ``actual`` must additionally arrive non-decreasing in them (ties may
    legitimately fall either way, so order is not compared row by row).
    """
    if len(actual) != len(expected):
        return False
    if order_by:
        keys = [tuple(row[i] for i in order_by) for row in actual]
        if any(a > b for a, b in zip(keys, keys[1:])):
            return False
    for got, want in zip(sorted(actual, key=_sort_key),
                         sorted(expected, key=_sort_key)):
        if len(got) != len(want):
            return False
        if not all(_values_equal(a, b, rel_tol) for a, b in zip(got, want)):
            return False
    return True


# -- the closed-loop driver ----------------------------------------------------------


@dataclass
class Outcome:
    """What one step produced, in the shape the checks and counters read."""

    rows: List[tuple]
    #: per-statement counters (``QueryResult.metrics`` / ``WriteResult.metrics``)
    metrics: Dict[str, float] = field(default_factory=dict)
    stages: List[object] = field(default_factory=list)
    view_events: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class Step:
    """One statement of a cycle.

    ``kind`` is ``"sql"`` (``session.sql(text)``), ``"save"`` (a DataFrame
    write; ``payload`` holds the rows) or ``"compact"`` (flush + major
    compaction of ``payload`` tables).  ``check`` judges the outcome.
    """

    label: str
    kind: str
    text: str = ""
    payload: object = None
    check: Optional[Callable[[Outcome], bool]] = None


@dataclass
class CycleSample:
    index: int
    #: wall seconds per step, calibration excluded
    step_wall_s: List[float]
    #: kernel pass durations of every calibration point touching this cycle
    calib_s: List[float]
    sim_s: float
    ok: bool

    @property
    def wall_s(self) -> float:
        return sum(self.step_wall_s)

    @property
    def norm_ms(self) -> float:
        return normalise(self.wall_s, self.calib_s)


def run_cycles(workload, first_index: int, count: int,
               kernel: CalibrationKernel,
               execute: Optional[Callable[[Step], object]] = None,
               to_outcome: Optional[Callable[[Step, object], Outcome]] = None,
               observer=None) -> List[CycleSample]:
    """Run ``count`` cycles closed-loop: one client, next step after the last.

    A calibration point precedes the first cycle and follows every cycle;
    workloads with long statements (``calibrate_steps``) get one between
    statements too, because this box's speed shifts within a second.  Each
    cycle is normalised by every kernel pass from the point before it to the
    point after it.  Only ``execute`` is timed; turning its result into an
    :class:`Outcome` and checking it happen after the clock stops.  A step
    that raises counts as a failed cycle -- the loop goes on, so one bad
    statement costs one sample, not the run.  ``observer`` (optional) gets
    ``on_outcome(index, step, outcome)`` and ``on_cycle_end(index)``.
    """
    execute = execute or workload.execute
    to_outcome = to_outcome or workload.outcome
    clock = workload.clock
    samples: List[CycleSample] = []
    point = kernel.point()
    for index in range(first_index, first_index + count):
        steps = workload.steps(index)
        calib = list(point)
        walls: List[float] = []
        ok = True
        sim_before = clock.now()
        for position, step in enumerate(steps):
            if position and workload.calibrate_steps:
                calib.extend(kernel.point())
            start = time.perf_counter()
            try:
                raw = execute(step)
            except Exception as exc:  # boundary: count it, keep measuring
                walls.append(time.perf_counter() - start)
                workload.note_failure(index, step, repr(exc))
                ok = False
                continue
            walls.append(time.perf_counter() - start)
            outcome = to_outcome(step, raw)
            if step.check is not None and not step.check(outcome):
                workload.note_failure(index, step, "wrong answer")
                ok = False
            if observer is not None:
                observer.on_outcome(index, step, outcome)
        sim_s = clock.now() - sim_before
        if observer is not None:
            observer.on_cycle_end(index)
        point = kernel.point()
        calib.extend(point)
        samples.append(CycleSample(index, walls, calib, sim_s, ok))
    return samples


def settle() -> None:
    """Collect once, then park the survivors outside the collector's reach.

    The loaded cluster is a few hundred thousand long-lived objects.  Left
    in the youngest-old generation they make every full collection cost
    30-80 ms, and whether a cycle sees one or two of those is a coin flip
    that splits cycle times into two modes -- poison for a median.  In the
    real system those bytes live in region-server processes the client's
    collector never walks, so freezing them is also the more faithful
    model.  The collector stays on for everything allocated afterwards.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- summarising a timed window ----------------------------------------------------------


def summarise_window(samples: Sequence[CycleSample]) -> Dict[str, float]:
    """The wall/sim statistics of a list of cycle samples."""
    norm = [s.norm_ms for s in samples]
    raw = [s.wall_s * 1000.0 for s in samples]
    passes = [p * 1000.0 for s in samples for p in s.calib_s]
    quarter = max(1, len(norm) // 4)
    return {
        "wall_norm_ms_p50": statistics.median(norm),
        # mean-based on purpose: a compaction stall or collector pause the
        # median hides still lowers the rate
        "cycles_per_s": len(norm) / (sum(norm) / 1000.0),
        "sim_s_per_cycle": statistics.fmean(s.sim_s for s in samples),
        "client.cycle_wall_raw_ms_p50": statistics.median(raw),
        "client.cycle_wall_norm_ms_p90": percentile(norm, 90),
        "client.calib_ms_p50": statistics.median(passes),
        "client.calib_spread": spread(passes),
        "client.drift_ratio": (statistics.median(norm[-quarter:])
                               / statistics.median(norm[:quarter])),
        "client.samples": float(len(norm)),
    }


def step_norm_ms(samples: Sequence[CycleSample]) -> List[float]:
    """Every step's calibrated wall (cycle-level calibration applied)."""
    out: List[float] = []
    for sample in samples:
        out.extend(normalise(w, sample.calib_s) for w in sample.step_wall_s)
    return out


def measure_setup(build: Callable[[], object], teardown: Callable[[object], None],
                  kernel: CalibrationKernel, repeats: int
                  ) -> Tuple[object, List[float]]:
    """Set up ``repeats`` times; keep the last state.

    Returns it with the calibrated seconds of every build; ``setup_s`` is
    their median.  Each build is bracketed by calibration points and
    normalised like a cycle.  Every state but the last is torn down and
    collected before the next build, so one loaded cluster is alive at a
    time: left to the collector's own schedule, whether the old cluster was
    still there when the new one peaked split ``peak_rss_mb`` into two modes
    5 % apart.
    """
    norm_s: List[float] = []
    state = None
    for __ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        before = kernel.point()
        start = time.perf_counter()
        state = build()
        wall = time.perf_counter() - start
        norm_s.append(normalise(wall, before + kernel.point()) / 1000.0)
    return state, norm_s
