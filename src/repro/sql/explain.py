"""EXPLAIN ANALYZE: render an executed physical plan with runtime stats.

``DataFrame.explain(analyze=True)`` runs the query once with tracing on and
hands the physical plan plus its :class:`~repro.sql.session.QueryResult`
here.  The report annotates each operator with what actually happened --
regions pruned vs. scanned, filters pushed vs. residual, locality hits and
misses -- then appends a per-stage table (tasks, locality, simulated and
wall-clock time, bytes moved) and a query summary (shuffle/broadcast volume,
task failures, HBase retries).  An operator's numbers are the run's counters
scoped to it (``MetricsRegistry.for_op``), its facts come from
``QueryResult.operator_stats`` and stage numbers from ``QueryResult.stages``;
each is recorded once, so the notes sum to the counters by construction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sql.physical import PhysicalPlan


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024.0 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GB"


def operator_annotations(physical: PhysicalPlan, result) -> Dict[int, List[str]]:
    """Per-operator annotation lines keyed by ``op_id``.

    Each operator gets its scoped counters and recorded facts; scan
    operators also get the locality of every stage whose lineage reads
    that scan (``StageInfo.scope``).
    """
    stages_by_scope: Dict[int, List] = {}
    for stage in result.stages:
        if stage.scope is not None:
            stages_by_scope.setdefault(stage.scope, []).append(stage)

    annotations: Dict[int, List[str]] = {}
    for op in physical.walk():
        notes: List[str] = []
        stats = result.operator_stats.get(op.op_id, {})
        counts = result.metrics.for_op(op.op_id)
        if "engine.vectorized.batches" in counts:
            notes.append(
                f"batches: {int(counts['engine.vectorized.batches'])} "
                f"(rows={int(counts['engine.vectorized.rows'])})"
            )
        if "engine.vectorized.fused_operators" in counts:
            notes.append(f"fused: {int(counts['engine.vectorized.fused_operators'])}"
                         f" operators in one pass")
        if "engine.setop.rows_out" in counts:
            notes.append(f"setop: rows_out={int(counts['engine.setop.rows_out'])}")
        if "shc.regions_scanned" in counts:
            notes.append(
                f"regions: scanned={int(counts['shc.regions_scanned'])} "
                f"pruned={int(counts['shc.regions_pruned'])} "
                f"of {stats['regions_total']}"
            )
        if "shc.filters_pushed" in counts:
            notes.append(
                f"filters: pushed={int(counts['shc.filters_pushed'])} "
                f"residual={int(counts['shc.filters_residual'])}"
            )
        if "filters_runtime" in stats:
            notes.append(
                f"runtime filters: {int(stats['filters_runtime'])} "
                f"(join build keys)"
            )
        est = getattr(op, "cbo_rows", None)
        if "engine.join.rows_out" in counts:
            actual = int(counts["engine.join.rows_out"])
            line = f"join: rows_out={actual} " \
                   f"({_fmt_bytes(counts['engine.join.bytes_out'])})"
            if est is not None:
                err = actual / est if est > 0 else float("inf")
                line += f", est={est:.0f} (x{err:.2f} actual/est)"
            notes.append(line)
        elif est is not None:
            notes.append(f"cbo: est rows={est:.0f}")
        if "build_reused_from" in stats:
            notes.append(f"build: reused from op {stats['build_reused_from']}")
        if "sql.cbo.runtime_keys.pushed" in counts:
            scan = result.operator_stats.get(op.probe_scan().op_id, {})
            notes.append(   # only an HBase scan says what the keys became
                f"runtime keys: {int(counts['sql.cbo.runtime_keys.pushed'])} keys"
                + (f" -> {scan['scan_ranges']} ranges"
                   if "scan_ranges" in scan else ""))
        if "final_strategy" in stats:
            notes.append(
                f"aqe: {stats.get('initial_strategy', '?')} -> "
                f"{stats['final_strategy']}"
            )
        scan_stages = stages_by_scope.get(op.op_id)
        if scan_stages:
            local = sum(s.local_tasks for s in scan_stages)
            tasks = sum(s.num_tasks for s in scan_stages)
            sim = sum(s.duration_s for s in scan_stages)
            ids = ",".join(str(s.stage_id) for s in scan_stages)
            notes.append(
                f"locality: hits={local} misses={tasks - local} "
                f"of {tasks} tasks"
            )
            notes.append(f"stages: [{ids}] sim={sim:.4f}s")
            bc_hit = sum(s.metrics.get("hbase.blockcache.hit_bytes")
                         for s in scan_stages)
            bc_miss = sum(s.metrics.get("hbase.blockcache.miss_bytes")
                          for s in scan_stages)
            if bc_hit or bc_miss:
                ratio = bc_hit / (bc_hit + bc_miss)
                notes.append(
                    f"block cache: hit={_fmt_bytes(bc_hit)} "
                    f"miss={_fmt_bytes(bc_miss)} ({ratio:.0%} byte hit ratio)"
                )
        if notes:
            annotations[op.op_id] = notes
    return annotations


def _stage_table(stages: Sequence) -> List[str]:
    header = (f"{'stage':>5}  {'kind':<11}  {'tasks':>5}  {'local':>5}  "
              f"{'sim_s':>9}  {'wall_s':>9}  {'output':>10}  {'scan':>4}")
    lines = [header, "-" * len(header)]
    for s in stages:
        scope = str(s.scope) if s.scope is not None else "-"
        lines.append(
            f"{s.stage_id:>5}  {s.kind:<11}  {s.num_tasks:>5}  "
            f"{s.local_tasks:>5}  {s.duration_s:>9.4f}  "
            f"{s.wall_clock_s:>9.4f}  {_fmt_bytes(s.output_bytes):>10}  "
            f"{scope:>4}"
        )
    return lines


def _summary(result) -> List[str]:
    m = result.metrics
    lines = [
        f"rows returned: {len(result.rows)}",
        f"simulated seconds: {result.seconds:.4f} "
        f"(wall-clock: {result.wall_clock_s:.4f}s)",
        f"tasks: {int(m.get('engine.tasks'))} total, "
        f"{int(m.get('engine.local_tasks'))} on preferred hosts",
        f"shuffle: write={_fmt_bytes(m.get('engine.shuffle_write_bytes'))} "
        f"read={_fmt_bytes(m.get('engine.shuffle_read_bytes'))} "
        f"broadcast={_fmt_bytes(m.get('engine.broadcast_bytes'))}",
        f"scans: regions scanned={int(m.get('shc.regions_scanned'))} "
        f"pruned={int(m.get('shc.regions_pruned'))}; "
        f"filters pushed={int(m.get('shc.filters_pushed'))} "
        f"residual={int(m.get('shc.filters_residual'))}",
        f"resilience: {int(m.get('engine.task_failures'))} task failures, "
        f"{int(m.get('hbase.retries'))} hbase retries",
    ]
    bc_hits = int(m.get("hbase.blockcache.hits"))
    bc_misses = int(m.get("hbase.blockcache.misses"))
    if bc_hits or bc_misses:
        lines.append(
            f"block cache: hits={bc_hits} misses={bc_misses} "
            f"hit_bytes={_fmt_bytes(m.get('hbase.blockcache.hit_bytes'))}"
        )
    return lines


def _vectorized_section(result) -> List[str]:
    """The batch-execution section: totals of the ``engine.vectorized.*``
    counters this run produced.  The per-operator ``batches:`` notes are the
    same counters' operator-scoped entries, so they sum to these numbers
    (tests/sql/test_vectorized_exec.py).
    """
    m = result.metrics
    return [
        "",
        "== Vectorized Execution ==",
        f"batches processed: {int(m.get('engine.vectorized.batches'))} "
        f"({int(m.get('engine.vectorized.rows'))} rows)",
        f"operators fused: {int(m.get('engine.vectorized.fused_operators'))}",
    ]


def _adaptive_section(physical: PhysicalPlan, result) -> List[str]:
    """The adaptive-execution section: reopt events plus the final plan.

    Empty (section omitted entirely) unless an ``AdaptiveJoinExec``
    (``sql.aqe.enabled``) re-optimised something.
    The initial plan is the tree EXPLAIN ANALYZE already printed; the final
    plan re-renders it with each adapted operator's executed strategy.
    """
    events = list(getattr(result, "reopt_events", ()) or ())
    if not events:
        return []
    overrides: Dict[int, str] = {}
    for op in physical.walk():
        stats = result.operator_stats.get(op.op_id) or {}
        final = stats.get("final_strategy")
        if final is not None:
            overrides[op.op_id] = f"{op.describe()} => {final}"
    lines = [
        "",
        "== Adaptive Execution ==",
        f"reoptimizations: {len(events)}",
    ]
    lines.extend(
        f"  op {e['op_id']}: {e['rule']} -- {e['detail']}" for e in events
    )
    lines.append("final plan:")
    lines.append(physical.pretty(overrides=overrides))
    return lines


def _cbo_section(physical: PhysicalPlan, result) -> List[str]:
    """The cost-based-optimizer section: what the stats-driven planner did.

    Empty (section omitted entirely) unless the query's tables had ANALYZE
    statistics and planning produced at least one estimate.  The
    per-operator ``est=`` join annotations elaborate the same run; the
    estimation-error lines here make mis-estimates visible at a glance.
    """
    m = result.metrics
    counters = {
        name: m.get(name)
        for name in (
            "sql.cbo.estimates", "sql.cbo.stats_stale",
            "sql.cbo.reorders_applied", "sql.cbo.reorders_rejected",
            "sql.cbo.runtime_keys.pushed",
            "sql.cbo.aqe_priors_used",
        )
    }
    if not any(counters.values()):
        return []
    lines = [
        "",
        "== Cost-Based Optimization ==",
        f"estimates: {int(counters['sql.cbo.estimates'])} "
        f"(stale stats skipped: {int(counters['sql.cbo.stats_stale'])})",
        f"join reorders: applied={int(counters['sql.cbo.reorders_applied'])} "
        f"rejected={int(counters['sql.cbo.reorders_rejected'])}",
        f"runtime keys pushed: {int(counters['sql.cbo.runtime_keys.pushed'])}",
    ]
    if counters["sql.cbo.aqe_priors_used"]:
        lines.append(
            f"aqe priors: {int(counters['sql.cbo.aqe_priors_used'])} join "
            f"strategies settled from statistics (no stage barrier)"
        )
    for op in physical.walk():
        est = getattr(op, "cbo_rows", None)
        counts = result.metrics.for_op(op.op_id)
        if est is not None and "engine.join.rows_out" in counts:
            actual = int(counts["engine.join.rows_out"])
            err = actual / est if est > 0 else float("inf")
            lines.append(
                f"  op {op.op_id}: est {est:.0f} rows, actual {actual} "
                f"(x{err:.2f})"
            )
    return lines


def _serving_section(result) -> List[str]:
    """The admission-control section for queries that came through the
    serving front door (:mod:`repro.serving`).

    Empty (section omitted entirely) for directly-executed queries --
    ``result.serving`` is only stamped by the :class:`QueryServer`, so
    existing reports are byte-identical without it.  ``queue wait`` here is
    the same number the server charged to ``serving.queue_wait_s`` and to
    the client operation deadline (``CostLedger.queued_s``).
    """
    serving = getattr(result, "serving", None)
    if not serving:
        return []
    lines = [
        "",
        "== Serving ==",
        f"tenant: {serving.get('tenant', '?')}"
        + (" (breaker probe)" if serving.get("probe") else ""),
        f"queue wait: {float(serving.get('wait_s', 0.0)):.4f}s "
        f"(arrived {float(serving.get('arrival_s', 0.0)):.4f}s, "
        f"dispatched {float(serving.get('start_s', 0.0)):.4f}s)",
        f"leased slots: {int(serving.get('slots', 0))}",
        f"breaker state at dispatch: {serving.get('breaker_state', '?')}",
    ]
    total = float(serving.get("wait_s", 0.0)) + result.seconds
    lines.append(f"end-to-end simulated seconds: {total:.4f} "
                 f"(wait + execution)")
    return lines


def views_section_lines(events) -> List[str]:
    """The "Materialized Views" section for a list of rewrite events.

    Empty (section omitted entirely) when no view was considered, so
    view-free reports are byte-identical to the seed.  One line per
    decision: a rewrite names the view and the sizes it was priced at; a
    rejection says why the view could not answer the query (stale feed or
    a view no smaller than the base plan).
    """
    if not events:
        return []
    lines = ["", "== Materialized Views =="]
    for event in events:
        action = event.get("action")
        name = event.get("view", "?")
        view_b = _fmt_bytes(event.get("view_bytes", 0.0))
        base_b = _fmt_bytes(event.get("base_bytes", 0.0))
        lag = float(event.get("lag_s", 0.0))
        if action == "rewrites":
            lines.append(f"rewrote onto {name}: view {view_b} vs base "
                         f"{base_b}, lag {lag:.4f}s")
        elif action == "rejected_stale":
            lines.append(f"rejected {name}: stale (lag {lag:.4f}s over "
                         f"sql.view.staleness)")
        elif action == "rejected_cost":
            lines.append(f"rejected {name}: view {view_b} not smaller than "
                         f"base {base_b}")
        else:
            lines.append(f"{action} {name}")
    return lines


def _views_section(result) -> List[str]:
    """Materialized-view decisions for this execution."""
    return views_section_lines(getattr(result, "view_events", []))


def explain_analyze_report(physical: PhysicalPlan, result) -> str:
    """The full EXPLAIN ANALYZE text for one executed query."""
    sections = [
        "== Physical Plan (EXPLAIN ANALYZE) ==",
        physical.pretty(annotations=operator_annotations(physical, result)),
        "",
        "== Stages ==",
        *_stage_table(result.stages),
        "",
        "== Query Summary ==",
        *_summary(result),
        *_vectorized_section(result),
        *_adaptive_section(physical, result),
        *_cbo_section(physical, result),
        *_views_section(result),
        *_serving_section(result),
    ]
    return "\n".join(sections)
