"""End-to-end batch execution: an outside referee, one format, fusion, EXPLAIN.

There is one execution path, so the semantics oracle cannot be "the other
mode": every parity query runs against stdlib ``sqlite3`` loaded with the
same rows, at batch sizes 1, 7 and the default (batch seams inside every
partition), with joins planned broadcast and -- shuffled -- statically or
adaptively, with and without ANALYZE statistics; a second oracle puts every
join type, the nested loop and the row-ordered operators on batch seams of
1 and 3 rows.  The one format is checked as the plans run (every edge below
the root carries batches, on every way into the planner), and EXPLAIN
ANALYZE's per-operator batch notes must sum to exactly the run's
``engine.vectorized.*`` counters.
"""

import json
import random
import re
import sqlite3

import pytest

from repro.common.errors import AnalysisError
from repro.core.catalog import HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.extensions import HUAWEI_FORMAT
from repro.extensions.huawei import CoprocessorAggregateExec
from repro.hbase.cluster import HBaseCluster
from repro.sql import SparkSession
from repro.sql import columnar as C
from repro.sql import expressions as E
from repro.sql import physical as P
from repro.sql import vectorized as V
from repro.sql.adaptive import AdaptiveJoinExec, QueryStageExec
from repro.sql.explain import explain_analyze_report
from repro.sql.functions import col
from repro.sql.optimizer import optimize
from repro.sql.planner import Planner
from repro.sql.types import DoubleType, LongType, StringType, StructField, StructType
from repro.workloads import load_tpcds, queries
from repro.workloads.tpcds_schema import TABLES
from repro.workloads.queries_df import q39a_dataframe

SCHEMA = StructType([
    StructField("id", LongType),
    StructField("k", LongType),
    StructField("v", DoubleType),
    StructField("tag", StringType),
])

DIM_SCHEMA = StructType([
    StructField("k", LongType),
    StructField("label", StringType),
])


def make_rows(n=3000, null_p=0.15, seed=5):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append((
            i,
            None if rng.random() < null_p else rng.randint(0, 49),
            None if rng.random() < null_p else round(rng.uniform(0, 100), 4),
            None if rng.random() < null_p else rng.choice(["a", "b", "c"]),
        ))
    return rows


DIM_ROWS = [(k, f"label-{k}") for k in range(0, 50, 2)]

QUERIES = [
    # fused scan -> filter -> project
    "SELECT id, v * 2.0 + 1.0 AS vv, k % 7 AS kb FROM t "
    "WHERE k > 5 AND k < 45 AND v > 10.0 AND tag IS NOT NULL",
    # global aggregation (the one group ())
    "SELECT count(*) AS n, sum(v) AS sv, min(k) AS mn, max(v) AS mx, "
    "avg(v) AS av FROM t WHERE k > 3",
    # grouped aggregation
    "SELECT k, count(*) AS n, sum(v) AS sv FROM t WHERE v > 5.0 "
    "GROUP BY k ORDER BY k",
    # joins (threshold conf decides broadcast vs shuffled per test run)
    "SELECT t.k, d.label, t.v FROM t JOIN d ON t.k = d.k "
    "WHERE t.v > 50.0 ORDER BY t.id",
    # join + aggregation + residual-free keys
    "SELECT d.label, count(*) AS n FROM t JOIN d ON t.k = d.k "
    "GROUP BY d.label ORDER BY d.label",
    # row-ordered tail operators downstream of batch operators
    "SELECT DISTINCT tag FROM t WHERE k > 10 ORDER BY tag",
    "SELECT tag FROM t WHERE k < 5 UNION SELECT tag FROM t WHERE k > 45",
    # CASE/IN/LIKE kernels
    "SELECT id, CASE WHEN v > 50.0 THEN 'hi' WHEN v > 20.0 THEN 'mid' "
    "ELSE 'lo' END AS band FROM t WHERE k IN (1, 2, 3, 4) "
    "AND tag LIKE 'a%' ORDER BY id",
]

#: a non-literal IN list compares per row, not against a literal set
NON_LITERAL_IN_QUERY = "SELECT id, k FROM t WHERE k IN (id, 3, 7)"


def fresh_session(conf=None, analyze=False):
    session = SparkSession(["h1", "h2"], conf=conf)
    session.create_dataframe(make_rows(), SCHEMA).create_or_replace_temp_view("t")
    session.create_dataframe(DIM_ROWS, DIM_SCHEMA).create_or_replace_temp_view("d")
    if analyze:
        session.sql("ANALYZE TABLE t COMPUTE STATISTICS")
        session.sql("ANALYZE TABLE d COMPUTE STATISTICS")
    return session


def run_rows(query, conf=None, analyze=False):
    session = fresh_session(conf, analyze)
    result = session.sql(query).run()
    session.shutdown()
    return [tuple(r.values) for r in result.rows], result


@pytest.fixture(scope="module")
def oracle():
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v REAL, tag TEXT)")
    db.execute("CREATE TABLE d (k INTEGER, label TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", make_rows())
    db.executemany("INSERT INTO d VALUES (?, ?)", DIM_ROWS)
    yield lambda query: db.execute(query).fetchall()
    db.close()


def _null_safe(row):
    return tuple((v is None, 0 if v is None else v) for v in row)


def assert_same_multiset(got, expected, context):
    got, expected = sorted(got, key=_null_safe), sorted(expected, key=_null_safe)
    assert len(got) == len(expected), context
    for g, e in zip(got, expected):
        assert len(g) == len(e), context
        for a, b in zip(g, e):
            if isinstance(a, float) and b is not None:
                assert a == pytest.approx(b, abs=1e-9, rel=1e-9), context
            else:
                assert a == b, context


@pytest.mark.parametrize("batch_size", [1, 7, None])
@pytest.mark.parametrize("query", QUERIES + [NON_LITERAL_IN_QUERY])
def test_answers_agree_with_sqlite(query, batch_size, oracle, monkeypatch):
    if batch_size is not None:
        monkeypatch.setattr(C, "BATCH_SIZE", batch_size)
    expected = oracle(query)
    assert expected, query  # the comparison must compare something
    # default threshold broadcasts d; threshold 1 shuffles both join sides,
    # which is where the two things that change a plan apply: the adaptive
    # join (sql.aqe.enabled) and ANALYZE statistics (the runtime key filter)
    shuffled = {"sql.autoBroadcastJoinThreshold": 1}
    for conf, analyze in [(None, False)] + [
            (dict(shuffled, **{"sql.aqe.enabled": aqe}), analyze)
            for aqe in (False, True) for analyze in (False, True)]:
        got, result = run_rows(query, conf, analyze)
        assert_same_multiset(got, expected, (query, batch_size, conf, analyze))
        assert result.metrics.get("engine.vectorized.batches") > 0


# -- batch seams through every join type and the row-ordered operators ------------

L_SCHEMA = StructType([StructField("a", LongType), StructField("lk", LongType),
                       StructField("s", StringType)])
R_SCHEMA = StructType([StructField("rk", LongType), StructField("w", LongType)])
L_ROWS = [(i, None if i % 5 == 0 else i % 9, "s%d" % (i % 4)) for i in range(40)]
R_ROWS = [(None if i % 6 == 0 else i % 8, i) for i in range(12)]


def _sql(text):
    return lambda session: session.sql(text)


def _frame_join(how):
    def frame(session):
        left, right = session.sql("SELECT * FROM l"), session.sql("SELECT * FROM r")
        return left.join(right, on=col("lk") == col("rk"), how=how)
    return frame


#: (engine side, sqlite text, ordered): the answers must agree row for row
#: when ``ordered``, as multisets otherwise
SEAM_CASES = [
    (_sql("SELECT a, w FROM l JOIN r ON lk = rk"),
     "SELECT a, w FROM l JOIN r ON lk = rk", False),
    (_sql("SELECT a, lk, w FROM l LEFT JOIN r ON lk = rk"),
     "SELECT a, lk, w FROM l LEFT JOIN r ON lk = rk", False),
    (_sql("SELECT a, s FROM l WHERE lk IN (SELECT rk FROM r)"),
     "SELECT a, s FROM l WHERE lk IN (SELECT rk FROM r)", False),
    (_frame_join("anti"),
     "SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE rk = lk)", False),
    (_sql("SELECT count(*) AS n, sum(a) AS sa, max(s) AS ms FROM l WHERE a > 99"),
     "SELECT count(*), sum(a), max(s) FROM l WHERE a > 99", False),
    (_sql("SELECT a, lk FROM l ORDER BY lk DESC, a LIMIT 13"),
     "SELECT a, lk FROM l ORDER BY lk DESC, a LIMIT 13", True),
    (_sql("SELECT DISTINCT lk, s FROM l"), "SELECT DISTINCT lk, s FROM l", False),
    (_sql("SELECT lk FROM l INTERSECT SELECT rk FROM r"),
     "SELECT lk FROM l INTERSECT SELECT rk FROM r", False),
    (_sql("SELECT lk FROM l UNION ALL SELECT rk FROM r"),
     "SELECT lk FROM l UNION ALL SELECT rk FROM r", False),
    (_sql("SELECT a, w FROM l JOIN r ON lk < rk"),
     "SELECT a, w FROM l JOIN r ON lk < rk", False),
    (_sql("SELECT a, w FROM l LEFT JOIN r ON lk + 5 < rk"),
     "SELECT a, w FROM l LEFT JOIN r ON lk + 5 < rk", False),
]


@pytest.fixture(scope="module")
def seam_oracle():
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE l (a INTEGER, lk INTEGER, s TEXT)")
    db.execute("CREATE TABLE r (rk INTEGER, w INTEGER)")
    db.executemany("INSERT INTO l VALUES (?, ?, ?)", L_ROWS)
    db.executemany("INSERT INTO r VALUES (?, ?)", R_ROWS)
    yield lambda query: db.execute(query).fetchall()
    db.close()


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("case", range(len(SEAM_CASES)))
def test_batch_seams_agree_with_sqlite(case, batch_size, seam_oracle, monkeypatch):
    """Join outputs, NULL keys and NULL padding, an empty global aggregate
    and every row-ordered operator, cut into batches of 1 and 3 rows, with
    joins broadcast, shuffled and adaptive."""
    monkeypatch.setattr(C, "BATCH_SIZE", batch_size)
    frame_of, text, ordered = SEAM_CASES[case]
    expected = seam_oracle(text)
    assert expected, text
    for conf in (None, {"sql.autoBroadcastJoinThreshold": 1},
                 {"sql.autoBroadcastJoinThreshold": 1, "sql.aqe.enabled": True}):
        session = SparkSession(["h1", "h2"], conf=conf)
        session.create_dataframe(L_ROWS, L_SCHEMA).create_or_replace_temp_view("l")
        session.create_dataframe(R_ROWS, R_SCHEMA).create_or_replace_temp_view("r")
        got = [tuple(r.values) for r in frame_of(session).run().rows]
        session.shutdown()
        if ordered:
            assert got == expected, (text, conf)
        else:
            assert_same_multiset(got, expected, (text, batch_size, conf))


def plan_for(query, conf=None):
    session = fresh_session(conf)
    df = session.sql(query)
    physical = Planner(session.conf).plan_query(optimize(session.analyze(df.plan)))
    session.shutdown()
    return physical


Q39_TABLES = ["inventory", "date_dim", "item", "warehouse"]
KV_SCHEMA = StructType([StructField("k", LongType), StructField("w", DoubleType)])


def beyond_select_plans(conf, monkeypatch, watch):
    """The trees every other way into the planner builds: the DataFrame-built
    q39a over HBase tables, an ``INSERT ... SELECT`` (the write sink), an
    ``INSERT ... VALUES`` (a local scan) and a coprocessor aggregate, each
    as ``SparkSession.plan_query`` handed it to execution, and ``watch``ed
    before it ran."""
    planned = []
    real = SparkSession.plan_query

    def recording(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        watch(result.physical)
        planned.append(result.physical)
        return result

    env = load_tpcds(2, Q39_TABLES)
    monkeypatch.setattr(SparkSession, "plan_query", recording)
    session = env.new_session(conf=conf)
    q39a_dataframe(session).run()
    session.shutdown()

    cluster = HBaseCluster("transitions", ["h1", "h2"])
    session = SparkSession(["h1", "h2"], conf=conf, clock=cluster.clock)
    options = {
        HBaseTableCatalog.tableCatalog: json.dumps({
            "table": {"namespace": "default", "name": "kv"},
            "rowkey": "k",
            "columns": {"k": {"cf": "rowkey", "col": "k", "type": "bigint"},
                        "w": {"cf": "f", "col": "w", "type": "double"}},
        }),
        HBaseTableCatalog.newTable: "2",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    session.create_dataframe([(i, float(i)) for i in range(20)], KV_SCHEMA) \
        .write.format(DEFAULT_FORMAT).options(options).save()
    for fmt, name in ((DEFAULT_FORMAT, "kv"), (HUAWEI_FORMAT, "kv_hw")):
        session.read.format(fmt).options(options).load() \
            .create_or_replace_temp_view(name)
    session.sql("INSERT INTO kv SELECT k + 100, w * 2.0 FROM kv WHERE w > 3.0")
    session.sql("INSERT INTO kv VALUES (500, 1.5), (501, 2.5)")
    session.sql("SELECT k % 3 AS g, count(*) AS n FROM kv_hw GROUP BY k % 3").run()
    session.sql("SELECT count(*) AS n, sum(w) AS s FROM kv_hw").run()
    session.shutdown()
    return planned


def watch_formats(physical, seen):
    """Finish-tree invariants, then a check on what each operator hands out.

    The root is the only ``ColumnarToRow``, finishing the finished tree
    changes nothing (same root, operators, edges and op ids), and a filter
    or projection reads a scan only when that scan already projects (the
    scan stage is one node).  Every operator's ``execute`` is then wrapped
    so that running the tree asserts the format on every edge: batches
    below the root, row tuples out of it."""
    before = [(op, list(op.children), op.op_id) for op in physical.walk()]
    assert V.insert_transitions(physical) is physical
    assert [(op, list(op.children), op.op_id) for op in physical.walk()] == before
    assert [op for op in physical.walk()
            if isinstance(op, V.ColumnarToRowExec)] == [physical]
    for op in physical.walk():
        seen.add(type(op))
        if isinstance(op, (P.FilterExec, P.ProjectExec)) and \
                isinstance(op.children[0], P.ScanExec):
            assert op.children[0].project_list is not None, op.describe()
        if "execute" in vars(op):
            continue   # a cached plan, already watched
        kind = tuple if op is physical else C.RecordBatch

        def execute(ctx, real=op.execute, kind=kind, op=op):
            def check(items, task_ctx):
                for item in items:
                    assert type(item) is kind, (op.describe(), type(item))
                    yield item

            return real(ctx).map_partitions(check)

        op.execute = execute


@pytest.mark.parametrize("conf", [
    None,
    {"sql.autoBroadcastJoinThreshold": 1, "sql.aqe.enabled": False},
    {"sql.autoBroadcastJoinThreshold": 1, "sql.aqe.enabled": True},
])
def test_transitions_are_explicit_everywhere(conf, monkeypatch):
    """The one transition is the root's: every non-root operator hands out
    batches and the root rows, on the SELECTs over temp views, then on
    every other way into the planner."""
    seen = set()
    for query in QUERIES:
        session = fresh_session(conf)
        physical = Planner(session.conf).plan_query(
            optimize(session.analyze(session.sql(query).plan)))
        watch_formats(physical, seen)
        assert session.execute_physical(physical).rows, query
        session.shutdown()
    others = beyond_select_plans(conf, monkeypatch,
                                 lambda physical: watch_formats(physical, seen))
    assert len(others) == 6  # q39a, the seeding write, 2 INSERTs, 2 aggregates
    assert {P.LocalScanExec, P.DataSourceScanExec, P.HashAggregateExec,
            CoprocessorAggregateExec, V.ColumnarToRowExec, P.SortExec,
            P.DistinctExec, P.UnionExec} <= seen
    if conf is None:
        assert P.BroadcastHashJoinExec in seen
    elif conf["sql.aqe.enabled"]:
        assert {AdaptiveJoinExec, QueryStageExec} <= seen
    else:
        assert P.ShuffledHashJoinExec in seen


@pytest.mark.parametrize("name, operators", [
    ("q39a", 26), ("q39b", 26), ("q38", 28)])
def test_paper_plans_carry_one_adapter(name, operators):
    """The paper's plans change format once, at the root: the adapters
    that used to sit on 17, 17 and 16 of their edges are gone."""
    session = load_tpcds(2, TABLES).new_session()
    physical = session.plan_query(session.sql(getattr(queries, name)()).query).physical
    session.shutdown()
    names = [op.describe() for op in physical.walk()]
    assert len(names) == operators, physical.pretty()
    assert names.count("ColumnarToRow") == 1 and names[0] == "ColumnarToRow"
    assert "RowToColumnar" not in physical.pretty()


def test_fusion_collapses_scan_filter_project():
    physical = plan_for(QUERIES[0])
    scans = [op for op in physical.walk() if isinstance(op, P.ScanExec)]
    assert len(scans) == 1
    assert scans[0].fused[0] == "Scan" and len(scans[0].fused) > 1
    assert scans[0].describe().endswith(
        ", fused=" + "+".join(scans[0].fused[1:]) + ")")
    # the source reads the pre-projection columns, the scan outputs the
    # projection
    assert [a.name for a in scans[0].columns] == ["id", "k", "v", "tag"]
    assert [a.name for a in scans[0].output] == ["id", "vv", "kb"]


def test_projection_over_missing_attribute_raises_at_plan_time():
    """A mis-bound reference is a planner bug: it must fail while the plan
    is compiled onto RDDs, naming what the child offers, not run slowly."""
    ghost = E.Attribute("ghost", LongType)
    source = P.LocalScanExec([E.Attribute("x", LongType)], [(1,), (2,)])
    project = P.ProjectExec([E.Alias(ghost, "g")], source)
    session = SparkSession(["h1"])
    ctx = P.ExecContext(session.new_scheduler(), session.cost, session.conf)
    with pytest.raises(AnalysisError, match=r"cannot bind ghost#\d+; available"):
        project.execute(ctx)
    assert ctx.all_stages == [] and ctx.metrics.get("engine.tasks") == 0
    session.shutdown()


def test_each_expression_compiles_exactly_once(monkeypatch):
    """Planning compiles nothing; executing compiles every operator's
    expressions once (root calls, not the compiler's own recursion)."""
    real = C.compile_kernel
    roots = []
    depth = [0]

    def counting(expr):
        if depth[0] == 0:
            roots.append(expr)
        depth[0] += 1
        try:
            return real(expr)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(C, "compile_kernel", counting)
    session = fresh_session()
    df = session.sql("SELECT k, sum(v * 2.0) AS s FROM t WHERE k > 5 "
                     "AND v > 1.0 GROUP BY k HAVING sum(v) > 10.0")
    physical = Planner(session.conf).plan_query(
        optimize(session.analyze(df.plan)))
    assert roots == []
    # the 3 batch operator kinds of this plan, each with its expression count
    expected = 0
    kinds = set()
    for op in physical.walk():
        if isinstance(op, P.ScanExec):
            expected += len(op.conditions) + len(op.project_list or ())
        elif isinstance(op, P.FilterExec):
            expected += 1
        elif isinstance(op, P.ProjectExec):
            expected += len(op.project_list)
        elif isinstance(op, P.HashAggregateExec):
            aggs = {id(a) for item in op.aggregate_list for a in item.collect(
                lambda e: isinstance(e, E.AggregateExpression)) if a.children}
            # keys and arguments in the build, each output item in the result
            expected += len(op.groupings) + len(aggs) + len(op.aggregate_list)
        else:
            continue
        kinds.add(type(op))
    assert kinds == {P.LocalScanExec, P.FilterExec, P.ProjectExec,
                     P.HashAggregateExec}
    session.execute_physical(physical)
    assert len(roots) == expected
    session.shutdown()


def explain_analyze(query, conf=None):
    """The EXPLAIN ANALYZE report, the run, and the executed plan's
    operators' scoped counters (``DataFrame.explain``'s calls spelled out)."""
    session = fresh_session(conf)
    planned = session.plan_query(session.sql(query).query)
    result = session.execute_planned(planned)
    session.shutdown()
    scoped = [result.metrics.for_op(op.op_id) for op in planned.physical.walk()]
    return explain_analyze_report(planned.physical, result), result, scoped


def _sum_notes(report, pattern):
    return sum(int(m) for m in re.findall(pattern, report))


@pytest.mark.parametrize("query", [QUERIES[0], QUERIES[2], QUERIES[4]])
def test_explain_analyze_reconciles_with_counters(query):
    report, result, scoped = explain_analyze(query)
    for name, note in (
            ("engine.vectorized.batches", r"batches: (\d+)"),
            ("engine.vectorized.rows", r"batches: \d+ \(rows=(\d+)\)"),
            ("engine.vectorized.fused_operators", r"fused: (\d+) operators")):
        total = result.metrics.get(name)
        # the operators' scoped entries are the whole counter ...
        assert sum(c.get(name, 0) for c in scoped) == total, name
        # ... and the per-operator notes print them
        assert _sum_notes(report, note) == total, name
    # the section prints the totals of the same counters
    assert "== Vectorized Execution ==" in report
    batches = int(result.metrics.get("engine.vectorized.batches"))
    assert f"batches processed: {batches}" in report


def test_explain_analyze_annotates_batch_operators_and_adapters():
    report, __, __ = explain_analyze(QUERIES[5])
    plan_section = report.split("== Stages ==")[0]
    # plain operator names, batch notes on batch operators, one adapter:
    # the root's
    assert "LocalScan(3000 rows, fused=" in plan_section
    assert "Vectorized" not in plan_section and "mode:" not in plan_section
    assert "+- batches: " in plan_section
    assert plan_section.count("ColumnarToRow") == 1
    assert "transition" not in report


def notes_by_node(report):
    """The plan section as ``(headline, {note kind})`` per operator."""
    nodes = []
    for line in report.split("== Stages ==")[0].splitlines()[1:]:
        note = re.match(r"\s*\+- (\w[\w ]*):", line)
        if note:
            nodes[-1][1].add(note.group(1))
        elif line.strip():
            nodes.append((line.strip(), set()))
    return nodes


def test_explain_analyze_puts_a_scans_notes_on_its_node():
    """A scan is one node, so everything its stage did is noted there:
    regions, filters and batches, and the fusion where it fused one (q39a
    reading inventory through a computed column fuses that projection).
    Scans whose build side was shared did not run and carry no notes."""
    env = load_tpcds(2, Q39_TABLES)
    computed = ("from (select inv_date_sk, inv_item_sk, inv_warehouse_sk, "
                "inv_quantity_on_hand * 2 as inv_quantity_on_hand "
                "from inventory) inventory")
    for query, fusing in ((queries.q39a(), 0),
                          (queries.q39a().replace("from inventory", computed), 2)):
        session = env.new_session()
        report = session.sql(query).explain(analyze=True)
        session.shutdown()
        nodes = notes_by_node(report)
        ran = [(head, kinds) for head, kinds in nodes
               if head.startswith("DataSourceScan(") and kinds]
        assert len(ran) == 6
        for head, kinds in ran:
            assert {"batches", "regions", "filters"} <= kinds, head
            assert ("fused" in kinds) == (", fused=Project)" in head), head
        assert sum("fused" in kinds for __, kinds in ran) == fusing
        # ... and nowhere else
        assert all(not kinds & {"regions", "filters", "fused"}
                   for head, kinds in nodes if not head.startswith("DataSourceScan("))


@pytest.mark.parametrize("conf", [None, {"sql.aqe.enabled": True}])
def test_setop_rows_reconcile_ledger_stages_operators(conf):
    """UnionExec/DistinctExec/IntersectExec output accounting: the
    operators' scoped counters and the stages' registries both sum to the
    query's ``engine.setop.rows_out``."""
    for query in (
        "SELECT tag FROM t WHERE k < 10 UNION SELECT tag FROM t WHERE k > 40",
        "SELECT k FROM t INTERSECT SELECT k FROM d",
        "SELECT DISTINCT k FROM t WHERE v > 20.0",
        "SELECT tag FROM t WHERE k < 10 UNION ALL "
        "SELECT tag FROM t WHERE k > 40",
    ):
        session = fresh_session(conf)
        planned = session.plan_query(session.sql(query).query)
        result = session.execute_planned(planned)
        ledger = int(result.metrics.get("engine.setop.rows_out"))
        stage_sum = sum(s.metrics.get("engine.setop.rows_out")
                        for s in result.stages)
        op_sum = sum(result.metrics.for_op(op.op_id).get("engine.setop.rows_out", 0)
                     for op in planned.physical.walk())
        assert ledger > 0, (query, conf)
        assert ledger == stage_sum == op_sum, (query, conf)
        session.shutdown()


def test_setop_notes_in_explain_analyze():
    report, result, __ = explain_analyze(
        "SELECT tag FROM t WHERE k < 10 UNION SELECT tag FROM t WHERE k > 40")
    assert "setop: rows_out=" in report and "setop stages:" not in report
    ledger = int(result.metrics.get("engine.setop.rows_out"))
    assert _sum_notes(report, r"setop: rows_out=(\d+)") == ledger


def test_batch_size_constant_is_read_at_execution(monkeypatch):
    monkeypatch.setattr(C, "BATCH_SIZE", 100)
    __, result = run_rows(QUERIES[0])
    # 3000 rows over 2 partitions at 100 rows/batch: >= 30 scan batches
    assert result.metrics.get("engine.vectorized.batches") >= 30


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
