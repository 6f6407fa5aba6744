import pytest

from repro.common.errors import ParseError
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.columnar import compile_row
from repro.sql.parser import parse, parse_expression


def value(expr):
    """A constant expression's value, through the row closure."""
    return compile_row(expr)(())


def test_simple_select():
    plan = parse("select a, b from t")
    assert isinstance(plan, L.Project)
    assert isinstance(plan.children[0], L.SubqueryAlias)
    assert isinstance(plan.children[0].children[0], L.UnresolvedRelation)


def test_select_star():
    plan = parse("select * from t")
    assert isinstance(plan.project_list[0], E.Star)


def test_qualified_star():
    plan = parse("select t.* from t")
    assert plan.project_list[0].qualifier == "t"


def test_where_clause():
    plan = parse("select a from t where a > 5 and b = 'x'")
    flt = plan.children[0]
    assert isinstance(flt, L.Filter)
    assert isinstance(flt.condition, E.And)


def test_aliases_with_and_without_as():
    plan = parse("select a as x, b y from t")
    assert [item.name for item in plan.project_list] == ["x", "y"]


def test_table_alias_forms():
    for sql in ("select a from t1 as u", "select a from t1 u"):
        plan = parse(sql)
        assert plan.children[0].alias == "u"


def test_join_with_on():
    plan = parse("select a from t join u on t.k = u.k")
    join = plan.children[0]
    assert isinstance(join, L.Join)
    assert join.how == "inner"


def test_left_join():
    join = parse("select a from t left outer join u on t.k = u.k").children[0]
    assert join.how == "left"


def test_implicit_cross_join():
    join = parse("select a from t, u where t.k = u.k").children[0].children[0]
    assert isinstance(join, L.Join)
    assert join.how == "cross"


def test_group_by_and_having():
    plan = parse("select g, count(*) c from t group by g having count(*) > 2")
    assert isinstance(plan, L.Filter)
    assert isinstance(plan.children[0], L.Aggregate)


def test_aggregate_without_group_by_detected():
    plan = parse("select count(*) from t")
    assert isinstance(plan, L.Aggregate)
    assert plan.groupings == []


def test_count_distinct():
    plan = parse("select count(distinct a) from t")
    agg = plan.aggregate_list[0]
    inner = agg.child if isinstance(agg, E.Alias) else agg
    assert isinstance(inner, E.Count) and inner.distinct


def test_count_star_distinct_invalid_fn():
    with pytest.raises(ParseError):
        parse("select sum(*) from t")


def test_order_by_and_limit():
    plan = parse("select a from t order by a desc, b limit 7")
    assert isinstance(plan, L.Limit) and plan.n == 7
    sort = plan.children[0]
    assert [o.ascending for o in sort.orders] == [False, True]


def test_distinct():
    assert isinstance(parse("select distinct a from t"), L.Distinct)


def test_union_and_intersect():
    plan = parse("select a from t union all select b from u")
    assert isinstance(plan, L.SetOperation)
    assert plan.op == "union" and plan.all_rows
    plan2 = parse("select a from t intersect select b from u")
    assert plan2.op == "intersect"


def test_subquery_in_from():
    plan = parse("select x from (select a x from t) sub")
    assert isinstance(plan.children[0], L.SubqueryAlias)
    assert plan.children[0].alias == "sub"


def test_between_desugars_to_range():
    expr = parse_expression("a between 1 and 5")
    assert isinstance(expr, E.And)


def test_not_in_and_not_like():
    expr = parse_expression("a not in (1, 2)")
    assert isinstance(expr, E.Not) and isinstance(expr.children[0], E.In)
    expr2 = parse_expression("a not like 'x%'")
    assert isinstance(expr2, E.Not) and isinstance(expr2.children[0], E.Like)


def test_is_null_and_is_not_null():
    assert isinstance(parse_expression("a is null"), E.IsNull)
    assert isinstance(parse_expression("a is not null"), E.IsNotNull)


def test_case_when():
    expr = parse_expression("case when a = 0 then 'z' else 'o' end")
    assert isinstance(expr, E.CaseWhen)
    assert len(expr.branches()) == 1


def test_case_requires_when():
    with pytest.raises(ParseError):
        parse_expression("case else 1 end")


def test_cast():
    expr = parse_expression("cast(a as double)")
    assert isinstance(expr, E.Cast)


def test_operator_precedence():
    expr = parse_expression("1 + 2 * 3")
    assert value(expr) == 7
    expr2 = parse_expression("(1 + 2) * 3")
    assert value(expr2) == 9


def test_unary_minus():
    assert parse_expression("-5").value == -5
    assert value(parse_expression("1 - -2")) == 3


def test_string_literal_with_escaped_quote():
    assert parse_expression("'it''s'").value == "it's"


def test_boolean_and_null_literals():
    assert parse_expression("true").value is True
    assert parse_expression("null").value is None


def test_comparison_operators_including_ne():
    assert value(parse_expression("1 <> 2")) is True
    assert value(parse_expression("1 != 2")) is True
    assert value(parse_expression("1 <= 1")) is True


def test_parse_errors():
    for bad in ("select", "select a", "select a from", "select a from t where",
                "select a from t limit x", "select a from t where 1 = "):
        with pytest.raises(ParseError):
            parse(bad)


def test_trailing_tokens_rejected_in_expression():
    with pytest.raises(ParseError):
        parse_expression("a = 1 banana")


def test_comments_are_ignored():
    plan = parse("""
        select a -- trailing comment
        from t   /* block
                    comment */
        where a > 1
    """)
    assert isinstance(plan, L.Project)


def test_simple_case_desugars_to_searched_case():
    expr = parse_expression("case 2 when 1 then 'one' when 2 then 'two' else 'other' end")
    assert value(expr) == "two"
    expr2 = parse_expression("case 9 when 1 then 'one' else 'other' end")
    assert value(expr2) == "other"


def test_order_by_ordinal_parses():
    plan = parse("select a, b from t order by 2 desc, 1")
    assert plan.orders[0].expression.position == 2
    assert not plan.orders[0].ascending
