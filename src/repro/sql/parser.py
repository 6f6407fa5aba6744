"""SQL text -> unresolved logical plan.

A hand-written tokenizer and recursive-descent parser covering the dialect
the paper's workloads need: SELECT [DISTINCT] with expressions and aliases,
FROM with table aliases / subqueries / INNER-LEFT-CROSS JOIN ... ON chains,
WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, UNION [ALL], INTERSECT, CASE WHEN,
BETWEEN, [NOT] IN, [NOT] LIKE, IS [NOT] NULL, CAST, arithmetic with the
usual precedence, and aggregate calls including COUNT(DISTINCT x).
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import ParseError
from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.types import LongType, StringType, type_from_name

# each token swallows the whitespace after it: one match per token
_TOKEN_RE = re.compile(
    r"""
    (?: (?P<ws>\s+)
      | (?P<comment>--[^\n]*|/\*.*?\*/)
      | (?P<number>\d+\.\d*|\.\d+|\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.)
      | (?P<param>\?)
    ) \s*
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "join", "inner", "left", "right", "outer", "cross", "on", "as",
    "and", "or", "not", "in", "like", "between", "is", "null", "case", "when",
    "then", "else", "end", "cast", "union", "intersect", "all", "asc", "desc",
    "true", "false", "insert", "into", "overwrite", "values", "table", "explain", "exists",
    "show", "tables", "drop", "view", "analyze", "compute", "statistics",
    "create", "materialized", "refresh",
}


class Token:
    """One lexical token; ``value`` is what a literal token stands for (a
    number, a string's unquoted text, what a ``?`` was bound to), else None."""

    __slots__ = ("kind", "text", "value")

    def __init__(self, kind: str, text: str, value: object = None) -> None:
        # "number" | "string" | "ident" | "keyword" | "op" | "param" | "eof"
        self.kind = kind
        self.text = text
        self.value = value

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(sql: str) -> List[Token]:
    """Lex SQL text (keywords case-insensitive, comments skipped)."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        text = match.group(kind)
        value = None
        if kind == "ident" and text.lower() in KEYWORDS:
            kind, text = "keyword", text.lower()
        elif kind == "op" and text == "<>":
            text = "!="
        elif kind == "number":
            value = float(text) if "." in text else int(text)
        elif kind == "string":
            value = text[1:-1].replace("''", "'")
        tokens.append(Token(kind, text, value))
    tokens.append(Token("eof", ""))
    return tokens


def bind_parameters(tokens: List[Token], parameters: Sequence[object]) -> None:
    """Turn each ``?`` token (never one in a string or comment) into the
    literal token its parameter's type spells, carrying the Python value
    itself: nothing is rendered to text and lexed again (DB-API qmark)."""
    holes = [i for i, token in enumerate(tokens) if token.kind == "param"]
    if len(holes) != len(parameters):
        raise ParseError(f"statement has {len(holes)} placeholders, "
                         f"got {len(parameters)} parameters")
    for i, value in zip(holes, parameters):
        if value is None or isinstance(value, bool):
            tokens[i] = Token("keyword", "null" if value is None else
                              "true" if value else "false")
        elif isinstance(value, int):
            tokens[i] = Token("number", "?", int(value))
        elif isinstance(value, float) and math.isfinite(value):
            tokens[i] = Token("number", "?", float(value))
        elif isinstance(value, str):
            tokens[i] = Token("string", "?", str(value))
        else:
            raise ParseError(
                f"cannot bind parameter {value!r} of type {type(value).__name__}")


class Parser:
    """Recursive-descent parser over SQL text or its ``tokenize``d form.
    With ``slots`` a literal parses to a ``BindSlot`` numbered by its
    token's position (for the session's plan cache), else to a ``Literal``."""

    def __init__(self, sql: Union[str, List[Token]], slots: bool = False) -> None:
        self._tokens = tokenize(sql) if isinstance(sql, str) else sql
        self._pos = 0
        self._slots = slots

    # -- token helpers ------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        if not offset:  # _advance never moves past eof
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.text in words:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise ParseError(f"expected {word.upper()!r}, found {self._peek().text!r}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise ParseError(f"expected {op!r}, found {self._peek().text!r}")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            raise ParseError(f"expected identifier, found {token.text!r}")
        self._advance()
        return token.text

    def _expect_views_word(self) -> None:
        # "views" is not a reserved word; SHOW MATERIALIZED VIEWS spells it
        # as a plain identifier
        token = self._peek()
        if token.kind != "ident" or token.text.lower() != "views":
            raise ParseError(f"expected 'VIEWS', found {token.text!r}")
        self._advance()

    # -- entry point -------------------------------------------------------------
    def parse_query(self) -> L.LogicalPlan:
        if self._accept_keyword("show"):
            if self._accept_keyword("materialized"):
                self._expect_views_word()
                return L.ShowMaterializedViews()
            self._expect_keyword("tables")
            return L.ShowTables()
        if self._accept_keyword("create"):
            self._expect_keyword("materialized")
            self._expect_keyword("view")
            name = self._expect_ident()
            self._expect_keyword("as")
            return L.CreateMaterializedView(name, self._parse_query_expression())
        if self._accept_keyword("refresh"):
            self._expect_keyword("materialized")
            self._expect_keyword("view")
            return L.RefreshMaterializedView(self._expect_ident())
        if self._accept_keyword("drop"):
            if self._accept_keyword("materialized"):
                self._expect_keyword("view")
                return L.DropMaterializedView(self._expect_ident())
            self._expect_keyword("view")
            return L.DropView(self._expect_ident())
        if self._accept_keyword("analyze"):
            self._expect_keyword("table")
            name = self._expect_ident()
            self._expect_keyword("compute")
            self._expect_keyword("statistics")
            return L.AnalyzeTable(name)
        if self._accept_keyword("explain"):
            inner = self.parse_query()
            return L.ExplainStatement(inner)
        if self._peek().kind == "keyword" and self._peek().text == "insert":
            plan = self._parse_insert()
        else:
            plan = self._parse_query_expression()
        if self._peek().kind != "eof":
            raise ParseError(f"trailing input at {self._peek().text!r}")
        return plan

    def _parse_insert(self) -> L.LogicalPlan:
        self._expect_keyword("insert")
        overwrite = False
        if self._accept_keyword("overwrite"):
            overwrite = True
        else:
            self._expect_keyword("into")
        self._accept_keyword("table")
        name = self._expect_ident()
        if self._accept_keyword("values"):
            rows = [self._parse_values_tuple()]
            while self._accept_op(","):
                rows.append(self._parse_values_tuple())
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ParseError("VALUES rows have inconsistent arity")
            child: L.LogicalPlan = L.UnresolvedInlineValues(rows)
        else:
            child = self._parse_query_expression()
        return L.InsertIntoTable(name, child, overwrite)

    def _parse_values_tuple(self):
        self._expect_op("(")
        values = [self._parse_expression()]
        while self._accept_op(","):
            values.append(self._parse_expression())
        self._expect_op(")")
        return values

    def parse_expression_only(self) -> E.Expression:
        """Parse a bare boolean/scalar expression (DataFrame.filter strings)."""
        expr = self._parse_expression()
        if self._peek().kind != "eof":
            raise ParseError(f"trailing input at {self._peek().text!r}")
        return expr

    def parse_named_expression(self) -> E.Expression:
        """Like :meth:`parse_expression_only` but allows ``... [AS] alias``."""
        expr = self._parse_expression()
        if self._accept_keyword("as"):
            expr = E.Alias(expr, self._expect_ident())
        elif self._peek().kind == "ident":
            expr = E.Alias(expr, self._expect_ident())
        if self._peek().kind != "eof":
            raise ParseError(f"trailing input at {self._peek().text!r}")
        return expr

    # -- query structure -----------------------------------------------------------
    def _parse_query_expression(self) -> L.LogicalPlan:
        plan = self._parse_query_term()
        while True:
            if self._accept_keyword("union"):
                all_rows = self._accept_keyword("all")
                right = self._parse_query_term()
                plan = L.SetOperation("union", plan, right, all_rows)
            elif self._accept_keyword("intersect"):
                right = self._parse_query_term()
                plan = L.SetOperation("intersect", plan, right)
            else:
                return plan

    def _parse_query_term(self) -> L.LogicalPlan:
        if self._peek().kind == "op" and self._peek().text == "(":
            self._advance()
            plan = self._parse_query_expression()
            self._expect_op(")")
            return plan
        return self._parse_select()

    def _parse_select(self) -> L.LogicalPlan:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        select_items = [self._parse_select_item()]
        while self._accept_op(","):
            select_items.append(self._parse_select_item())

        self._expect_keyword("from")
        plan = self._parse_from()

        if self._accept_keyword("where"):
            plan = L.Filter(self._parse_expression(), plan)

        groupings: List[E.Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            groupings.append(self._parse_expression())
            while self._accept_op(","):
                groupings.append(self._parse_expression())

        having: Optional[E.Expression] = None
        if self._accept_keyword("having"):
            having = self._parse_expression()

        has_aggregates = any(_contains_agg_call(item) for item in select_items)
        if groupings or has_aggregates or having is not None:
            plan = L.Aggregate(groupings, select_items, plan)
            if having is not None:
                plan = L.Filter(having, plan)
        else:
            plan = L.Project(select_items, plan)

        if distinct:
            plan = L.Distinct(plan)

        if self._accept_keyword("order"):
            self._expect_keyword("by")
            orders = [self._parse_sort_order()]
            while self._accept_op(","):
                orders.append(self._parse_sort_order())
            plan = L.Sort(orders, plan)

        if self._accept_keyword("limit"):
            token = self._advance()
            if not isinstance(token.value, int):
                raise ParseError(f"LIMIT expects an integer, found {token.text!r}")
            plan = L.Limit(token.value, plan)
        return plan

    def _parse_select_item(self) -> E.Expression:
        if self._accept_op("*"):
            return E.Star()
        # "ident.*"
        if (
            self._peek().kind == "ident"
            and self._peek(1).kind == "op" and self._peek(1).text == "."
            and self._peek(2).kind == "op" and self._peek(2).text == "*"
        ):
            qualifier = self._expect_ident()
            self._advance()
            self._advance()
            return E.Star(qualifier)
        expr = self._parse_expression()
        if self._accept_keyword("as"):
            return E.Alias(expr, self._expect_ident())
        if self._peek().kind == "ident":
            return E.Alias(expr, self._expect_ident())
        return expr

    def _parse_sort_order(self) -> L.SortOrder:
        # ORDER BY <ordinal> refers to the select-list position (1-based)
        token = self._peek()
        if isinstance(token.value, int):
            self._advance()
            expr: E.Expression = E.SortOrdinal(token.value)
        else:
            expr = self._parse_expression()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return L.SortOrder(expr, ascending)

    def _parse_from(self) -> L.LogicalPlan:
        plan = self._parse_table_ref()
        while True:
            if self._accept_keyword("cross"):
                self._expect_keyword("join")
                right = self._parse_table_ref()
                plan = L.Join(plan, right, "cross", None)
                continue
            how = "inner"
            matched = False
            if self._accept_keyword("inner"):
                matched = True
            elif self._accept_keyword("left"):
                self._accept_keyword("outer")
                how = "left"
                matched = True
            if self._accept_keyword("join"):
                right = self._parse_table_ref()
                self._expect_keyword("on")
                condition = self._parse_expression()
                plan = L.Join(plan, right, how, condition)
                continue
            if matched:
                raise ParseError("expected JOIN")
            # implicit cross join: FROM a, b
            if self._peek().kind == "op" and self._peek().text == ",":
                self._advance()
                right = self._parse_table_ref()
                plan = L.Join(plan, right, "cross", None)
                continue
            return plan

    def _parse_table_ref(self) -> L.LogicalPlan:
        if self._peek().kind == "op" and self._peek().text == "(":
            self._advance()
            subquery = self._parse_query_expression()
            self._expect_op(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return L.SubqueryAlias(alias, subquery)
        name = self._expect_ident()
        plan: L.LogicalPlan = L.UnresolvedRelation(name)
        if self._accept_keyword("as"):
            return L.SubqueryAlias(self._expect_ident(), plan)
        if self._peek().kind == "ident":
            return L.SubqueryAlias(self._expect_ident(), plan)
        return L.SubqueryAlias(name, plan)

    # -- expressions -----------------------------------------------------------
    def _parse_expression(self) -> E.Expression:
        return self._parse_or()

    def _parse_or(self) -> E.Expression:
        expr = self._parse_and()
        while self._accept_keyword("or"):
            expr = E.Or(expr, self._parse_and())
        return expr

    def _parse_and(self) -> E.Expression:
        expr = self._parse_not()
        while self._accept_keyword("and"):
            expr = E.And(expr, self._parse_not())
        return expr

    def _parse_not(self) -> E.Expression:
        if self._accept_keyword("not"):
            return E.Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> E.Expression:
        expr = self._parse_additive()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("=", "!=", "<", "<=", ">", ">="):
                self._advance()
                expr = E.Comparison(token.text, expr, self._parse_additive())
                continue
            if self._accept_keyword("between"):
                low = self._parse_additive()
                self._expect_keyword("and")
                high = self._parse_additive()
                expr = E.And(
                    E.Comparison(">=", expr, low), E.Comparison("<=", expr, high)
                )
                continue
            negate = False
            checkpoint = self._pos
            if self._accept_keyword("not"):
                negate = True
            if self._accept_keyword("in"):
                self._expect_op("(")
                if self._peek().kind == "keyword" and self._peek().text == "select":
                    subquery = self._parse_query_expression()
                    self._expect_op(")")
                    expr = E.InSubquery(expr, subquery)
                else:
                    options = [self._parse_expression()]
                    while self._accept_op(","):
                        options.append(self._parse_expression())
                    self._expect_op(")")
                    expr = E.In(expr, options)
                if negate:
                    expr = E.Not(expr)
                continue
            if self._accept_keyword("like"):
                token = self._advance()
                if token.kind != "string":
                    raise ParseError("LIKE expects a string pattern")
                expr = E.Like(expr, token.value)
                if negate:
                    expr = E.Not(expr)
                continue
            if negate:
                self._pos = checkpoint
                return expr
            if self._accept_keyword("is"):
                if self._accept_keyword("not"):
                    self._expect_keyword("null")
                    expr = E.IsNotNull(expr)
                else:
                    self._expect_keyword("null")
                    expr = E.IsNull(expr)
                continue
            return expr

    def _parse_additive(self) -> E.Expression:
        expr = self._parse_multiplicative()
        while True:
            if self._accept_op("+"):
                expr = E.BinaryArithmetic("+", expr, self._parse_multiplicative())
            elif self._accept_op("-"):
                expr = E.BinaryArithmetic("-", expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> E.Expression:
        expr = self._parse_unary()
        while True:
            if self._accept_op("*"):
                expr = E.BinaryArithmetic("*", expr, self._parse_unary())
            elif self._accept_op("/"):
                expr = E.BinaryArithmetic("/", expr, self._parse_unary())
            elif self._accept_op("%"):
                expr = E.BinaryArithmetic("%", expr, self._parse_unary())
            else:
                return expr

    def _parse_unary(self) -> E.Expression:
        if self._accept_op("-"):
            child = self._parse_unary()
            if isinstance(child, E.Literal) and isinstance(child.value, (int, float)):
                return E.Literal(-child.value, child.dtype)
            return E.BinaryArithmetic("-", E.Literal(0, LongType), child)
        return self._parse_primary()

    def _parse_primary(self) -> E.Expression:
        token = self._peek()
        if token.kind in ("number", "string"):
            self._advance()
            literal = E.lit_of(token.value)
            if self._slots:
                return E.BindSlot(self._pos - 1, literal.dtype, token.value)
            return literal
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            from repro.sql.types import BooleanType

            return E.Literal(token.text == "true", BooleanType)
        if token.kind == "keyword" and token.text == "null":
            self._advance()
            return E.Literal(None, StringType)
        if token.kind == "keyword" and token.text == "case":
            return self._parse_case()
        if token.kind == "keyword" and token.text == "exists":
            self._advance()
            self._expect_op("(")
            subquery = self._parse_query_expression()
            self._expect_op(")")
            return E.Exists(subquery)
        if token.kind == "keyword" and token.text == "cast":
            self._advance()
            self._expect_op("(")
            inner = self._parse_expression()
            self._expect_keyword("as")
            type_name = self._expect_ident()
            self._expect_op(")")
            return E.Cast(inner, type_from_name(type_name))
        if token.kind == "op" and token.text == "(":
            self._advance()
            inner = self._parse_expression()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            return self._parse_ident_expression()
        raise ParseError(f"unexpected token {token.text!r}")

    def _parse_ident_expression(self) -> E.Expression:
        name = self._expect_ident()
        # function call?
        if self._peek().kind == "op" and self._peek().text == "(":
            self._advance()
            lower = name.lower()
            if lower in E.AGGREGATE_BUILDERS:
                return self._parse_aggregate_call(lower)
            args: List[E.Expression] = []
            if not self._accept_op(")"):
                args.append(self._parse_expression())
                while self._accept_op(","):
                    args.append(self._parse_expression())
                self._expect_op(")")
            return E.ScalarFunction(name, args)
        # qualified column?
        if self._peek().kind == "op" and self._peek().text == ".":
            self._advance()
            column = self._expect_ident()
            return E.UnresolvedAttribute(column, qualifier=name)
        return E.UnresolvedAttribute(name)

    def _parse_aggregate_call(self, fn_name: str) -> E.Expression:
        builder = E.AGGREGATE_BUILDERS[fn_name]
        distinct = self._accept_keyword("distinct")
        if self._accept_op("*"):
            self._expect_op(")")
            if fn_name != "count":
                raise ParseError(f"{fn_name}(*) is not valid")
            return E.Count(None, distinct=False)
        arg = self._parse_expression()
        self._expect_op(")")
        return builder(arg, distinct)

    def _parse_case(self) -> E.Expression:
        self._expect_keyword("case")
        # simple CASE: "CASE operand WHEN v THEN ..." compares operand = v
        operand: Optional[E.Expression] = None
        if not (self._peek().kind == "keyword" and self._peek().text == "when"):
            operand = self._parse_expression()
        branches: List[Tuple[E.Expression, E.Expression]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expression()
            if operand is not None:
                condition = E.Comparison("=", operand, condition)
            self._expect_keyword("then")
            value = self._parse_expression()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        else_value = None
        if self._accept_keyword("else"):
            else_value = self._parse_expression()
        self._expect_keyword("end")
        return E.CaseWhen(branches, else_value)


def _contains_agg_call(expr: E.Expression) -> bool:
    return bool(expr.collect(lambda e: isinstance(e, E.AggregateExpression)))


def parse(sql: str) -> L.LogicalPlan:
    """Parse a SQL statement into an unresolved logical plan."""
    return Parser(sql).parse_query()


def parse_expression(text: str) -> E.Expression:
    """Parse a standalone expression (used by ``DataFrame.filter("...")``)."""
    return Parser(text).parse_expression_only()


def parse_named_expression(text: str) -> E.Expression:
    """Parse an expression with an optional alias (``"k + 1 as k2"``)."""
    return Parser(text).parse_named_expression()
