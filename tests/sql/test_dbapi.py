import pytest

from repro.sql import dbapi
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
    StructField("v", DoubleType),
])


@pytest.fixture
def connection(session):
    data = [(i, "g%d" % (i % 2), float(i)) for i in range(10)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    return dbapi.connect(session)


def test_module_attributes():
    assert dbapi.apilevel == "2.0"
    assert dbapi.paramstyle == "qmark"


def test_execute_and_fetchall(connection):
    cursor = connection.cursor()
    cursor.execute("select k, v from t where k < 3 order by k")
    assert cursor.rowcount == 3
    assert cursor.fetchall() == [(0, 0.0), (1, 1.0), (2, 2.0)]
    assert cursor.fetchall() == []  # exhausted


def test_description_names_and_types(connection):
    cursor = connection.cursor()
    cursor.execute("select g, count(*) as n from t group by g")
    assert [d[0] for d in cursor.description] == ["g", "n"]
    assert [d[1] for d in cursor.description] == ["string", "bigint"]


def test_fetchone_and_fetchmany(connection):
    cursor = connection.cursor()
    cursor.execute("select k from t order by k")
    assert cursor.fetchone() == (0,)
    assert cursor.fetchmany(3) == [(1,), (2,), (3,)]
    assert len(cursor.fetchall()) == 6


def test_cursor_iteration(connection):
    cursor = connection.cursor().execute("select k from t order by k limit 4")
    assert [row[0] for row in cursor] == [0, 1, 2, 3]


def test_qmark_parameter_binding(connection):
    cursor = connection.cursor()
    cursor.execute("select k from t where g = ? and k > ? order by k", ("g0", 2))
    assert cursor.fetchall() == [(4,), (6,), (8,)]


def test_string_parameters_escaped(connection):
    cursor = connection.cursor()
    cursor.execute("select count(*) from t where g = ?", ("it's",))
    assert cursor.fetchone() == (0,)


def test_parameter_count_mismatch(connection):
    cursor = connection.cursor()
    with pytest.raises(dbapi.ProgrammingError):
        cursor.execute("select * from t where k = ?", ())
    with pytest.raises(dbapi.ProgrammingError):
        cursor.execute("select * from t where k = ?", (1, 2))


def test_unbindable_parameter(connection):
    cursor = connection.cursor()
    with pytest.raises(dbapi.ProgrammingError):
        cursor.execute("select * from t where k = ?", (object(),))


def test_fetch_before_execute(connection):
    cursor = connection.cursor()
    with pytest.raises(dbapi.ProgrammingError):
        cursor.fetchall()


def test_closed_cursor_and_connection(connection):
    cursor = connection.cursor()
    cursor.close()
    with pytest.raises(dbapi.InterfaceError):
        cursor.execute("select 1 from t")
    connection.close()
    with pytest.raises(dbapi.InterfaceError):
        connection.cursor()


def test_context_manager(session):
    data = [(1, "a", 1.0)]
    session.create_dataframe(data, SCHEMA).create_or_replace_temp_view("t")
    with dbapi.connect(session) as conn:
        cursor = conn.cursor().execute("select count(*) from t")
        assert cursor.fetchone() == (1,)
    with pytest.raises(dbapi.InterfaceError):
        conn.cursor()


def test_rollback_unsupported(connection):
    with pytest.raises(dbapi.InterfaceError):
        connection.rollback()


def test_timing_extension(connection):
    cursor = connection.cursor().execute("select count(*) from t")
    assert cursor.last_query_seconds > 0


# -- a ? is a token: never inside a string or a comment ------------------------

def test_question_mark_inside_a_string_is_not_a_placeholder(connection):
    cursor = connection.cursor()
    cursor.execute("select count(*) from t where g = 'why?'")
    assert cursor.fetchone() == (0,)


def test_question_mark_in_a_string_beside_a_real_placeholder(connection):
    cursor = connection.cursor()
    cursor.execute("select k from t where g != 'why?' and k = ?", (3,))
    assert cursor.fetchall() == [(3,)]
    with pytest.raises(dbapi.ProgrammingError, match="1 placeholders, got 2"):
        cursor.execute("select k from t where g != 'why?' and k = ?", (3, 4))


def test_question_mark_in_a_comment_is_not_counted(connection):
    cursor = connection.cursor()
    cursor.execute("select k from t where k = ? -- which k?\n and g = 'g1'", (3,))
    assert cursor.fetchall() == [(3,)]
    cursor.execute("select k /* really? */ from t where k = 4")
    assert cursor.fetchall() == [(4,)]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_do_not_become_identifiers(connection, value):
    cursor = connection.cursor()
    with pytest.raises(dbapi.ProgrammingError, match="cannot bind"):
        cursor.execute("select k from t where v < ?", (value,))


def test_parameters_are_values_not_text(connection):
    """Every bindable type, a negative number, a float repr() would write in
    exponent form, and NULL / booleans -- through one statement shape."""
    cursor = connection.cursor()
    cursor.execute("select k from t where k > ? and v < ? order by k", (-1, 2.5))
    assert cursor.fetchall() == [(0,), (1,), (2,)]
    cursor.execute("select k from t where k > ? and v < ? order by k", (7, 1e22))
    assert cursor.fetchall() == [(8,), (9,)]
    cursor.execute("select k from t where v > ? and v < 1.0", (1e-05,))
    assert cursor.fetchall() == []
    cursor.execute("select count(*) from t where g = ? or ?", (None, False))
    assert cursor.fetchone() == (0,)
    cursor.execute("select k from t where k = ? limit ?", (5, 1))
    assert cursor.fetchall() == [(5,)]
    cursor.executemany("select k from t where k = ?", [(1,), (2,)])
    assert cursor.fetchall() == [(2,)]
