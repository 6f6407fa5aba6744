"""A DB-API 2.0 style interface over SparkSession -- the "JDBC" of Figure 1.

The paper's architecture exposes SHC through JDBC alongside the language
shells; this module provides the Python equivalent: ``connect(session)``
returns a :class:`Connection` whose cursors execute SQL against the session
and expose ``description`` / ``fetchone`` / ``fetchmany`` / ``fetchall``
with standard semantics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.common.errors import ParseError, SqlError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.session import SparkSession

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections
paramstyle = "qmark"


class Error(SqlError):
    """DB-API base error."""


class InterfaceError(Error):
    """Misuse of the connection/cursor objects."""


class ProgrammingError(Error):
    """Bad SQL or parameters."""


def connect(session: "SparkSession") -> "Connection":
    """Open a DB-API connection over an existing session."""
    return Connection(session)


class Connection:
    """A lightweight handle; closing it closes its cursors."""

    def __init__(self, session: "SparkSession") -> None:
        self._session = session
        self._closed = False
        self._cursors: List[Cursor] = []

    def cursor(self) -> "Cursor":
        self._check_open()
        cursor = Cursor(self._session, self)
        self._cursors.append(cursor)
        return cursor

    def close(self) -> None:
        for cursor in self._cursors:
            cursor.close()
        self._closed = True

    def commit(self) -> None:
        self._check_open()  # autocommit semantics; present for the API shape

    def rollback(self) -> None:
        raise InterfaceError("transactions are not supported")

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Cursor:
    """Executes statements and buffers their results."""

    arraysize = 1

    def __init__(self, session: "SparkSession", connection: Connection) -> None:
        self._session = session
        self._connection = connection
        self._closed = False
        self._rows: Optional[List[tuple]] = None
        self._pos = 0
        self.description: Optional[List[tuple]] = None
        self.rowcount = -1
        #: simulated seconds of the last execute (an extension)
        self.last_query_seconds: Optional[float] = None

    # -- execution ---------------------------------------------------------
    def execute(self, operation: str,
                parameters: Sequence[object] = ()) -> "Cursor":
        self._check_open()
        try:  # a ? is a token and a parameter a value: nothing is rendered
            result = self._session.sql(operation, parameters).run()
        except ParseError as exc:
            raise ProgrammingError(str(exc)) from exc
        self._rows = [tuple(r.values) for r in result.rows]
        self._pos = 0
        self.rowcount = len(self._rows)
        self.last_query_seconds = result.seconds
        self.description = [
            (field.name, field.dtype.name, None, None, None, None, True)
            for field in result.schema
        ]
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Sequence[Sequence[object]]) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
        return self

    # -- fetching -----------------------------------------------------------
    def fetchone(self) -> Optional[tuple]:
        self._check_results()
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[tuple]:
        self._check_results()
        count = size if size is not None else self.arraysize
        out = self._rows[self._pos:self._pos + count]
        self._pos += len(out)
        return out

    def fetchall(self) -> List[tuple]:
        self._check_results()
        out = self._rows[self._pos:]
        self._pos = len(self._rows)
        return out

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._closed = True
        self._rows = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self._connection._check_open()

    def _check_results(self) -> None:
        self._check_open()
        if self._rows is None:
            raise ProgrammingError("no query has been executed")
