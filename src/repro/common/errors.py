"""Exception hierarchy for the whole reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can catch the
library's failures without swallowing unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """The SHC catalog JSON is malformed or inconsistent."""


class CoderError(ReproError):
    """A value could not be encoded to / decoded from HBase bytes.

    It is the data's fault, so a task that raises it is not retried: every
    attempt would fail the same way.
    """


class NullKeyError(CoderError):
    """A row's key dimension is NULL: the row has no row key to live under."""

    def __init__(self, dimension: str) -> None:
        super().__init__(f"row-key dimension {dimension!r} must not be NULL")
        self.dimension = dimension


class HBaseError(ReproError):
    """Base class for errors raised by the HBase substrate."""


class NoSuchTableError(HBaseError):
    """The requested HBase table does not exist."""


class TableExistsError(HBaseError):
    """An HBase table with the requested name already exists."""


class RegionOfflineError(HBaseError):
    """The region holding the requested row is not currently served."""


class RegionServerStoppedError(RegionOfflineError):
    """The region server owning the region has crashed or been stopped.

    A subclass of :class:`RegionOfflineError` because the client-side remedy
    is identical: invalidate the cached location and re-locate after the
    master reassigns the dead server's regions.
    """


class TransientRpcError(HBaseError):
    """A retryable RPC failure (connection reset, timeout, queue-full)."""


class FilterEvalError(HBaseError):
    """A pushed-down server-side filter failed while evaluating a row.

    The client degrades gracefully: it re-issues the scan unfiltered and
    applies the predicate client-side instead of failing the query.
    """


class OperationTimeoutError(HBaseError):
    """A client operation exceeded its simulated-time deadline across retries."""


class RetriesExhaustedError(HBaseError):
    """A client operation kept failing after every allowed retry."""


class OverloadedError(ReproError):
    """The serving front door shed a query instead of letting queues collapse.

    Structured so callers can build a well-behaved retry loop instead of
    parsing message text: ``reason`` names which guardrail fired
    (``queue_full`` / ``throttled`` / ``breaker_open`` / ``deadline`` /
    ``injected``) and ``retry_after_s`` is the *simulated* seconds after
    which a resubmission has a chance of being admitted -- the
    queue-based-load-leveling contract from docs/serving.md.
    """

    def __init__(self, message: str, reason: str = "overloaded",
                 retry_after_s: float = 0.0, tenant: "str | None" = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = float(retry_after_s)
        self.tenant = tenant


class SecurityError(ReproError):
    """Authentication or token management failure."""


class TokenExpiredError(SecurityError):
    """A delegation token was presented after its expiry."""


class SqlError(ReproError):
    """Base class for errors raised by the SQL layer."""


class ParseError(SqlError):
    """The SQL text could not be parsed."""


class AnalysisError(SqlError):
    """The query referenced unknown tables/columns or had a type error."""


class EngineError(ReproError):
    """A failure inside the compute engine (scheduler, executors, shuffle)."""


class ShuffleFetchError(EngineError):
    """A reduce task failed to fetch a map output block (retryable)."""


class FatalTaskError(EngineError):
    """A task failed more times than the scheduler is willing to retry."""
