"""Retry policy with capped exponential backoff and deterministic jitter.

The whole reproduction is a deterministic discrete simulation, so backoff
cannot come from ``random`` or the wall clock: jitter is derived from a
stable hash of (operation key, attempt), which makes every retry schedule
reproducible across runs and thread interleavings.  Backoff is *simulated*
time -- callers charge it to the cost ledger of the operation that retried,
so recovery latency shows up in query seconds exactly like any other work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import OperationTimeoutError, RetriesExhaustedError


def stable_fraction(*parts: object) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` from ``parts``.

    Used for jitter and for seeded fault schedules; CRC32 keeps it cheap,
    stable across processes (unlike salted ``hash``) and well-mixed enough
    for scheduling decisions.
    """
    text = "\x1f".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, how long to back off, and when to give up.

    ``backoff_s`` grows exponentially from ``base_backoff_s`` up to
    ``max_backoff_s`` with +/-50% deterministic jitter (decorrelated retries
    without a random source).  ``deadline_s``, when set, caps the *total*
    simulated seconds an operation may consume across all attempts,
    including backoff -- HBase's ``hbase.client.operation.timeout``.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    deadline_s: Optional[float] = None
    #: what keeps this policy's jitter apart from another's
    jitter_seed: object = 0

    def backoff_s(self, attempt: int, key: object = "") -> float:
        """Backoff before retry number ``attempt`` (first retry = 1)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        raw = min(self.max_backoff_s, self.base_backoff_s * 2 ** (attempt - 1))
        jitter = 0.5 + stable_fraction(self.jitter_seed, key, attempt)
        return raw * jitter

    def allows_retry(self, attempt: int) -> bool:
        """Whether attempt number ``attempt + 1`` may still be made."""
        return attempt < self.max_attempts

    def within_deadline(self, spent_s: float) -> bool:
        """Whether an operation that already spent ``spent_s`` may continue."""
        return self.deadline_s is None or spent_s < self.deadline_s

    def before_retry(self, attempt: int, cause: Exception, ledger,
                     started_s: float, key: object, op: str, table: str) -> None:
        """The one retry step: failure number ``attempt`` of ``op`` either
        ends the operation or is paid for.

        Out of attempts raises :class:`RetriesExhaustedError`; a backoff that
        would carry the operation past its deadline raises
        :class:`OperationTimeoutError`.  The deadline caps everything since
        ``started_s`` (the ledger's seconds when the operation began) plus
        the admission-queue wait: queue + attempts + backoff together.
        Otherwise the backoff is charged to ``ledger``, the retry counted
        and, when tracing is on, recorded against the running attempt's span
        (the scheduler parks it on the ledger).  ``key`` seeds the jitter;
        each caller keeps its own so schedules replay.
        """
        if not self.allows_retry(attempt):
            raise RetriesExhaustedError(
                f"{op} on {table} failed after {attempt} attempts: {cause}"
            ) from cause
        backoff = self.backoff_s(attempt, key=key)
        spent = ledger.seconds - started_s + ledger.queued_s
        if not self.within_deadline(spent + backoff):
            raise OperationTimeoutError(
                f"{op} on {table} exceeded its {self.deadline_s:g}s operation "
                f"deadline after {attempt} attempts: {cause}"
            ) from cause
        ledger.charge(backoff, "hbase.backoff_s", backoff)
        ledger.count("hbase.retries")
        span = getattr(ledger, "trace_span", None)
        if span is not None and span.enabled:
            span.event("hbase-retry", op=op, table=table, attempt=attempt,
                       backoff_s=backoff)
