"""Fixed-size / fixed-latency micro-batching of scoring requests.

An online detector receives requests one at a time but the compute engine is
dramatically more efficient per sample when it scores a whole matrix in one
fused ``predict_proba`` call.  :class:`MicroBatcher` bridges the two: it
accumulates submitted items and flushes them as one batch when either

* the batch reaches ``max_batch_size`` (fixed-size flush), or
* the *oldest* pending item has waited ``max_delay_ms`` (fixed-latency
  flush, checked by :meth:`poll`),

whichever comes first.  The batcher is synchronous and single-threaded by
design — the caller drives it (``submit`` → maybe ``poll`` → finally
``flush``), which keeps the semantics deterministic and testable with an
injected clock.
"""

from __future__ import annotations

import time
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from repro.exceptions import ServingError
from repro.obs.instrument import Instrumentation

T = TypeVar("T")
R = TypeVar("R")


class MicroBatcher(Generic[T, R]):
    """Accumulate items and flush them through ``flush_fn`` in batches.

    Parameters
    ----------
    flush_fn:
        Called with the list of pending items on every flush; must return
        exactly one result per item, in order.
    max_batch_size:
        Flush as soon as this many items are pending.
    max_delay_ms:
        Maximum time the oldest pending item may wait before :meth:`poll`
        forces a flush.  ``0`` makes every :meth:`poll` flush.
    clock:
        Monotonic time source in seconds (injectable for tests).
    retry_policy:
        Optional :class:`~repro.reliability.retry.RetryPolicy`; each flush
        attempt that fails with an ``Exception`` is re-attempted with
        backoff before the failure is treated as final.  ``None`` (the
        default) preserves the single-attempt behaviour.
    error_fn:
        Optional poison-isolation hook ``(item, error) -> result``.  When
        set, a batch whose (retried) flush still fails is *bisected*:
        halves are flushed independently until the failure is pinned to a
        single item, which is answered by ``error_fn`` instead of wedging
        the batch.  ``None`` (the default) preserves the restore-and-raise
        behaviour.
    sleep:
        Sleep used between retry attempts (injectable for tests).
    instrumentation:
        The :class:`~repro.obs.Instrumentation` the batcher counts into
        (``None``, the default, makes a sink-less one).  Every flush
        samples the ``batcher.queue_depth`` gauge (pre-flush peak, then
        post-flush leftover — batch-boundary sampling, so the per-item
        submit path stays instrumentation-free) and records the batch size
        in the ``batcher.batch_size`` histogram plus its lag past the
        oldest item's deadline in ``batcher.flush_lag_ms`` (negative =
        flushed with headroom) — the raw signal behind the flush-deadline
        SLO.  Its reliability events count under the serving layer's
        names: ``serve.flush_retries`` per re-attempt and ``serve.errors``
        per poison item answered by ``error_fn``.
    """

    def __init__(self, flush_fn: Callable[[List[T]], Sequence[R]],
                 max_batch_size: int = 32, max_delay_ms: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 retry_policy=None,
                 error_fn: Optional[Callable[[T, Exception], R]] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 instrumentation=None) -> None:
        if max_batch_size < 1:
            raise ServingError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_ms < 0:
            raise ServingError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self._flush_fn = flush_fn
        self.max_batch_size = int(max_batch_size)
        self.max_delay_ms = float(max_delay_ms)
        self._clock = clock
        self._retry_policy = retry_policy
        self._error_fn = error_fn
        self._sleep = sleep
        self._obs = (instrumentation if instrumentation is not None
                     else Instrumentation())
        self._depth_gauge = self._obs.metrics.gauge("batcher.queue_depth")
        self._pending: List[T] = []
        self._oldest_enqueued_at: Optional[float] = None
        self.n_flushes = 0

    @property
    def pending(self) -> int:
        """Number of items waiting for the next flush."""
        return len(self._pending)

    @property
    def deadline(self) -> Optional[float]:
        """Clock time at which the pending batch must flush (None when empty)."""
        if self._oldest_enqueued_at is None:
            return None
        return self._oldest_enqueued_at + self.max_delay_ms / 1000.0

    def submit(self, item: T) -> List[R]:
        """Enqueue one item; returns flushed results when this fills the batch.

        While the batch is still accumulating the return value is ``[]`` —
        results for the enqueued item arrive from the flush that eventually
        includes it.
        """
        if self._oldest_enqueued_at is None:
            self._oldest_enqueued_at = self._clock()
        self._pending.append(item)
        if len(self._pending) >= self.max_batch_size:
            return self.flush()
        return []

    def submit_many(self, items: Sequence[T]) -> List[R]:
        """Enqueue several items, collecting results of any triggered flushes."""
        results: List[R] = []
        for item in items:
            results.extend(self.submit(item))
        return results

    def poll(self) -> List[R]:
        """Flush if the oldest pending item has exceeded ``max_delay_ms``."""
        deadline = self.deadline
        if deadline is not None and self._clock() >= deadline:
            return self.flush()
        return []

    def clear(self) -> List[T]:
        """Drop and return every pending item without flushing.

        The recovery path after a failing flush (which restores the batch):
        the caller takes the items back, removes the offender and resubmits
        the rest.
        """
        dropped, self._pending = self._pending, []
        self._oldest_enqueued_at = None
        return dropped

    def flush(self) -> List[R]:
        """Flush whatever is pending (no-op on an empty batch).

        If the flush fails for good — after any configured retries, and
        with no ``error_fn`` to bisect the poison item out — the batch is
        restored to the front of the queue before the exception propagates:
        one bad item must not silently destroy every other queued item; the
        caller can take the items back with :meth:`clear`, drop the
        offender and resubmit the rest.
        """
        if not self._pending:
            return []
        batch, self._pending = self._pending, []
        oldest, self._oldest_enqueued_at = self._oldest_enqueued_at, None
        try:
            results = self._flush_batch(batch)
            if len(results) != len(batch):
                raise ServingError(
                    f"flush_fn returned {len(results)} results for a batch of "
                    f"{len(batch)}")
        except BaseException:
            # Restores on injected WorkerCrash (BaseException) too, so a
            # crashing replica never eats requests it had not yet scored.
            self._pending = batch + self._pending
            self._oldest_enqueued_at = oldest
            raise
        self.n_flushes += 1
        # Queue depth is sampled at flush boundaries: depth grows
        # monotonically between flushes, so the pre-flush batch size IS the
        # interval's peak and the leftover is the level the next interval
        # starts from — same max and same final value as per-submit
        # sampling, with zero per-item hot-path work.
        self._depth_gauge.set(len(batch))
        self._depth_gauge.set(len(self._pending))
        self._obs.observe("batcher.batch_size", len(batch))
        if oldest is not None:
            deadline = oldest + self.max_delay_ms / 1000.0
            self._obs.observe("batcher.flush_lag_ms",
                              (self._clock() - deadline) * 1000.0)
        return results

    def _attempt(self, batch: List[T]) -> List[R]:
        """One logical flush of ``batch``, retried under the policy if set."""
        if self._retry_policy is None:
            return list(self._flush_fn(batch))
        return list(self._retry_policy.run(
            lambda: self._flush_fn(batch), sleep=self._sleep,
            on_retry=lambda attempt, error: self._obs.count(
                "serve.flush_retries")))

    def _flush_batch(self, batch: List[T]) -> List[R]:
        """Flush ``batch``, bisecting persistent failures down to one item.

        Only ``Exception`` failures are handled — a ``BaseException`` crash
        propagates immediately.  Result order always matches item order
        because halves are flushed left-to-right.
        """
        try:
            return self._attempt(batch)
        except Exception as error:
            if self._error_fn is None:
                raise
            if len(batch) == 1:
                self._obs.count("serve.errors")
                return [self._error_fn(batch[0], error)]
            midpoint = len(batch) // 2
            return (self._flush_batch(batch[:midpoint]) +
                    self._flush_batch(batch[midpoint:]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MicroBatcher(max_batch_size={self.max_batch_size}, "
                f"max_delay_ms={self.max_delay_ms}, pending={self.pending})")
