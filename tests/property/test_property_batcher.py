"""Property test for the micro-batcher against a small reference model.

Random sequences of three operations drive a :class:`MicroBatcher` on a
fake clock: submit an item, advance the clock then poll, and flush.  Items
are plain, poison (every flush attempt that holds one fails) or flaky (the
first flush attempt that holds one fails, later ones succeed, so the
``RetryPolicy`` absorbs it).  The reference keeps the pending items and the
oldest one's enqueue time, and predicts every flush:

* a submit flushes when the batch reaches ``max_batch_size``;
* a poll flushes exactly when the oldest pending item's deadline has passed;
* an explicit flush flushes whatever is pending.

With ``error_fn`` every item is answered exactly once, in submission order,
and the poison items, and only they, come back as errors.  Without it a
flush that holds poison raises and leaves every item pending; the test then
takes the batch back with ``clear()``, as a recovering caller would.  No
call of the flush function ever sees more than ``max_batch_size`` items.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import RetryPolicy
from repro.serving import MicroBatcher


class Poisoned(Exception):
    """A flush attempt held a poison item."""


class Flaky(Exception):
    """A transient flush failure."""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


#: ``(operation, argument)``: the kind of a submitted item, or the
#: milliseconds the clock advances before a poll.
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["ok", "ok", "poison", "flaky"])),
    st.tuples(st.just("poll"), st.integers(0, 6)),
    st.tuples(st.just("flush"), st.none()),
), max_size=40)


def _answer(item):
    index, kind = item
    return ("error", index) if kind == "poison" else ("ok", index)


@settings(max_examples=200, deadline=None)
@given(max_batch_size=st.integers(1, 5),
       max_delay_ms=st.sampled_from([0.0, 1.0, 2.5, 5.0]),
       max_retries=st.integers(1, 2), isolate=st.booleans(),
       operations=OPERATIONS)
def test_batcher_matches_reference(max_batch_size, max_delay_ms, max_retries,
                                   isolate, operations):
    clock = FakeClock()
    flaky_seen = set()
    flush_calls = []

    def flush_fn(batch):
        flush_calls.append(list(batch))
        fresh = {item for item in batch if item[1] == "flaky"} - flaky_seen
        if fresh:
            flaky_seen.update(fresh)
            raise Flaky()
        if any(kind == "poison" for _, kind in batch):
            raise Poisoned()
        return [("ok", index) for index, _ in batch]

    batcher = MicroBatcher(
        flush_fn, max_batch_size=max_batch_size, max_delay_ms=max_delay_ms,
        clock=clock,
        retry_policy=RetryPolicy(max_retries=max_retries, base_delay_s=0.0),
        error_fn=(lambda item, error: ("error", item[0])) if isolate else None)

    pending, oldest = [], None          # the reference's queue
    submitted, cleared, answered = [], [], []

    def step(operation, argument):
        nonlocal oldest
        if operation == "submit":
            item = (len(submitted), argument)
            submitted.append(item)
            if not pending:
                oldest = clock.now
            pending.append(item)
            return len(pending) >= max_batch_size, lambda: batcher.submit(item)
        if operation == "poll":
            clock.now += argument / 1000.0
            due = bool(pending) and clock.now >= oldest + max_delay_ms / 1000.0
            return due, batcher.poll
        return bool(pending), batcher.flush

    for operation, argument in operations + [("flush", None)]:
        flushes, call = step(operation, argument)
        if flushes and not isolate and any(kind == "poison" for _, kind in pending):
            with pytest.raises(Poisoned):
                call()
            assert batcher.pending == len(pending)
            assert batcher.deadline == oldest + max_delay_ms / 1000.0
            assert batcher.clear() == pending
            cleared.extend(pending)
            pending.clear()
            continue
        results = call()
        if flushes:
            assert results == [_answer(item) for item in pending]
            answered.extend(results)
            pending.clear()
        else:
            assert results == []
        assert batcher.pending == len(pending)
        assert batcher.deadline == (oldest + max_delay_ms / 1000.0
                                    if pending else None)

    assert all(len(batch) <= max_batch_size for batch in flush_calls)
    assert answered == [_answer(item) for item in submitted
                        if item not in cleared]
    if isolate:
        assert not cleared
