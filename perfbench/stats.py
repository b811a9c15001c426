"""The benchmark's own arithmetic: percentiles, due-time latency, self time,
coverage and failure counting.

Everything here is pure (numbers in, numbers out) so that ``test_stats.py``
can pin it without running a workload.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")

#: A percentile is supported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, percentile: str) -> int:
    """How many of ``n`` sorted samples rank strictly above ``percentile``.

    Exact rational arithmetic: ``n - ceil(n * p / 100)``, so 1000 samples
    leave exactly 10 beyond p99 and 10000 leave exactly 10 beyond p99.9.
    """
    return n - math.ceil(Fraction(percentile) * n / 100)


def supported_percentile(n: int, ladder: Sequence[str] = PERCENTILE_LADDER,
                         min_beyond: int = MIN_BEYOND) -> Optional[str]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    beyond it, or ``None`` when even the lowest lacks them."""
    best = None
    for percentile in ladder:
        if samples_beyond(n, percentile) >= min_beyond:
            best = percentile
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def due_latencies_ms(due: Sequence[float], done: Sequence[float]) -> np.ndarray:
    """Latency of each request from when it was due, not when it was sent.

    A stall in the sender therefore counts against every request that was
    due during it, instead of silently delaying their send times.
    """
    due = np.asarray(due, dtype=np.float64)
    done = np.asarray(done, dtype=np.float64)
    if due.shape != done.shape:
        raise ValueError(f"{due.shape[0]} due times but {done.shape[0]} completions")
    return (done - due) * 1000.0


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> np.ndarray:
    """How far behind schedule each send happened (never negative)."""
    return np.maximum(due_latencies_ms(due, sent), 0.0)


def fell_behind(late_ms: Sequence[float], limit_ms: float,
                tail_fraction: float = 0.1) -> bool:
    """Whether an open-loop generator ended its phase behind schedule.

    A send that is late because the system under test held the loop is
    already charged to the requests due meanwhile (latency runs from the
    due time).  The generator has fallen behind when lateness persists: the
    median lateness of the last ``tail_fraction`` of sends exceeds
    ``limit_ms``, so the offered rate was not the rate actually sent.
    """
    late_ms = np.asarray(late_ms, dtype=np.float64)
    tail = late_ms[-max(1, int(late_ms.shape[0] * tail_fraction)):]
    return float(np.median(tail)) > limit_ms


def self_times(durations: Sequence[float], parents: Sequence[int]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, ``-1`` for a root.
    Children nest inside their parent, so the subtraction never goes
    below zero except by clock granularity, which is clipped.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    child_time = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], durations[has_parent])
    return np.maximum(durations - child_time, 0.0)


def layer_self_times(layers: Sequence[str], durations: Sequence[float],
                     parents: Sequence[int]) -> Dict[str, float]:
    """Total self time per layer (a span's layer is given per span)."""
    totals: Dict[str, float] = {}
    for layer, own in zip(layers, self_times(durations, parents)):
        totals[layer] = totals.get(layer, 0.0) + float(own)
    return totals


def coverage(wall_s: float, layer_self_s: Mapping[str, float]
             ) -> Tuple[Dict[str, float], float]:
    """Per-layer share of ``wall_s`` and the share no layer explains."""
    if wall_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    shares = {layer: seconds / wall_s for layer, seconds in layer_self_s.items()}
    return shares, max(0.0, 1.0 - sum(shares.values()))


def count_failures(expected: Iterable[str], observed: Mapping[str, object],
                   reference: Mapping[str, object]) -> Tuple[int, int]:
    """``(attempted, failed)`` for one batch of requests.

    ``observed`` maps request id to the program's answer, or to ``None``
    when the program answered with a non-``ok`` status.  A request fails
    when it is missing, answered non-``ok``, or answered differently from
    ``reference``.
    """
    attempted = failed = 0
    for request_id in expected:
        attempted += 1
        answer = observed.get(request_id)
        if answer is None or answer != reference.get(request_id):
            failed += 1
    return attempted, failed


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def summarise_latency(samples_ms: np.ndarray) -> Dict[str, object]:
    """Median, p99 and the highest supported percentile, with the count."""
    n = int(samples_ms.shape[0])
    tail = supported_percentile(n)
    return {
        "n": n,
        "p50_ms": percentile(samples_ms, 50.0),
        "p99_ms": percentile(samples_ms, 99.0),
        "p99_supported": samples_beyond(n, "99") >= MIN_BEYOND,
        "tail": tail,
        "tail_ms": percentile(samples_ms, float(tail)) if tail else None,
    }


def weighted_repeat(values: Sequence[float], weights: Sequence[int]) -> np.ndarray:
    """``values`` each repeated ``weights`` times (items sharing one time)."""
    return np.repeat(np.asarray(values, dtype=np.float64),
                     np.asarray(weights, dtype=np.int64))
