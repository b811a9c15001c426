"""Property tests for the one merge path of the metrics registry.

Fleets and grids combine their workers' counts only by merging registry
snapshots, and :class:`~repro.reliability.report.ReliabilityReport` reads
its numbers from the merged result.  Merging must therefore not depend on
the order or grouping in which worker snapshots arrive, and the report of
a merged snapshot must equal the field-wise sum of the per-worker reports.

Updates use integer values so that every sum is exact in floating point.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.reliability.report import COUNTERS, ReliabilityReport

COUNTER_NAMES = sorted(COUNTERS.values()) + [
    "fault.fleet.dispatch", "fault.service.flush", "jsma.steps"]
GAUGE_NAMES = ["batcher.queue_depth", "fleet.inflight"]
HISTOGRAM_NAMES = ["batcher.batch_size", "span.service.flush"]

#: (kind, metric name, value, owning part) — the part index is reduced
#: modulo the number of registries the updates are split across.
UPDATES = st.lists(st.one_of(
    st.tuples(st.just("counter"), st.sampled_from(COUNTER_NAMES),
              st.integers(0, 50), st.integers(0, 7)),
    st.tuples(st.just("gauge"), st.sampled_from(GAUGE_NAMES),
              st.integers(-50, 50), st.integers(0, 7)),
    st.tuples(st.just("histogram"), st.sampled_from(HISTOGRAM_NAMES),
              st.integers(-1000, 1000), st.integers(0, 7)),
), max_size=40)


def _part_snapshots(n_parts, updates):
    """Apply ``updates`` across ``n_parts`` registries; one snapshot each."""
    parts = [MetricsRegistry() for _ in range(n_parts)]
    for kind, name, value, owner in updates:
        registry = parts[owner % n_parts]
        if kind == "counter":
            registry.counter(name).inc(value)
        elif kind == "gauge":
            registry.gauge(name).set(value)
        else:
            registry.histogram(name).observe(value)
    return [part.snapshot() for part in parts]


def _merged(snapshots):
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


@given(n_parts=st.integers(1, 4), updates=UPDATES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_merge_is_independent_of_order_and_grouping(n_parts, updates, data):
    snapshots = _part_snapshots(n_parts, updates)
    order = data.draw(st.permutations(range(n_parts)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n_parts - 1)))
                  if n_parts > 1 else set())
    bounds = [0, *cuts, n_parts]
    groups = [order[start:end] for start, end in zip(bounds, bounds[1:])]
    regrouped = _merged([_merged([snapshots[index] for index in group])
                         for group in groups])
    assert regrouped == _merged(snapshots)


@given(n_parts=st.integers(1, 4), updates=UPDATES)
@settings(max_examples=60, deadline=None)
def test_report_of_merged_snapshot_sums_the_parts(n_parts, updates):
    snapshots = _part_snapshots(n_parts, updates)
    parts = [ReliabilityReport.from_snapshot(snapshot)
             for snapshot in snapshots]
    merged = ReliabilityReport.from_snapshot(_merged(snapshots))
    for name in COUNTERS:
        assert getattr(merged, name) == sum(getattr(part, name)
                                            for part in parts)
    faults = Counter()
    for part in parts:
        faults.update(part.faults)
    assert dict(merged.faults) == dict(faults)
