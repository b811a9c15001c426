"""Shared state for the benchmark harness.

Every bench regenerates one table or figure of the paper.  The experiment
context (corpus + trained models) is built once per session at the scale
selected by ``REPRO_SCALE`` (default ``small``) so that individual benches
measure the cost of *their* experiment, not of retraining the models.

The context is additionally backed by a persistent
:class:`~repro.utils.artifact_cache.ArtifactCache` (``benchmarks/.cache``
unless ``REPRO_CACHE_DIR`` points elsewhere; set ``REPRO_BENCH_NO_CACHE=1``
to disable), so warm benchmark sessions skip corpus generation and model
retraining entirely and go straight to the measured experiment.

Rendered outputs are written to ``benchmarks/results/<experiment>.txt`` so
the regenerated rows/series can be inspected after a run and compared with
the paper's values (see EXPERIMENTS.md); under the default float64 engine
they are byte-stable, so ``git diff benchmarks/results/`` stays empty.
Measured numbers — ``BENCH_*.json`` at the repository root (through
:class:`BenchJson`) and the renderings that carry wall-clock times — are
written only when ``REPRO_BENCH_WRITE=1``, so a test run leaves the
tracked files as they were.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.config import default_profile
from repro.experiments.context import ExperimentContext
from repro.utils.artifact_cache import ArtifactCache

RESULTS_DIR = Path(__file__).parent / "results"

#: Master seed used by the benchmark harness (EXPERIMENTS.md records results
#: from this seed at the ``small`` scale).
BENCH_SEED = 2019


def writes_measurements() -> bool:
    """Whether this run records measured numbers (``REPRO_BENCH_WRITE=1``)."""
    return os.environ.get("REPRO_BENCH_WRITE") == "1"


class BenchJson:
    """The entries one bench module records into ``BENCH_<name>.json``.

    A bench module binds one instance to its module-level ``BENCH`` name;
    the autouse :func:`_write_bench_json` fixture merges the recorded
    entries into the file at the repository root when the module finishes.
    """

    def __init__(self, name: str) -> None:
        self.path = Path(__file__).parents[1] / f"BENCH_{name}.json"
        #: Entry name -> payload; payloads stored here are written as given.
        self.records: dict = {}

    def record(self, name: str, **values) -> None:
        """Store one entry, rounding float values to 6 decimal places."""
        self.records[name] = {key: round(val, 6) if isinstance(val, float) else val
                              for key, val in values.items()}

    def write(self) -> None:
        """Merge the recorded entries into the file.

        A no-op without entries or without ``REPRO_BENCH_WRITE=1``.
        """
        if not self.records or not writes_measurements():
            return
        existing = {}
        if self.path.exists():
            try:
                existing = json.loads(self.path.read_text(encoding="utf-8"))
            except ValueError:
                existing = {}
        existing.update(self.records)
        self.path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(request):
    """Write the module's ``BENCH`` entries once all of its benches ran."""
    yield
    bench = getattr(request.module, "BENCH", None)
    if bench is not None:
        bench.write()


@pytest.fixture(scope="session")
def bench_scale():
    """Scale profile used by the benchmark harness."""
    return default_profile()


@pytest.fixture(scope="session")
def bench_cache():
    """Persistent artifact cache shared by benchmark sessions (or None)."""
    if os.environ.get("REPRO_BENCH_NO_CACHE") == "1":
        return None
    root = os.environ.get("REPRO_CACHE_DIR", str(Path(__file__).parent / ".cache"))
    return ArtifactCache(root)


@pytest.fixture(scope="session")
def bench_context(bench_scale, bench_cache):
    """Shared experiment context (corpus and models built lazily, once)."""
    return ExperimentContext(scale=bench_scale, seed=BENCH_SEED, cache=bench_cache)


@pytest.fixture(scope="session")
def results_dir():
    """Directory where rendered tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_rendering(results_dir: Path, name: str, rendered: str,
                   timed: bool = False) -> None:
    """Persist a rendered experiment output for post-run inspection.

    ``timed`` marks a rendering that carries wall-clock times; it is
    written only under ``REPRO_BENCH_WRITE=1``.
    """
    if timed and not writes_measurements():
        return
    (results_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")


def timed(func, number: int = 1):
    """A run of ``func`` for :func:`abba_best`: each call of the returned
    callable runs ``func`` ``number`` times and returns ``(seconds per
    call, last result)``."""
    def run():
        start = time.perf_counter()
        for _ in range(number):
            result = func()
        return (time.perf_counter() - start) / number, result
    return run


def abba_best(run_a, run_b, blocks: int = 3):
    """The fastest run of each side of a timing gate, timed in ABBA blocks.

    ``run_a`` and ``run_b`` each return a tuple whose first item is the
    run's seconds.  Every block runs a, b, b, a, so drift on the box (a
    slow stretch, BLAS warming up) reaches both sides alike; timing one
    side's repeats after the other's hands all of it to one side.
    Returns the ``(a, b)`` runs with the fewest seconds, ``2 * blocks``
    runs per side.
    """
    best = [None, None]
    for _ in range(blocks):
        for side, run in ((0, run_a), (1, run_b), (1, run_b), (0, run_a)):
            result = run()
            if best[side] is None or result[0] < best[side][0]:
                best[side] = result
    return best[0], best[1]


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments train models and run full attack sweeps; repeating them
    dozens of times per bench would make the harness needlessly slow, so each
    bench measures a single end-to-end execution.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
