"""Micro-benchmarks for the fast-compute-core hot paths.

Unlike the experiment benches (which regenerate whole tables/figures), these
measure the primitives every experiment reduces to:

* ``class_gradients`` — fused single-backward binary Jacobian vs. the
  per-class loop the seed implementation used;
* one JSMA step — Jacobian + early-stop prediction from the same forward
  pass vs. the seed-equivalent cost (per-class Jacobian + a second
  ``predict`` forward pass);
* one training epoch of the Table IV substitute;
* an :class:`ExperimentContext` build with a cold vs. warm artifact cache.

Measured numbers (seconds, best of several repeats; the two sides of a
ratio gate are timed in ABBA blocks) are appended to
``BENCH_hotpaths.json`` at the repository root so the speedups are recorded
evidence, not assertions alone.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_SEED, BenchJson, abba_best, timed

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.config import TINY_PROFILE
from repro.experiments.context import ExperimentContext
from repro.models.substitute_model import SubstituteModel
from repro.nn.engine import use_dtype
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.utils.artifact_cache import ArtifactCache

BENCH = BenchJson("hotpaths")


def best_of(func, repeats: int = 7, number: int = 3) -> float:
    """Best per-call wall time over ``repeats`` batches of ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            func()
        best = min(best, (time.perf_counter() - start) / number)
    return best


@pytest.fixture(scope="module")
def hot_network(bench_scale):
    """An (untrained) Table IV substitute network at the bench scale."""
    return SubstituteModel.for_scale(bench_scale, random_state=7).network


@pytest.fixture(scope="module")
def hot_batch(bench_scale, hot_network):
    """A malware-feature-shaped batch (values in [0, 1], mostly sparse)."""
    rng = np.random.default_rng(BENCH_SEED)
    batch = rng.random((256, hot_network.input_dim))
    batch[batch < 0.6] = 0.0
    return np.clip(batch, 0.0, 1.0)


def test_bench_class_gradients_fused(hot_network, hot_batch):
    """The fused binary Jacobian beats the per-class backward loop."""
    (fused, _), (loop, _) = abba_best(
        timed(lambda: hot_network.class_gradients(hot_batch), number=3),
        timed(lambda: hot_network.class_gradients(hot_batch, fused=False),
              number=3),
        blocks=4)
    speedup = loop / fused
    BENCH.record("class_gradients", fused_s=fused, per_class_loop_s=loop,
                 speedup=speedup, batch=hot_batch.shape[0])
    print(f"\nclass_gradients: fused {fused * 1e3:.3f} ms, "
          f"loop {loop * 1e3:.3f} ms, speedup {speedup:.2f}x")
    # One backward instead of two; the shared forward bounds the gain below 2x.
    assert speedup > 1.1


def test_bench_jsma_step(hot_network, hot_batch):
    """One JSMA step is >= 1.5x faster than the seed-equivalent step.

    Seed cost per iteration: per-class Jacobian (forward + two backwards)
    plus a separate early-stop ``predict`` (another forward).  Current cost:
    one forward + one fused backward, with the early-stop prediction read
    from the Jacobian pass's probabilities.
    """
    def current_step():
        jacobian, probs = hot_network.class_gradients(hot_batch, return_probs=True)
        np.argmax(probs, axis=1)

    def seed_equivalent_step():
        hot_network.class_gradients(hot_batch, fused=False)
        hot_network.predict(hot_batch)

    (current, _), (seed, _) = abba_best(timed(current_step, number=3),
                                        timed(seed_equivalent_step, number=3),
                                        blocks=4)
    speedup = seed / current
    BENCH.record("jsma_step", current_s=current, seed_equivalent_s=seed,
                 speedup=speedup, batch=hot_batch.shape[0])
    print(f"\njsma_step: current {current * 1e3:.3f} ms, "
          f"seed-equivalent {seed * 1e3:.3f} ms, speedup {speedup:.2f}x")
    assert speedup >= 1.5


def test_bench_jsma_attack(benchmark, hot_network, hot_batch):
    """End-to-end JSMA run at the paper's operating point (crafting model)."""
    constraints = PerturbationConstraints(theta=0.1, gamma=0.025)
    attack = JsmaAttack(hot_network, constraints=constraints, early_stop=True)
    result = benchmark.pedantic(lambda: attack.run(hot_batch[:64]),
                                rounds=3, iterations=1)
    BENCH.record("jsma_attack_64x025", mean_perturbed=result.mean_perturbed_features)
    assert result.adversarial.shape == hot_batch[:64].shape


def test_bench_float32_engine(bench_scale, hot_batch):
    """float32 engine throughput on the same Jacobian workload (recorded)."""
    with use_dtype("float32"):
        network32 = SubstituteModel.for_scale(bench_scale, random_state=7).network
    batch32 = hot_batch.astype(np.float32)
    f32 = best_of(lambda: network32.class_gradients(batch32))
    BENCH.record("class_gradients_float32", fused_s=f32, batch=hot_batch.shape[0])
    print(f"\nclass_gradients float32: {f32 * 1e3:.3f} ms")
    jac64 = SubstituteModel.for_scale(bench_scale, random_state=7) \
        .network.class_gradients(hot_batch[:8])
    jac32 = network32.class_gradients(batch32[:8])
    np.testing.assert_allclose(jac32, jac64, atol=1e-4)


def test_bench_train_epoch(benchmark, bench_scale, hot_network, hot_batch):
    """One substitute training epoch at the bench scale."""
    rng = np.random.default_rng(BENCH_SEED + 1)
    n = min(bench_scale.train_total, 1024)
    x = rng.random((n, hot_network.input_dim))
    y = rng.integers(0, 2, size=n)
    network = SubstituteModel.for_scale(bench_scale, random_state=11).network
    trainer = Trainer(network, optimizer=Adam(learning_rate=1e-3),
                      batch_size=bench_scale.batch_size, epochs=1,
                      random_state=3)
    history = benchmark.pedantic(lambda: trainer.fit(x, y), rounds=3, iterations=1)
    assert history.epochs_run == 1


def test_bench_context_warm_vs_cold(tmp_path):
    """A warm-cache context build is >= 5x faster than the cold build."""
    cache = ArtifactCache(tmp_path / "cache")

    def build(seed_context: ExperimentContext) -> None:
        _ = seed_context.corpus
        _ = seed_context.target_model
        _ = seed_context.substitute_model

    start = time.perf_counter()
    build(ExperimentContext(scale=TINY_PROFILE, seed=BENCH_SEED, cache=cache))
    cold = time.perf_counter() - start

    start = time.perf_counter()
    build(ExperimentContext(scale=TINY_PROFILE, seed=BENCH_SEED, cache=cache))
    warm = time.perf_counter() - start

    speedup = cold / warm
    BENCH.record("context_build_tiny", cold_s=cold, warm_s=warm, speedup=speedup)
    print(f"\ncontext build: cold {cold:.2f} s, warm {warm:.3f} s, "
          f"speedup {speedup:.1f}x")
    assert speedup >= 5.0
