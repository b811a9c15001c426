"""Tests for the compute dtype and the fresh-array results of ``repro.nn``."""

import numpy as np
import pytest

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.exceptions import ConfigurationError
from repro.nn.engine import as_compute, compute_dtype, set_default_dtype, use_dtype
from repro.nn.layers import Parameter
from repro.nn.network import NeuralNetwork


class TestEngineConfiguration:
    def test_default_dtype_follows_environment(self):
        import os

        # float64 unless the suite runs under REPRO_DTYPE (the CI matrix
        # exercises both engine dtypes).
        expected = np.dtype(os.environ.get("REPRO_DTYPE", "float64"))
        assert compute_dtype() == expected

    def test_set_default_dtype_returns_previous(self):
        original = compute_dtype()
        other = np.float32 if original == np.float64 else np.float64
        previous = set_default_dtype(other)
        try:
            assert previous == original
            assert compute_dtype() == other
        finally:
            set_default_dtype(previous)

    def test_use_dtype_restores_on_exit(self):
        original = compute_dtype()
        other = np.float32 if original == np.float64 else np.float64
        with use_dtype(other):
            assert compute_dtype() == other
        assert compute_dtype() == original

    def test_use_dtype_restores_on_error(self):
        original = compute_dtype()
        other = np.float32 if original == np.float64 else np.float64
        with pytest.raises(RuntimeError):
            with use_dtype(other):
                raise RuntimeError("boom")
        assert compute_dtype() == original

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            set_default_dtype("int32")
        with pytest.raises(ConfigurationError):
            set_default_dtype("float16")
        with pytest.raises(ConfigurationError):
            # Not a dtype at all (np.dtype raises TypeError internally).
            set_default_dtype("bogus")

    def test_as_compute_avoids_copy_when_possible(self):
        x = np.zeros((3, 3), dtype=compute_dtype())
        assert as_compute(x) is x


class TestDtypePropagation:
    def test_parameter_follows_engine_dtype(self):
        with use_dtype("float32"):
            param = Parameter("weight", np.ones((2, 2)))
        assert param.value.dtype == np.float32
        assert param.grad.dtype == np.float32

    def test_network_built_under_float32_computes_in_float32(self):
        with use_dtype("float32"):
            network = NeuralNetwork.mlp([6, 4, 2], random_state=0)
        logits = network.predict_logits(np.zeros((3, 6)))
        assert logits.dtype == np.float32

    def test_float32_network_keeps_dtype_after_context_exit(self):
        with use_dtype("float32"):
            network = NeuralNetwork.mlp([6, 4, 2], random_state=0)
        # Engine is back to float64 here, but the network's parameters carry
        # their dtype with them.
        assert network.predict_logits(np.zeros((1, 6))).dtype == np.float32

    def test_save_load_roundtrip_preserves_values_and_dtype(self, tmp_path):
        with use_dtype("float32"):
            network = NeuralNetwork.mlp([5, 4, 2], random_state=1)
            network.save(tmp_path / "net32")
        # Loading under the default (float64) engine must restore the
        # checkpoint's own compute dtype, not the engine default.
        restored = NeuralNetwork.load(tmp_path / "net32")
        assert all(p.value.dtype == np.float32 for p in restored.parameters())
        x = np.linspace(0.0, 1.0, 10).reshape(2, 5)
        np.testing.assert_allclose(restored.predict_logits(x),
                                   network.predict_logits(x), atol=1e-6)

    def test_predict_logits_does_not_alias_reuse_buffers(self):
        network = NeuralNetwork.mlp([6, 4, 2], random_state=2)
        rng = np.random.default_rng(0)
        x1, x2 = rng.random((8, 6)), rng.random((8, 6))
        first = network.predict_logits(x1)
        snapshot = first.copy()
        second = network.predict_logits(x2)
        assert second is not first
        np.testing.assert_array_equal(first, snapshot)


class TestBufferReuseEquivalence:
    """No result of one pass is overwritten by a later pass."""

    def test_consecutive_backwards_do_not_clobber_jacobian(self):
        # The per-class loop runs several backwards off one forward; a later
        # backward must leave the rows already written as they are.
        network = NeuralNetwork.mlp([8, 6, 3], random_state=5)
        x = np.random.default_rng(6).random((4, 8))
        jacobian = network.class_gradients(x)
        rows = [jacobian[:, i, :].copy() for i in range(3)]
        again = network.class_gradients(x)
        for i in range(3):
            np.testing.assert_array_equal(again[:, i, :], rows[i])

    def test_raw_forward_and_backward_input_survive_the_next_call(self):
        network = NeuralNetwork.mlp([6, 5, 4, 2], random_state=7)
        rng = np.random.default_rng(8)
        logits = network.forward(rng.random((5, 6)))
        kept_logits = logits.copy()
        network.forward(rng.random((5, 6)))
        assert logits.tobytes() == kept_logits.tobytes()
        grad = network.backward_input(rng.random((5, 2)))
        kept_grad = grad.copy()
        network.backward_input(rng.random((5, 2)))
        assert grad.tobytes() == kept_grad.tobytes()


class TestAttackDtypeAgreement:
    def _as_float32(self, network: NeuralNetwork) -> NeuralNetwork:
        clone = network.clone()
        for param in clone.parameters():
            param.value = param.value.astype(np.float32)
            param.grad = np.zeros_like(param.value)
        return clone

    def test_jsma_success_rate_matches_across_engines(self, tiny_target, tiny_malware):
        """The same trained model attacked under float32 vs float64 agrees
        on the attack success rate within 1% (acceptance criterion)."""
        constraints = PerturbationConstraints(theta=0.1, gamma=0.025)
        result64 = JsmaAttack(tiny_target.network, constraints).run(
            tiny_malware.features)
        network32 = self._as_float32(tiny_target.network)
        result32 = JsmaAttack(network32, constraints).run(tiny_malware.features)
        assert abs(result32.evasion_rate - result64.evasion_rate) <= 0.01 + 1e-9

    def test_predictions_match_across_engines(self, tiny_target, tiny_malware):
        network32 = self._as_float32(tiny_target.network)
        np.testing.assert_array_equal(
            network32.predict(tiny_malware.features),
            tiny_target.network.predict(tiny_malware.features))
