"""Tests for the NeuralNetwork container (forward, gradients, persistence)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import SerializationError, ShapeError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import NeuralNetwork
from repro.nn.optimizers import Adam


class TestConstruction:
    def test_mlp_layer_sizes(self, small_mlp):
        assert small_mlp.layer_sizes == [12, 16, 8, 2]

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ShapeError):
            NeuralNetwork.mlp([5])

    def test_mlp_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetwork.mlp([4, 2], activation="swish")

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ShapeError):
            NeuralNetwork([])

    def test_n_parameters_counts_weights_and_biases(self):
        network = NeuralNetwork.mlp([4, 3, 2], random_state=0)
        expected = 4 * 3 + 3 + 3 * 2 + 2
        assert network.n_parameters() == expected

    def test_input_dim(self, small_mlp):
        assert small_mlp.input_dim == 12

    def test_seeded_construction_is_deterministic(self):
        a = NeuralNetwork.mlp([6, 4, 2], random_state=5)
        b = NeuralNetwork.mlp([6, 4, 2], random_state=5)
        x = np.random.default_rng(0).random((3, 6))
        np.testing.assert_allclose(a.predict_logits(x), b.predict_logits(x))

    def test_clone_is_independent(self, small_mlp):
        clone = small_mlp.clone()
        clone.parameters()[0].value += 1.0
        assert not np.allclose(clone.parameters()[0].value,
                               small_mlp.parameters()[0].value)


class TestPrediction:
    def test_logits_shape(self, small_mlp):
        assert small_mlp.predict_logits(np.zeros((5, 12))).shape == (5, 2)

    def test_1d_input_is_promoted(self, small_mlp):
        assert small_mlp.predict_logits(np.zeros(12)).shape == (1, 2)

    def test_predict_proba_rows_sum_to_one(self, small_mlp):
        probs = small_mlp.predict_proba(np.random.default_rng(0).random((6, 12)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_predict_is_argmax_of_proba(self, small_mlp):
        x = np.random.default_rng(1).random((8, 12))
        np.testing.assert_array_equal(small_mlp.predict(x),
                                      np.argmax(small_mlp.predict_proba(x), axis=1))

    def test_malware_score_is_class1_probability(self, small_mlp):
        x = np.random.default_rng(2).random((4, 12))
        np.testing.assert_allclose(small_mlp.malware_score(x),
                                   small_mlp.predict_proba(x)[:, 1])

    def test_temperature_override_flattens_probabilities(self, small_mlp):
        x = np.random.default_rng(3).random((4, 12))
        sharp = small_mlp.predict_proba(x, temperature=1.0)
        flat = small_mlp.predict_proba(x, temperature=50.0)
        assert np.abs(flat - 0.5).max() < np.abs(sharp - 0.5).max() + 1e-12


class TestInputGradients:
    def test_class_gradients_shape(self, small_mlp):
        x = np.random.default_rng(0).random((3, 12))
        assert small_mlp.class_gradients(x).shape == (3, 2, 12)

    def test_class_gradients_match_finite_differences(self):
        from repro.nn.engine import use_dtype

        # Finite differences at eps=1e-6 need float64 math regardless of the
        # suite-wide engine dtype (REPRO_DTYPE).
        with use_dtype("float64"):
            network = NeuralNetwork.mlp([6, 5, 2], activation="tanh", random_state=0)
        rng = np.random.default_rng(4)
        x = rng.random((2, 6))
        jacobian = network.class_gradients(x)
        eps = 1e-6
        for sample in range(2):
            for class_index in range(2):
                for feature in range(6):
                    plus = x.copy(); plus[sample, feature] += eps
                    minus = x.copy(); minus[sample, feature] -= eps
                    numeric = (network.predict_proba(plus)[sample, class_index]
                               - network.predict_proba(minus)[sample, class_index]) / (2 * eps)
                    assert jacobian[sample, class_index, feature] == pytest.approx(
                        numeric, rel=1e-3, abs=1e-7)

    def test_binary_class_gradients_are_opposite(self, small_mlp):
        x = np.random.default_rng(5).random((4, 12))
        jacobian = small_mlp.class_gradients(x)
        np.testing.assert_allclose(jacobian[:, 0, :], -jacobian[:, 1, :], atol=1e-12)

    def test_class_gradients_leave_parameter_grads_clean(self, small_mlp):
        small_mlp.class_gradients(np.random.default_rng(0).random((3, 12)))
        assert all(np.all(p.grad == 0.0) for p in small_mlp.parameters())

    def test_loss_input_gradient_matches_finite_differences(self):
        from repro.nn.engine import use_dtype

        with use_dtype("float64"):
            network = NeuralNetwork.mlp([5, 4, 2], activation="sigmoid", random_state=1)
        rng = np.random.default_rng(6)
        x = rng.random((3, 5))
        labels = np.array([0, 1, 0])
        grad = network.loss_input_gradient(x, labels)
        loss = SoftmaxCrossEntropy()
        eps = 1e-6
        for (i, j) in [(0, 0), (1, 3), (2, 4)]:
            plus = x.copy(); plus[i, j] += eps
            minus = x.copy(); minus[i, j] -= eps
            numeric = (loss.forward(network.predict_logits(plus), labels)
                       - loss.forward(network.predict_logits(minus), labels)) / (2 * eps)
            assert grad[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-9)


class TestTrainStep:
    def test_train_step_reduces_loss(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 16, 2], random_state=0)
        loss = SoftmaxCrossEntropy()
        optimizer = Adam(learning_rate=0.01)
        initial = loss.forward(network.predict_logits(x), y)
        for _ in range(30):
            network.train_step(x, y, loss, optimizer)
        final = loss.forward(network.predict_logits(x), y)
        assert final < initial


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, small_mlp):
        x = np.random.default_rng(0).random((5, 12))
        small_mlp.save(tmp_path / "model")
        restored = NeuralNetwork.load(tmp_path / "model")
        np.testing.assert_allclose(restored.predict_logits(x),
                                   small_mlp.predict_logits(x))

    def test_load_preserves_architecture_metadata(self, tmp_path):
        network = NeuralNetwork.mlp([7, 5, 2], dropout=0.2, temperature=3.0,
                                    name="custom", random_state=0)
        network.save(tmp_path / "m")
        restored = NeuralNetwork.load(tmp_path / "m")
        assert restored.layer_sizes == [7, 5, 2]
        assert restored.temperature == 3.0
        assert restored.name == "custom"

    def test_load_missing_bundle_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            NeuralNetwork.load(tmp_path / "missing")

    def test_load_with_corrupted_weight_shape_raises(self, tmp_path, small_mlp):
        path = small_mlp.save(tmp_path / "model")
        arrays = dict(np.load(path / "arrays.npz"))
        first_key = sorted(arrays)[0]
        arrays[first_key] = np.zeros((1, 1))
        np.savez_compressed(path / "arrays.npz", **arrays)
        with pytest.raises(SerializationError):
            NeuralNetwork.load(path)


class TestPickle:
    """A pickled network carries its weights, not its last call's caches."""

    def test_pickle_after_a_large_call_is_the_fresh_size(self):
        network = NeuralNetwork.mlp([491, 82, 41, 2], random_state=0)
        fresh = len(pickle.dumps(network))
        x = np.random.default_rng(0).random((2048, 491))
        expected = network.predict_proba(x)
        gradients = network.class_gradients(x[:64])
        assert len(pickle.dumps(network)) <= fresh + 4096
        restored = pickle.loads(pickle.dumps(network))
        assert restored.predict_proba(x).tobytes() == expected.tobytes()
        assert restored.class_gradients(x[:64]).tobytes() == gradients.tobytes()
        assert network.predict_proba(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "sigmoid", "tanh"])
    def test_every_cache_is_left_out_and_dropout_keeps_its_stream(self, activation):
        network = NeuralNetwork.mlp([12, 32, 2], activation=activation, dropout=0.5,
                                    random_state=1)
        fresh = len(pickle.dumps(network))
        x = np.random.default_rng(1).random((500, 12))
        network.forward(x, training=True)
        assert len(pickle.dumps(network)) <= fresh + 1024
        restored = pickle.loads(pickle.dumps(network))
        assert (restored.forward(x, training=True).tobytes()
                == network.forward(x, training=True).tobytes())
