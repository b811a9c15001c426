"""Tests for the fused single-backward binary Jacobian.

The binary fast path in :meth:`NeuralNetwork.class_gradients` relies on the
softmax identity ``dF_0/dx == -dF_1/dx``; these tests pin (a) numerical
agreement with the general per-class loop, (b) the one-backward-pass
regression guarantee, (c) float32/float64 engine agreement, (d) the
input-only backward: bitwise the training backward's input gradient, with
parameter gradients left alone, and (e) ``class_index``: one row of the
Jacobian, bitwise, in a fresh array.
"""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.activations import softmax, softmax_input_gradient
from repro.nn.engine import use_dtype
from repro.nn.layers import Dense, Layer, Parameter
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import NeuralNetwork


class BackwardCounter(Layer):
    """Identity layer that counts backward passes through the network."""

    def __init__(self) -> None:
        super().__init__()
        self.backward_calls = 0
        self.forward_calls = 0

    def forward(self, inputs, training=False):
        self.forward_calls += 1
        return inputs

    def backward(self, grad_output):
        self.backward_calls += 1
        return grad_output

    def output_dim(self, input_dim):
        return input_dim


def random_batch(n_features: int, n_samples: int = 5, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_samples, n_features))


@pytest.fixture(params=["float64", "float32"])
def engine(request):
    """Each engine dtype: networks built in the test compute in it."""
    with use_dtype(request.param):
        yield


class TestFusedMatchesLoop:
    @pytest.mark.parametrize("sizes,seed", [
        ([7, 5, 2], 0),
        ([12, 16, 8, 2], 1),
        ([20, 30, 25, 10, 2], 2),
        ([3, 4, 2], 3),
    ])
    def test_fused_matches_per_class_loop(self, sizes, seed):
        network = NeuralNetwork.mlp(sizes, random_state=seed)
        x = random_batch(sizes[0], seed=seed)
        fused = network.class_gradients(x)
        loop = network.class_gradients(x, fused=False)
        np.testing.assert_allclose(fused, loop, atol=1e-6)

    def test_fused_matches_loop_under_temperature(self):
        network = NeuralNetwork.mlp([9, 6, 2], random_state=4, temperature=50.0)
        x = random_batch(9, seed=4)
        np.testing.assert_allclose(network.class_gradients(x),
                                   network.class_gradients(x, fused=False),
                                   atol=1e-6)

    def test_fused_matches_loop_tanh_activation(self):
        network = NeuralNetwork.mlp([8, 10, 2], activation="tanh", random_state=5)
        x = random_batch(8, seed=5)
        np.testing.assert_allclose(network.class_gradients(x),
                                   network.class_gradients(x, fused=False),
                                   atol=1e-6)

    def test_multiclass_ignores_fused_request(self):
        network = NeuralNetwork.mlp([6, 8, 4], random_state=6)
        x = random_batch(6, seed=6)
        jacobian = network.class_gradients(x, fused=True)
        assert jacobian.shape == (x.shape[0], 4, 6)
        np.testing.assert_allclose(jacobian,
                                   network.class_gradients(x, fused=False),
                                   atol=1e-6)

    def test_binary_rows_cancel_exactly(self):
        network = NeuralNetwork.mlp([10, 7, 2], random_state=7)
        jacobian = network.class_gradients(random_batch(10, seed=7))
        np.testing.assert_array_equal(jacobian[:, 0, :], -jacobian[:, 1, :])

    def test_return_probs_matches_predict_proba(self):
        network = NeuralNetwork.mlp([11, 6, 2], random_state=8)
        x = random_batch(11, seed=8)
        _, probs = network.class_gradients(x, return_probs=True)
        np.testing.assert_allclose(probs, network.predict_proba(x), atol=1e-12)


class TestBackwardPassCount:
    def _counted_network(self, n_classes: int) -> tuple:
        counter = BackwardCounter()
        base = NeuralNetwork.mlp([6, 5, n_classes], random_state=9)
        network = NeuralNetwork([counter] + list(base.layers),
                                n_classes=n_classes)
        return network, counter

    def test_binary_jacobian_uses_exactly_one_backward_pass(self):
        network, counter = self._counted_network(n_classes=2)
        network.class_gradients(random_batch(6, seed=9))
        assert counter.forward_calls == 1
        assert counter.backward_calls == 1

    def test_per_class_loop_uses_one_backward_per_class(self):
        network, counter = self._counted_network(n_classes=2)
        network.class_gradients(random_batch(6, seed=9), fused=False)
        assert counter.backward_calls == 2

    def test_multiclass_jacobian_uses_one_backward_per_class(self):
        network, counter = self._counted_network(n_classes=3)
        network.class_gradients(random_batch(6, seed=10))
        assert counter.backward_calls == 3

    @pytest.mark.parametrize("n_classes,class_index", [(2, 0), (2, 1), (3, 2)])
    def test_one_row_uses_one_backward_pass(self, n_classes, class_index):
        network, counter = self._counted_network(n_classes=n_classes)
        network.class_gradients(random_batch(6, seed=9), class_index=class_index)
        assert counter.forward_calls == 1
        assert counter.backward_calls == 1


class ScaleLayer(Layer):
    """A parameterised layer with a training backward only."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.scale = Parameter("scale", np.linspace(0.5, 1.5, width))

    def forward(self, inputs, training=False):
        self._inputs = inputs
        return inputs * self.scale.value

    def backward(self, grad_output):
        self.scale.grad += (grad_output * self._inputs).sum(axis=0)
        return grad_output * self.scale.value

    def parameters(self):
        return [self.scale]

    def output_dim(self, input_dim):
        return input_dim


def full_backward_jacobian(network, x, fused):
    """The Jacobian through the training backward (parameter grads and all)."""
    probs = softmax(network.forward(x), temperature=network.temperature)
    classes = [0] if fused else range(network.n_classes)
    rows = {}
    for class_index in classes:
        grad = softmax_input_gradient(probs, class_index,
                                      temperature=network.temperature)
        rows[class_index] = np.array(network.backward(grad))
    if fused:
        rows[1] = np.negative(rows[0])
    network.zero_grad()
    return np.stack([rows[index] for index in range(network.n_classes)], axis=1)


class TestInputOnlyBackward:
    """class_gradients / loss_input_gradient never touch parameter grads."""

    @pytest.mark.parametrize("sizes,fused", [
        ([9, 7, 2], True), ([9, 7, 2], False),
        ([12, 10, 6, 2], True), ([8, 6, 4], False),
    ])
    def test_input_only_jacobian_equals_full_backward_bitwise(self, engine,
                                                              sizes, fused):
        network = NeuralNetwork.mlp(sizes, activation="tanh", random_state=21)
        x = random_batch(sizes[0], n_samples=7, seed=21)
        expected = full_backward_jacobian(network, x, fused and sizes[-1] == 2)
        jacobian = network.class_gradients(x, fused=fused)
        assert jacobian.shape == expected.shape
        assert jacobian.tobytes() == expected.tobytes()

    def test_loss_input_gradient_equals_full_backward_bitwise(self, engine):
        network = NeuralNetwork.mlp([9, 7, 5, 2], random_state=22)
        x = random_batch(9, n_samples=6, seed=22)
        labels = np.array([0, 1, 1, 0, 1, 0])
        loss = SoftmaxCrossEntropy(temperature=network.temperature)
        loss.forward(network.forward(x), labels)
        expected = np.array(network.backward(loss.backward()))
        network.zero_grad()
        assert network.loss_input_gradient(x, labels).tobytes() == expected.tobytes()

    def test_preset_parameter_grads_are_left_untouched(self, engine):
        network = NeuralNetwork.mlp([9, 7, 3], random_state=23)
        rng = np.random.default_rng(23)
        for param in network.parameters():
            param.grad[...] = rng.standard_normal(param.grad.shape)
        before = [param.grad.copy() for param in network.parameters()]
        x = random_batch(9, seed=23)
        network.class_gradients(x)
        network.class_gradients(x, fused=False)
        network.loss_input_gradient(x, np.array([0, 1, 2, 0, 1]))
        for param, grad in zip(network.parameters(), before):
            assert param.grad.tobytes() == grad.tobytes()

    def test_parameterised_layer_without_override_raises(self):
        base = NeuralNetwork.mlp([6, 5, 2], random_state=24)
        scale = ScaleLayer(6)
        network = NeuralNetwork([scale] + list(base.layers), n_classes=2)
        x = random_batch(6, seed=24)
        with pytest.raises(NotImplementedError, match="ScaleLayer"):
            network.class_gradients(x)
        with pytest.raises(NotImplementedError, match="ScaleLayer"):
            network.loss_input_gradient(x, np.zeros(5, dtype=np.int64))
        assert np.all(scale.scale.grad == 0.0)
        # The training backward still runs through it.
        network.backward(np.ones((5, 2)))
        assert np.any(scale.scale.grad != 0.0)


class TestClassIndex:
    """class_gradients(x, class_index=k) is row k of the Jacobian, alone."""

    @pytest.mark.parametrize("sizes,fused", [
        ([9, 7, 2], None), ([9, 7, 2], False),
        ([12, 10, 6, 2], None), ([8, 6, 3], None),
    ], ids=["fused", "loop", "deep", "3-class"])
    def test_row_equals_the_jacobian_row_bitwise(self, engine, sizes, fused):
        network = NeuralNetwork.mlp(sizes, activation="tanh", random_state=31)
        x = random_batch(sizes[0], n_samples=7, seed=31)
        jacobian, probs = network.class_gradients(x, fused=fused,
                                                  return_probs=True)
        for class_index in range(sizes[-1]):
            row, row_probs = network.class_gradients(
                x, fused=fused, return_probs=True, class_index=class_index)
            assert row.shape == (7, sizes[0]) and row.flags.c_contiguous
            assert row.dtype == jacobian.dtype
            assert row.tobytes() == jacobian[:, class_index, :].tobytes()
            assert row_probs.tobytes() == probs.tobytes()

    def test_consecutive_rows_do_not_alias(self, engine):
        network = NeuralNetwork.mlp([9, 7, 2], random_state=32)
        first_x, second_x = random_batch(9, seed=32), random_batch(9, seed=33)
        first = network.class_gradients(first_x, class_index=0)
        kept = first.copy()
        second = network.class_gradients(second_x, class_index=1)
        jacobian = network.class_gradients(second_x)
        assert first.tobytes() == kept.tobytes()
        assert second.tobytes() == jacobian[:, 1, :].tobytes()

    def test_parameter_grads_are_left_untouched(self, engine):
        network = NeuralNetwork.mlp([9, 7, 2], random_state=34)
        rng = np.random.default_rng(34)
        for param in network.parameters():
            param.grad[...] = rng.standard_normal(param.grad.shape)
        before = [param.grad.copy() for param in network.parameters()]
        x = random_batch(9, seed=34)
        for class_index in (0, 1):
            network.class_gradients(x, class_index=class_index)
            network.class_gradients(x, fused=False, class_index=class_index)
        for param, grad in zip(network.parameters(), before):
            assert param.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("class_index", [-1, 2])
    def test_out_of_range_class_index_is_rejected(self, class_index):
        network = NeuralNetwork.mlp([5, 4, 2], random_state=35)
        with pytest.raises(ShapeError, match="class_index"):
            network.class_gradients(random_batch(5), class_index=class_index)

    def test_backward_input_writes_into_out(self, engine):
        network = NeuralNetwork.mlp([6, 5, 2], random_state=36)
        x = random_batch(6, seed=36)
        grad = softmax_input_gradient(network.predict_proba(x), 0)
        network.forward(x)
        expected = np.array(network.backward_input(grad))
        # A Dense first layer runs its matmul straight into ``out``.
        assert isinstance(network.layers[0], Dense)
        out = np.empty_like(expected)
        assert network.backward_input(grad, out=out) is out
        assert out.tobytes() == expected.tobytes()
        # A parameter-free first layer copies its backward into ``out``.
        counter_net = NeuralNetwork([BackwardCounter()] + network.layers,
                                    n_classes=2)
        counter_net.forward(x)
        out = np.empty_like(expected)
        assert counter_net.backward_input(grad, out=out) is out
        assert out.tobytes() == expected.tobytes()


class TestEngineDtypeAgreement:
    def test_predictions_agree_across_dtypes(self):
        x = random_batch(12, n_samples=64, seed=11)
        network64 = NeuralNetwork.mlp([12, 16, 8, 2], random_state=12)
        with use_dtype("float32"):
            network32 = NeuralNetwork.mlp([12, 16, 8, 2], random_state=12)
        probs64 = network64.predict_proba(x)
        probs32 = network32.predict_proba(x.astype(np.float32))
        assert probs32.dtype == np.float32
        np.testing.assert_allclose(probs32, probs64, atol=1e-5)
        np.testing.assert_array_equal(network32.predict(x), network64.predict(x))

    def test_jacobians_agree_across_dtypes(self):
        x = random_batch(10, seed=13)
        network64 = NeuralNetwork.mlp([10, 8, 2], random_state=13)
        with use_dtype("float32"):
            network32 = NeuralNetwork.mlp([10, 8, 2], random_state=13)
        np.testing.assert_allclose(network32.class_gradients(x),
                                   network64.class_gradients(x), atol=1e-5)
