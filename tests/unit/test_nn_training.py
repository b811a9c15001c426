"""Tests for the Trainer, TrainingHistory and EarlyStopping."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.network import NeuralNetwork
from repro.nn.optimizers import Adam
from repro.nn.training import EarlyStopping, Trainer, TrainingHistory


class TestTrainerBasics:
    def test_fit_learns_separable_problem(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 16, 2], random_state=0)
        trainer = Trainer(network, optimizer=Adam(0.01), batch_size=32, epochs=25,
                          random_state=0)
        history = trainer.fit(x, y)
        assert history.train_accuracy[-1] > 0.95

    def test_history_lengths_match_epochs(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 8, 2], random_state=0)
        trainer = Trainer(network, epochs=5, batch_size=16, random_state=0)
        history = trainer.fit(x, y)
        assert history.epochs_run == 5
        assert len(history.train_loss) == 5

    def test_validation_curves_recorded(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 8, 2], random_state=0)
        trainer = Trainer(network, epochs=3, batch_size=16, random_state=0)
        history = trainer.fit(x[:120], y[:120], x[120:], y[120:])
        assert len(history.val_loss) == 3
        assert len(history.val_accuracy) == 3

    def test_loss_decreases_over_training(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 16, 2], random_state=1)
        trainer = Trainer(network, optimizer=Adam(0.01), epochs=20, batch_size=32,
                          random_state=1)
        history = trainer.fit(x, y)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_training_is_reproducible_with_same_seed(self, toy_classification):
        x, y = toy_classification

        def train_once():
            network = NeuralNetwork.mlp([12, 8, 2], random_state=7)
            Trainer(network, optimizer=Adam(0.01), epochs=4, batch_size=16,
                    random_state=3).fit(x, y)
            return network.predict_logits(x[:5])

        np.testing.assert_allclose(train_once(), train_once())

    def test_soft_labels_accepted(self, toy_classification):
        x, y = toy_classification
        soft = np.stack([1.0 - y, y.astype(float)], axis=1) * 0.8 + 0.1
        network = NeuralNetwork.mlp([12, 8, 2], random_state=0)
        history = Trainer(network, epochs=3, batch_size=16, random_state=0).fit(x, soft)
        assert history.epochs_run == 3

    def test_epoch_callback_invoked(self, toy_classification):
        x, y = toy_classification
        seen = []
        network = NeuralNetwork.mlp([12, 8, 2], random_state=0)
        Trainer(network, epochs=3, batch_size=32, random_state=0,
                epoch_callback=lambda epoch, history: seen.append(epoch)).fit(x, y)
        assert seen == [0, 1, 2]


class TestTrainerValidationErrors:
    def test_invalid_batch_size(self, small_mlp):
        with pytest.raises(ConfigurationError):
            Trainer(small_mlp, batch_size=0)

    def test_invalid_epochs(self, small_mlp):
        with pytest.raises(ConfigurationError):
            Trainer(small_mlp, epochs=0)

    def test_mismatched_targets(self, small_mlp):
        trainer = Trainer(small_mlp, epochs=1)
        with pytest.raises(ShapeError):
            trainer.fit(np.zeros((4, 12)), np.zeros(3, dtype=int))

    def test_val_monitor_without_val_data_raises(self, small_mlp):
        trainer = Trainer(small_mlp, epochs=1,
                          early_stopping=EarlyStopping(monitor="val_loss"))
        with pytest.raises(ConfigurationError):
            trainer.fit(np.zeros((4, 12)), np.zeros(4, dtype=int))


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0, monitor="train_loss")
        assert stopper.update(1.0) is False
        assert stopper.update(1.0) is False
        assert stopper.update(1.0) is True

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0, monitor="train_loss")
        stopper.update(1.0)
        stopper.update(0.9)
        stopper.update(0.95)
        assert stopper.update(0.8) is False

    def test_accuracy_monitor_maximizes(self):
        stopper = EarlyStopping(patience=1, monitor="train_accuracy")
        stopper.update(0.5)
        assert stopper.update(0.9) is False
        assert stopper.update(0.85) is True

    def test_invalid_monitor_rejected(self):
        with pytest.raises(ConfigurationError):
            EarlyStopping(monitor="val_f1")

    def test_trainer_stops_early(self, toy_classification):
        x, y = toy_classification
        network = NeuralNetwork.mlp([12, 16, 2], random_state=0)
        trainer = Trainer(network, optimizer=Adam(0.05), epochs=60, batch_size=32,
                          random_state=0,
                          early_stopping=EarlyStopping(patience=2, monitor="train_loss"))
        history = trainer.fit(x, y)
        assert history.epochs_run < 60


class TestTrainingHistory:
    def test_best_epoch_for_loss(self):
        history = TrainingHistory(train_loss=[1.0, 0.4, 0.6])
        assert history.best_epoch("train_loss") == 1

    def test_best_epoch_for_accuracy(self):
        history = TrainingHistory(train_loss=[1, 1, 1],
                                  train_accuracy=[0.5, 0.9, 0.8])
        assert history.best_epoch("train_accuracy") == 1

    def test_best_epoch_without_values_raises(self):
        with pytest.raises(ConfigurationError):
            TrainingHistory().best_epoch("val_loss")

    def test_as_dict_contains_all_curves(self):
        history = TrainingHistory(train_loss=[1.0], train_accuracy=[0.5])
        as_dict = history.as_dict()
        assert set(as_dict) == {"train_loss", "train_accuracy", "val_loss", "val_accuracy"}
