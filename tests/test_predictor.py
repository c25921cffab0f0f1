import math

import numpy as np
import pytest

from spikeff import dataio, numerics, predictor
from spikeff.errors import UsageError
from spikeff.layer import init_layer
from spikeff.network import FFNetwork, build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.predictor import evaluate, score_dataset, score_labels
from spikeff.trainer import TrainConfig, train


def zero_network(input_dim=6, class_count=3, n_out=2, timesteps=4):
    """All-zero weights, populated default stats: every overlay scores 0."""
    cfg = NeuronConfig(threshold=1.0, decay=0.9)
    layer = init_layer(input_dim, n_out, timesteps, cfg, RngStream(0))
    layer.weights[:] = 0.0
    layer.batches_tracked = 1
    return FFNetwork([layer], class_count)


def crafted_network():
    """Single layer where only the class-2 label channel drives the neurons.

    The class-2 overlay injects constant drive m (the row max); with subtract
    reset, decay 0.5, threshold 1.0 and T=2 the membrane crosses threshold
    exactly once for any m in [2/3, 1], so counts are [1, 1], the class-2
    score is 1.0, and every other overlay scores 0.
    """
    input_dim, class_count, timesteps = 6, 4, 2
    cfg = NeuronConfig(threshold=1.0, decay=0.5)
    layer = init_layer(input_dim, 2, timesteps, cfg, RngStream(0))
    layer.weights[:] = 0.0
    layer.weights[:, 2] = 1.0
    # make eval normalization the identity: (z - 0)/sqrt((1-eps)+eps) = z
    layer.running_mean[:] = 0.0
    layer.running_var[:] = 1.0 - layer.eps
    layer.batches_tracked = 1
    return FFNetwork([layer], class_count)


def batch_of(rows, labels, timesteps=1):
    rows = np.asarray(rows, dtype=np.float64)
    return dataio.SampleBatch(rows, np.asarray(labels),
                              rows.shape[1] // timesteps, timesteps)


class TestScoreLabels:
    def test_zero_network_predicts_class_zero_by_tie_break(self):
        net = zero_network()
        batch = batch_of([[0.3, 0.1, 0.9, 0.2, 0.5, 0.4]], [1])
        result = score_labels(net, batch)
        np.testing.assert_array_equal(result.scores, np.zeros((1, 3)))
        assert result.predicted[0] == 0

    def test_crafted_network_prefers_class_two(self):
        net = crafted_network()
        batch = batch_of([[0.0, 0.0, 0.0, 0.0, 1.0, 0.5]], [0])
        result = score_labels(net, batch)
        np.testing.assert_allclose(result.scores[0], [0.0, 0.0, 1.0, 0.0],
                                   atol=1e-12)
        assert result.predicted[0] == 2

    def test_batch_scoring_equals_per_sample(self):
        train_ds = dataio.make_blob_dataset(120, seed=0)
        net = build_network([16], train_ds.input_dim, train_ds.class_count, 10,
                            NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
        train(net, train_ds, TrainConfig(epochs=1, batch_size=32, eval_every=0))
        rows = train_ds.inputs[:9]
        labels = train_ds.labels[:9]
        full = score_labels(net, batch_of(rows, labels))
        for i in range(9):
            alone = score_labels(net, batch_of(rows[i : i + 1], labels[i : i + 1]))
            np.testing.assert_allclose(alone.scores[0], full.scores[i], atol=1e-10)
            assert alone.predicted[0] == full.predicted[i]

    def test_deterministic(self):
        net = crafted_network()
        batch = batch_of([[0.2, 0.8, 0.1, 0.0, 0.9, 0.3]], [1])
        a = score_labels(net, batch).scores
        b = score_labels(net, batch).scores
        assert a.tobytes() == b.tobytes()

    def test_prediction_invariant_under_positive_rescaling(self):
        rng = RngStream(3)
        scores = rng.uniform((10, 4))
        predicted = np.argmax(scores, axis=1)
        np.testing.assert_array_equal(np.argmax(scores * 7.3, axis=1), predicted)

    def test_exactly_c_eval_passes_per_sample(self):
        net = crafted_network()
        batch = batch_of(RngStream(4).uniform((5, 6)), [0, 1, 2, 3, 0])
        net.eval_rows = 0
        score_labels(net, batch)
        assert net.eval_rows == net.class_count * 5

    @pytest.mark.parametrize("timesteps", [1, 2])
    def test_empty_batch_scores_nothing(self, timesteps):
        net = zero_network(input_dim=6, timesteps=2)
        batch = batch_of(np.zeros((0, 6 * timesteps)), np.zeros(0, int),
                         timesteps)
        result = score_labels(net, batch)
        assert result.scores.shape == (0, net.class_count)
        assert result.predicted.shape == (0,)

    def test_unpopulated_stats_rejected(self):
        net = zero_network()
        net.layers[0].batches_tracked = 0
        batch = batch_of([[0.1] * 6], [0])
        with pytest.raises(UsageError, match="train"):
            score_labels(net, batch)


class TestEvaluate:
    def test_forced_correct_predictions_score_one(self):
        net = crafted_network()
        # with row maxima in (0.7, 1.0) the class-2 overlay integrates past
        # threshold inside T=2 while every other overlay stays silent, so
        # label-2 samples are always predicted correctly
        rng = RngStream(5)
        ds = dataio.Dataset(rng.uniform((12, 6), 0.7, 1.0),
                            np.full(12, 2, dtype=np.int64), 4, 6)
        assert evaluate(net, ds) == 1.0

    def test_matches_independent_recount(self):
        train_ds = dataio.make_blob_dataset(150, seed=0)
        net = build_network([16], train_ds.input_dim, train_ds.class_count, 10,
                            NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
        train(net, train_ds, TrainConfig(epochs=2, batch_size=32, eval_every=0))
        accuracy = evaluate(net, train_ds, batch_size=64)
        correct = 0
        for i in range(train_ds.num_samples):
            row = batch_of(train_ds.inputs[i : i + 1], train_ds.labels[i : i + 1])
            if score_labels(net, row).predicted[0] == train_ds.labels[i]:
                correct += 1
        assert accuracy == pytest.approx(correct / train_ds.num_samples, abs=1e-12)

    def test_uninformative_network_near_chance_on_balanced_labels(self):
        # random untrained weights + labels independent of the inputs:
        # accuracy must sit within binomial 3-sigma of 1/c
        rng = RngStream(6)
        input_dim, classes, n = 10, 4, 1200
        ds = dataio.Dataset(rng.uniform((n, input_dim)),
                            np.tile(np.arange(classes), n // classes),
                            classes, input_dim)
        net = build_network([8], input_dim, classes, 6,
                            NeuronConfig(threshold=1.0, decay=0.9), RngStream(7))
        train(net, ds, TrainConfig(epochs=0, batch_size=64))
        for layer in net.layers:
            layer.batches_tracked = 1  # default stats, no training signal
        accuracy = evaluate(net, ds)
        sigma = math.sqrt((1 / classes) * (1 - 1 / classes) / n)
        assert abs(accuracy - 1 / classes) <= 3 * sigma

    def test_empty_dataset_rejected(self):
        net = zero_network()
        empty = dataio.Dataset(np.zeros((0, 6)), np.zeros(0, np.int64), 3, 6)
        with pytest.raises(UsageError, match="empty"):
            evaluate(net, empty)

    @pytest.mark.parametrize("score", [evaluate, score_dataset])
    @pytest.mark.parametrize("refusal,batch_size,match", [
        ("empty", 256, "empty"),
        ("unpopulated", 256, "train"),
        ("batch", 0, "batch_size must be >= 1"),
        ("batch", -3, "batch_size must be >= 1"),
    ])
    def test_refused_before_any_share_starts(self, monkeypatch, score,
                                             refusal, batch_size, match):
        # a batch size of 0 ended in a bare ValueError, and one of -3
        # scored nothing and read 0.0
        train_ds = dataio.make_blob_dataset(600, seed=0)
        net = build_network([16], train_ds.input_dim, train_ds.class_count, 4,
                            NeuronConfig(threshold=1.0, decay=0.9), RngStream(1))
        train(net, train_ds, TrainConfig(epochs=1, batch_size=32, eval_every=0))
        if refusal == "empty":
            train_ds = dataio.subset(train_ds, 0)
        if refusal == "unpopulated":
            net.layers[0].batches_tracked = 0
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)

        def no_share(*args):
            raise AssertionError("a share started")

        monkeypatch.setattr(predictor, "_score_share", no_share)
        with pytest.raises(UsageError, match=match):
            score(net, train_ds, batch_size)
