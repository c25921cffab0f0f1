import math

import numpy as np
import pytest

import spikeff.trainer as trainer_mod
from spikeff import dataio
from spikeff.errors import ConfigError, NumericError
from spikeff.network import build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import (
    TrainConfig,
    ff_loss,
    lr_schedule,
    metrics_csv_header,
    metrics_csv_row,
    sample_hard_labels,
    train,
    train_epoch,
    train_step,
)


def naive_loss(delta, alpha):
    """Direct transcription of the loss formula (overflows for large input)."""
    return -alpha * delta / (1.0 + math.exp(alpha * delta))


def blob_network(train_ds, seed=0, hidden=(32,), decay=0.99, lr=1e-3):
    cfg = NeuronConfig(threshold=1.0, decay=decay)
    return build_network(list(hidden), train_ds.input_dim, train_ds.class_count,
                         10, cfg, RngStream(seed), lr=lr)


class TestFFLoss:
    def test_zero_margin_zero_loss(self):
        loss, d_pos, d_neg = ff_loss(np.array([3.0, 7.0]), np.array([3.0, 7.0]), 0.6)
        assert loss == 0.0
        np.testing.assert_array_equal(d_pos, -d_neg)

    def test_worked_value(self):
        loss, _, _ = ff_loss(np.array([10.0]), np.array([0.0]), 0.6)
        assert loss == pytest.approx(-6.0 / (1.0 + math.exp(6.0)), abs=1e-15)
        assert loss == pytest.approx(-0.014836, abs=5e-7)

    def test_matches_naive_formula_where_finite(self):
        for alpha in (0.6, 1.0, 2.0):
            for delta in (-25.0, -3.0, -0.1, 0.2, 4.0, 25.0):
                loss, _, _ = ff_loss(np.array([delta]), np.array([0.0]), alpha)
                reference = naive_loss(delta, alpha)
                assert loss == pytest.approx(reference, rel=1e-12, abs=1e-300)

    def test_extreme_margins_stay_finite(self):
        loss_neg, d_pos, _ = ff_loss(np.array([-2000.0]), np.array([0.0]), 5.0)
        assert math.isfinite(loss_neg) and loss_neg == pytest.approx(10000.0)
        assert math.isfinite(d_pos[0])
        loss_pos, d_pos, _ = ff_loss(np.array([2000.0]), np.array([0.0]), 5.0)
        assert loss_pos == 0.0  # underflows cleanly, never overflows
        assert d_pos[0] == 0.0

    def test_sign_pattern(self):
        for alpha in (1.0, 2.0, 5.0):
            for delta in (0.5, 3.0, 18.0):
                pos, _, _ = ff_loss(np.array([delta]), np.array([0.0]), alpha)
                neg, _, _ = ff_loss(np.array([-delta]), np.array([0.0]), alpha)
                assert pos < 0.0 < neg

    def test_linear_asymptote_on_negative_side(self):
        for alpha in (1.0, 2.0, 5.0):
            loss, _, _ = ff_loss(np.array([-20.0]), np.array([0.0]), alpha)
            assert loss == pytest.approx(20.0 * alpha, rel=1e-2)

    def test_strictly_decreasing_up_to_the_dip(self):
        # the loss dips at alpha*delta ~ 1.2785 and then rises toward 0-;
        # strict decrease holds on the whole range left of the dip
        x_star = 1.27846454
        for alpha in (1.0, 2.0, 5.0):
            grid = np.linspace(-20.0, x_star / alpha, 2001)
            losses = [ff_loss(np.array([d]), np.array([0.0]), alpha)[0]
                      for d in grid]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_rises_after_the_dip(self):
        # consequence of the formula; the companion to the dip test above
        alpha = 5.0
        at_dip, _, _ = ff_loss(np.array([1.27846454 / alpha]), np.array([0.0]), alpha)
        later, _, _ = ff_loss(np.array([10.0]), np.array([0.0]), alpha)
        assert later > at_dip

    def test_gradient_matches_finite_differences(self):
        h = 3e-6
        for alpha in (1.0, 2.0, 5.0):
            deltas = np.linspace(-20.0, 20.0, 401)
            _, d_pos, d_neg = ff_loss(deltas, np.zeros_like(deltas), alpha)
            batch = deltas.size
            for i in range(0, batch, 25):
                up = naive_loss(deltas[i] + h, alpha)
                down = naive_loss(deltas[i] - h, alpha)
                numeric = (up - down) / (2 * h)
                assert d_pos[i] * batch == pytest.approx(numeric, abs=1e-8)
                assert d_neg[i] == -d_pos[i]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ff_loss(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            ff_loss(np.zeros(2), np.zeros(2), 0.0)


class TestHardLabels:
    def stub_scores(self, monkeypatch, scores):
        scores = np.asarray(scores, dtype=np.float64)
        monkeypatch.setattr(trainer_mod, "label_goodness",
                            lambda net, batch: scores.copy())

    def make_batch(self, labels, class_count=4):
        labels = np.asarray(labels)
        rows = np.tile(np.linspace(0.1, 0.9, 8), (labels.size, 1))
        return dataio.SampleBatch(rows, labels, 8)

    class FakeNet:
        class_count = 4
        timesteps = 10

    def test_draw_frequencies_match_sqrt_distribution(self, monkeypatch):
        draws = 20000
        self.stub_scores(monkeypatch,
                         np.tile([4.0, 1.0, 0.0, 9.0], (draws, 1)))
        batch = self.make_batch(np.full(draws, 2))
        labels = sample_hard_labels(self.FakeNet(), batch, RngStream(99))
        expected = np.array([1 / 3, 1 / 6, 0.0, 1 / 2])
        freq = np.bincount(labels, minlength=4) / draws
        assert freq[2] == 0.0
        for cls in (0, 1, 3):
            sigma = math.sqrt(expected[cls] * (1 - expected[cls]) / draws)
            assert abs(freq[cls] - expected[cls]) <= 3 * sigma

    def test_true_label_score_ignored(self, monkeypatch):
        # true label carries a huge score; it must still never be drawn
        self.stub_scores(monkeypatch, np.tile([1e9, 1.0, 1.0, 1.0], (500, 1)))
        batch = self.make_batch(np.zeros(500, dtype=np.int64))
        labels = sample_hard_labels(self.FakeNet(), batch, RngStream(1))
        assert (labels != 0).all()

    def test_all_zero_scores_fall_back_to_uniform(self, monkeypatch):
        draws = 12000
        self.stub_scores(monkeypatch, np.zeros((draws, 4)))
        batch = self.make_batch(np.full(draws, 1))
        labels = sample_hard_labels(self.FakeNet(), batch, RngStream(5))
        freq = np.bincount(labels, minlength=4) / draws
        assert freq[1] == 0.0
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        for cls in (0, 2, 3):
            assert abs(freq[cls] - 1 / 3) <= 3 * sigma

    def test_integration_never_returns_true_label(self):
        train_ds = dataio.make_blob_dataset(64, seed=0)
        net = blob_network(train_ds)
        batch = next(dataio.iter_batches(train_ds, 64, RngStream(0)))
        labels = sample_hard_labels(net, batch, RngStream(2))
        assert (labels != batch.labels).all()
        assert labels.min() >= 0 and labels.max() < train_ds.class_count

    def test_single_class_rejected(self):
        from spikeff.errors import UsageError

        class OneClassNet:
            class_count = 1
            timesteps = 10

        batch = self.make_batch(np.zeros(2, dtype=np.int64))
        with pytest.raises(UsageError, match="2 classes"):
            sample_hard_labels(OneClassNet(), batch, RngStream(0))


class TestLrSchedule:
    def config(self, **kw):
        defaults = dict(epochs=300, lr=0.001)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_default_milestones(self):
        cfg = self.config()
        assert lr_schedule(0, cfg) == pytest.approx(0.001)
        assert lr_schedule(149, cfg) == pytest.approx(0.001)
        assert lr_schedule(150, cfg) == pytest.approx(3e-4)
        assert lr_schedule(224, cfg) == pytest.approx(3e-4)
        assert lr_schedule(225, cfg) == pytest.approx(9e-5)

    def test_default_milestones_leave_the_first_epoch_at_the_full_rate(self):
        """A one-epoch run's 50% milestone rounds (half to even) to 0; it is
        clamped to 1, so the only epoch trains at the configured rate."""
        cfg = self.config(epochs=1)
        assert lr_schedule(0, cfg) == 0.001
        cfg = self.config(epochs=2)
        assert [lr_schedule(e, cfg) for e in range(2)] == [0.001, pytest.approx(3e-4)]

    def test_custom_milestones(self):
        cfg = self.config(lr_milestones=[2, 4, 6], lr_factors=[0.5, 0.5, 0.1])
        assert lr_schedule(1, cfg) == pytest.approx(0.001)
        assert lr_schedule(5, cfg) == pytest.approx(0.00025)
        assert lr_schedule(6, cfg) == pytest.approx(0.000025)

    def test_mismatched_factor_list(self):
        """Rejected when the config is made, not when the schedule runs."""
        for schedule in (dict(lr_milestones=[5], lr_factors=[0.5, 0.5]),
                         dict(lr_factors=[0.1]), dict(lr_milestones=[5])):
            with pytest.raises(ConfigError, match="lr_milestones/lr_factors"):
                self.config(**schedule)

    @pytest.mark.parametrize("factor", [-1.0, 0.0, float("nan")])
    def test_factor_not_above_zero_is_refused(self, factor):
        with pytest.raises(ConfigError, match="lr_factors: must be > 0"):
            self.config(lr_milestones=[2, 4], lr_factors=[0.5, factor])


class TestTrainLoop:
    def test_zero_epochs_is_a_noop(self):
        train_ds = dataio.make_blob_dataset(40, seed=0)
        net = blob_network(train_ds)
        before = [layer.weights.copy() for layer in net.layers]
        history = train(net, train_ds, TrainConfig(epochs=0, batch_size=16))
        assert history == []
        for layer, weights in zip(net.layers, before):
            assert layer.weights.tobytes() == weights.tobytes()

    def test_train_updates_at_the_scheduled_rate_of_each_epoch(self):
        """`train` with one milestone leaves the network bit-identical to
        `train_epoch` calls made at the scheduled rates."""
        train_ds = dataio.make_blob_dataset(32, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=16, eval_every=0,
                          lr_milestones=[1], lr_factors=[0.25])
        scheduled, by_hand, constant = (blob_network(train_ds) for _ in range(3))
        train(scheduled, train_ds, cfg)
        for net, rates in ((by_hand, [1e-3, 2.5e-4, 2.5e-4]),
                           (constant, [1e-3] * 3)):
            rng = RngStream(cfg.seed)
            for epoch, rate in enumerate(rates):
                net.lr = rate
                train_epoch(net, train_ds, cfg, rng, epoch=epoch)

        def tensor_bytes(net):
            return [t.tobytes() for layer in net.layers
                    for t in layer.stored_tensors().values()]

        assert tensor_bytes(scheduled) == tensor_bytes(by_hand)
        assert tensor_bytes(scheduled) != tensor_bytes(constant)

    def test_zero_lr_leaves_weights_bitwise_unchanged(self):
        """A zero Adam learning rate (`TrainConfig` takes only lr > 0, so
        it is set on the network) moves no weight bit."""
        train_ds = dataio.make_blob_dataset(32, seed=1)
        net = blob_network(train_ds)
        before = [layer.weights.copy() for layer in net.layers]
        net.lr = 0.0
        cfg = TrainConfig(epochs=1, batch_size=32, eval_every=0)
        metrics = train_epoch(net, train_ds, cfg, RngStream(cfg.seed))
        assert math.isfinite(metrics.total_loss)
        for layer, weights in zip(net.layers, before):
            assert layer.weights.tobytes() == weights.tobytes()

    def test_divergence_guard_names_layer_and_batch(self, monkeypatch):
        train_ds = dataio.make_blob_dataset(32, seed=1)
        net = blob_network(train_ds)

        def exploded(g_pos, g_neg, alpha):
            return 2e6, np.zeros_like(g_pos), np.zeros_like(g_pos)

        monkeypatch.setattr(trainer_mod, "ff_loss", exploded)
        with pytest.raises(NumericError, match="layer 0 .* batch 0"):
            train_epoch(net, train_ds, TrainConfig(epochs=1, batch_size=32),
                        RngStream(0))

    def test_a_non_finite_layer_1_weight_leaves_layer_0_updated(self, monkeypatch):
        """A step finishes each layer before the next one runs, so an error
        in layer 1's forward leaves layer 0 folded and updated by the batch,
        and layer 1 as it was. Scoring, which would meet the weight first,
        is replaced by a fixed draw of wrong labels."""
        train_ds = dataio.make_blob_dataset(32, seed=1)
        net = blob_network(train_ds, hidden=(8, 6))

        def wrong_labels(net, batch, rng):
            return (batch.labels + 1) % net.class_count

        monkeypatch.setattr(trainer_mod, "sample_hard_labels", wrong_labels)
        net.layers[1].weights[0, 0] = np.nan
        before = [{name: t.copy() for name, t in layer.stored_tensors().items()}
                  for layer in net.layers]
        batch = dataio.SampleBatch(train_ds.inputs, train_ds.labels,
                                   train_ds.input_dim)
        with pytest.raises(NumericError, match="non-finite drive at timestep 0"):
            train_step(net, batch, TrainConfig(epochs=1, batch_size=32),
                       RngStream(0))

        first, second = net.layers
        assert first.batches_tracked == 2  # both passes folded
        assert {state.step for state in first.adam.values()} == {1}
        for name, tensor in before[0].items():  # every tensor moved
            assert not np.array_equal(getattr(first, name), tensor), name
        assert second.batches_tracked == 0
        assert {state.step for state in second.adam.values()} == {0}
        assert all(state.first_moment is None and state.second_moment is None
                   for state in second.adam.values())
        for name, tensor in before[1].items():
            assert getattr(second, name).tobytes() == tensor.tobytes(), name

    def test_first_step_makes_each_tensors_moments(self):
        train_ds = dataio.make_blob_dataset(32, seed=1)
        net = blob_network(train_ds, hidden=(8, 6))
        batch = dataio.SampleBatch(train_ds.inputs, train_ds.labels,
                                   train_ds.input_dim)
        states = [state for layer in net.layers for state in layer.adam.values()]
        assert all(state.first_moment is None for state in states)
        train_step(net, batch, TrainConfig(epochs=1, batch_size=32),
                   RngStream(0))
        for layer in net.layers:
            assert set(layer.adam) == set(layer.trainable_tensors())
            for name, tensor in layer.trainable_tensors().items():
                state = layer.adam[name]
                assert state.step == 1, name
                assert state.first_moment.shape == tensor.shape, name
                assert state.second_moment.shape == tensor.shape, name
                assert np.any(state.first_moment != 0), name

    def test_single_sample_final_batch_skipped(self):
        train_ds = dataio.make_blob_dataset(33, seed=2)
        net = blob_network(train_ds)
        metrics = train_epoch(net, train_ds, TrainConfig(epochs=1, batch_size=16),
                              RngStream(0))
        assert math.isfinite(metrics.total_loss)

    def test_fixed_seed_identical_metrics(self):
        def run():
            train_ds = dataio.make_blob_dataset(80, seed=4)
            net = blob_network(train_ds, seed=7)
            cfg = TrainConfig(epochs=3, batch_size=16, seed=11)
            return train(net, train_ds, cfg, eval_dataset=train_ds)

        rows_a = [metrics_csv_row(m) for m in run()]
        rows_b = [metrics_csv_row(m) for m in run()]
        assert rows_a == rows_b

    @pytest.mark.parametrize("eval_every,evaluated", [
        (0, [4]), (1, [0, 1, 2, 3, 4]), (2, [0, 2, 4]), (3, [0, 3, 4]),
    ])
    def test_eval_schedule(self, eval_every, evaluated):
        train_ds = dataio.make_blob_dataset(20, seed=1)
        net = blob_network(train_ds, hidden=(4,))
        cfg = TrainConfig(epochs=5, batch_size=20, eval_every=eval_every)
        history = train(net, train_ds, cfg, eval_dataset=train_ds)
        assert [m.epoch for m in history if m.train_accuracy is not None] == evaluated
        assert [m.epoch for m in history if m.test_accuracy is not None] == evaluated

    def test_negative_eval_every_rejected(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(epochs=1, eval_every=-1)

    def test_blobs_reach_train_accuracy(self):
        train_ds = dataio.make_blob_dataset(400, seed=1)
        net = blob_network(train_ds, seed=0)
        cfg = TrainConfig(epochs=30, batch_size=32, seed=0, eval_every=0)
        history = train(net, train_ds, cfg)
        assert history[-1].train_accuracy >= 0.95

    def test_loss_falls_and_goodness_separates(self):
        train_ds = dataio.make_blob_dataset(300, seed=3)
        net = blob_network(train_ds, seed=1)
        cfg = TrainConfig(epochs=12, batch_size=32, seed=5, eval_every=0)
        history = train(net, train_ds, cfg)
        assert history[-1].total_loss < history[0].total_loss
        final = history[-1]
        for g_pos, g_neg in zip(final.layer_goodness_pos,
                                final.layer_goodness_neg):
            assert g_pos > g_neg

    def test_metrics_csv_layout(self):
        header = metrics_csv_header(2)
        assert header.split(",") == [
            "epoch", "loss_layer0", "loss_layer1", "loss_total",
            "train_acc", "test_acc", "gpos_layer0", "gpos_layer1",
            "gneg_layer0", "gneg_layer1",
        ]
        metric = trainer_mod.EpochMetrics(
            epoch=2, layer_losses=[0.5, 0.25], total_loss=0.75,
            train_accuracy=None, test_accuracy=0.5, seconds=1.0,
            layer_goodness_pos=[1.0, 2.0], layer_goodness_neg=[0.5, 0.25],
        )
        row = metrics_csv_row(metric)
        assert row.split(",")[0] == "2"
        assert row.split(",")[4] == ""  # unevaluated accuracy stays empty

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            trainer_mod.EpochMetrics(0, [0.0], 0.0, 1.5, None, 0.0, [0.0], [0.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, loss_sharpness=0.0)
        with pytest.raises(ConfigError, match="lr: must be > 0"):
            TrainConfig(epochs=4, lr=-1.0)
