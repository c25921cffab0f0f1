"""Tests of the benchmark's own code: wrappers, span arithmetic, helpers, inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import argparse
import importlib
import time

import numpy as np
import pytest

from perfbench import measure, report, run, tracing
from perfbench.tracing import Span, StepClock, Tracer
from perfbench.workloads import WORKLOADS, Workload

from spikeff import dataio, network, predictor, trainer
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream


def _site_values():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracing.SITES
    }


def test_wrappers_installed_and_restored_by_identity():
    originals = _site_values()
    with tracing.tracing(Tracer()):
        inside = _site_values()
        assert all(inside[key] is not originals[key] for key in originals)
    after = _site_values()
    assert all(after[key] is originals[key] for key in originals)


def test_wrappers_restored_when_the_block_raises():
    originals = _site_values()
    with pytest.raises(KeyError):
        with tracing.tracing(Tracer()):
            raise KeyError("boom")
    assert all(_site_values()[key] is originals[key] for key in originals)


def test_step_clock_hook_restored():
    original = trainer.iter_batches
    with StepClock().installed():
        assert trainer.iter_batches is not original
    assert trainer.iter_batches is original


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, "trainer.train_epoch", 0.0, 10.0),
        _span(1, "network.forward_train", 1.0, 4.0, 0),
        _span(2, "layer.forward", 1.5, 3.0, 1),
        _span(3, "neuron.membrane_update", 2.0, 2.5, 2),
        _span(4, "layer.backward", 5.0, 9.0, 0),
        _span(5, "neuron.surrogate_grad", 5.5, 6.5, 4),
        _span(6, "neuron.surrogate_grad", 7.0, 8.5, 4),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx(
        {0: 10.0 - 3.0 - 4.0, 1: 3.0 - 1.5, 2: 1.5 - 0.5, 3: 0.5, 4: 4.0 - 2.5,
         5: 1.0, 6: 1.5}
    )
    t = tracing.totals(spans, selfs)
    assert t.calls["neuron.surrogate_grad"] == 2
    assert t.total["neuron.surrogate_grad"] == pytest.approx(2.5)


def test_module_table_shares_sum_to_one():
    tracer = Tracer()
    tracer.spans = [
        _span(0, "bench.train", 0.0, 12.0),
        _span(1, "trainer.train_epoch", 1.0, 11.0, 0),
        _span(2, "network.label_goodness", 2.0, 8.0, 1),
        _span(3, "layer.forward", 3.0, 7.0, 2),
    ]
    rows = report.module_table(tracer, "bench.train", "trainer.train_epoch", 2)
    assert [r[0] for r in rows] == ["trainer", "network", "layer"]
    assert [r[1] for r in rows] == pytest.approx([2.0, 1.0, 2.0])
    assert sum(r[2] for r in rows) == pytest.approx(1.0)


def test_tail_percentile():
    values = list(range(100, 0, -1))  # order must not matter
    assert measure.tail_percentile(values) == (90.0, 90, 100)
    assert measure.tail_percentile(list(range(1, 21))) == (50.0, 10, 20)
    assert measure.tail_percentile(list(range(1, 12))) == pytest.approx(
        (100.0 / 11, 1, 11)
    )
    # too few samples: no percentile leaves ten above it, report the maximum
    assert measure.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        measure.tail_percentile([])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_identical_for_a_seed(name):
    w = WORKLOADS[name]
    first = w.make_data(w, 7)
    second = w.make_data(w, 7)
    other = w.make_data(w, 8)
    for a, b, c in zip(first, second, other):
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.inputs, c.inputs)
    train, held_out = first
    assert (train.num_samples, held_out.num_samples) == (w.train_samples, w.eval_samples)


def test_static_inputs_have_the_stated_density():
    static = WORKLOADS["static-784"].make_data(WORKLOADS["static-784"], 1)[0]
    assert 0.17 < np.mean(static.inputs > 0) < 0.23


def _tiny_net(seed=3):
    cfg = NeuronConfig(decay_learnable=True)
    return network.build_network([6, 5], 8, 3, 4, cfg, RngStream(seed))


def test_traced_training_matches_untraced_and_links_spans():
    data = dataio.make_blob_dataset(16, input_dim=8, class_count=3, seed=1)
    config = trainer.TrainConfig(epochs=0, batch_size=8, eval_every=0)
    plain_net, traced_net = _tiny_net(), _tiny_net()
    plain = trainer.train_epoch(plain_net, data, config, RngStream(5))
    tracer = Tracer()
    tracer.register(traced_net)
    with tracing.tracing(tracer):
        traced = trainer.train_epoch(traced_net, data, config, RngStream(5))
        predictor.evaluate(traced_net, data)
    assert traced.total_loss == plain.total_loss
    for a, b in zip(plain_net.layers, traced_net.layers):
        assert np.array_equal(a.weights, b.weights)

    by_id = {sp.id: sp for sp in tracer.spans}
    for sp in tracer.spans:
        assert sp.end >= sp.start
        if sp.name == "layer.forward" and sp.attrs["mode"] == "train":
            assert by_id[sp.parent].name == "network.forward_train"
        if sp.name == "neuron.membrane_update":
            assert by_id[sp.parent].name == "layer.forward"
    layer_ids = {sp.attrs["layer"] for sp in tracer.spans if sp.name == "layer.backward"}
    assert layer_ids == {0, 1}
    counts = tracer.counts
    assert counts["network.label_goodness.rows"] == 3 * counts[
        "network.label_goodness.samples"
    ]
    steps = 2
    assert counts["trainer.negatives"] == 16
    assert sum(1 for sp in tracer.spans if sp.name == "trainer.sample_hard_labels") == steps
    # static rows: every layer-0 forward reuses one frame object
    assert counts["layer0.forward.shared"] == counts["layer0.forward.calls"]
    assert counts["layer1.forward.shared"] == 0


def test_step_clock_counts_every_step():
    data = dataio.make_blob_dataset(24, input_dim=8, class_count=3, seed=2)
    config = trainer.TrainConfig(epochs=0, batch_size=8, eval_every=0)
    clock = StepClock()
    with clock.installed():
        trainer.train_epoch(_tiny_net(), data, config, RngStream(0))
    assert clock.sizes == [8, 8, 8]
    assert len(clock.seconds) == 3 and all(s > 0 for s in clock.seconds)


def test_gate_passes_on_a_trained_network(tmp_path):
    data = dataio.make_blob_dataset(40, input_dim=8, class_count=3, seed=4)
    net = _tiny_net()
    config = trainer.TrainConfig(epochs=0, batch_size=8, eval_every=0)
    m = trainer.train_epoch(net, data, config, RngStream(1))
    loaded = measure.round_trip(net, tmp_path / "net.sffc")
    checks = measure.check_outputs(net, loaded, data, [m.total_loss])
    assert [c.ok for c in checks] == [True, True, True]
    # a perturbed reload is caught by the bit-identity check
    loaded.layers[0].gamma *= 3.0
    checks = measure.check_outputs(net, loaded, data, [m.total_loss, float("nan")])
    assert [c.ok for c in checks] == [True, False, False]


def _blob_data(w, seed):
    data = dataio.make_blob_dataset(48, input_dim=8, class_count=3, seed=seed)
    return data, dataio.subset(data, 24)


def test_interleaved_run_does_every_kind_of_work(tmp_path):
    tiny = Workload(
        name="tiny", hidden_sizes=(6, 5), neuron=NeuronConfig(), recurrent=False,
        timesteps=4, batch_size=8, train_samples=48, eval_samples=24, epochs=2,
        lr=1e-3, make_data=_blob_data,
    )
    args = argparse.Namespace(seed=1, seconds=1.0)
    start = time.perf_counter()
    setup_s, data_s, train, saved, ev = run.interleaved(tiny, args, tmp_path)
    assert time.perf_counter() - start < 2 * args.seconds
    assert len(setup_s) == len(data_s) > 1
    assert train.schedules > 1 and train.error is None
    assert len(ev.pass_seconds) > 1 and ev.error is None
    # the eval split gets about its share of the time, set-up about its own
    busy = sum(setup_s) + sum(train.step_seconds) + sum(ev.pass_seconds)
    assert 0.5 * run.SHARES["eval"] < sum(ev.pass_seconds) / busy < 1.5 * run.SHARES["eval"]
    assert sum(setup_s) / busy < 3 * run.SHARES["setup"]
    checks = measure.check_outputs(saved, ev.net, ev.held_out, train.epoch_losses)
    assert all(c.ok for c in checks)
