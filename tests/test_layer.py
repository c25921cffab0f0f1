import tracemalloc

import numpy as np
import pytest

from spikeff import dataio
from spikeff.errors import ShapeError, UsageError
from spikeff.layer import (
    LayerForwardTrace,
    fold_running_stats,
    goodness,
    init_layer,
    layer_backward,
    layer_forward,
    overlay_correction,
    parameter_counts,
    product,
)
from spikeff.network import build_network, forward_train
from spikeff.neuron import (
    NeuronConfig,
    effective_decay,
    raw_decay_for,
    sigmoid,
    surrogate_grad,
)
from spikeff.numerics import RngStream

from oracles import drives, overlaid_rows, products, scalar_layer_forward


def make_layer(n_in=3, n_out=4, timesteps=3, seed=0, **cfg_kwargs):
    defaults = dict(threshold=1.0, decay=0.9)
    defaults.update(cfg_kwargs)
    recurrent = defaults.pop("recurrent", False)
    cfg = NeuronConfig(**defaults)
    return init_layer(n_in, n_out, timesteps, cfg, RngStream(seed),
                      recurrent=recurrent)


def trace_with_counts(counts, timesteps):
    counts = np.asarray(counts, dtype=np.float64)
    return LayerForwardTrace(
        mode="eval", counts=counts, mu=np.zeros((timesteps, counts.shape[1])),
        var=np.ones((timesteps, counts.shape[1])), spikes=[],
    )


class TestForward:
    def test_identical_rows_give_zero_normalized_drive(self):
        layer = make_layer(n_in=3, n_out=2, timesteps=2)
        row = np.array([[0.4, 0.2, 0.9]])
        frames = [np.vstack([row, row])] * 2
        trace = layer_forward(layer, frames, "train")
        # variance 0 + eps guard: xhat == 0, drive == shift == 0
        for t in range(2):
            np.testing.assert_allclose(drives(trace, layer)[t], 0.0, atol=1e-12)
        np.testing.assert_array_equal(trace.counts, np.zeros((2, 2)))

    def test_zero_weights_zero_goodness(self):
        layer = make_layer(n_in=4, n_out=3, timesteps=3)
        layer.weights[:] = 0.0
        frames = [RngStream(1).uniform((5, 4))] * 3
        trace = layer_forward(layer, frames, "train")
        np.testing.assert_array_equal(trace.counts, np.zeros((5, 3)))
        np.testing.assert_array_equal(goodness(trace), np.zeros(5))

    def test_matches_scalar_oracle(self):
        rng = RngStream(123)
        for case in range(6):
            t_steps = int(rng.integers(1, 5))
            layer = make_layer(
                n_in=int(rng.integers(1, 5)),
                n_out=int(rng.integers(1, 5)),
                timesteps=t_steps,
                seed=200 + case,
                decay=0.8,
                decay_learnable=bool(case % 2),
                reset_mode="zero" if case % 3 == 0 else "subtract",
                recurrent=bool(case in (4, 5)),
            )
            batch = int(rng.integers(2, 6))
            frames = [rng.normal((batch, layer.n_in)) for _ in range(t_steps)]
            trace = layer_forward(layer, frames, "train")
            oracle = scalar_layer_forward(layer, frames)
            z, drive = products(trace, layer), drives(trace, layer)
            for t in range(t_steps):
                np.testing.assert_allclose(
                    z[t], oracle["pre_norm"][t], atol=1e-10)
                np.testing.assert_allclose(trace.mu[t], oracle["mu"][t], atol=1e-10)
                np.testing.assert_allclose(trace.var[t], oracle["var"][t], atol=1e-10)
                np.testing.assert_allclose(
                    drive[t], oracle["normalized"][t], atol=1e-10)
                np.testing.assert_allclose(
                    trace.membranes[t], oracle["membranes"][t], atol=1e-10)
                np.testing.assert_array_equal(trace.spikes[t], oracle["spikes"][t])
            np.testing.assert_allclose(trace.counts, oracle["counts"], atol=1e-12)
            np.testing.assert_allclose(goodness(trace), oracle["goodness"], atol=1e-10)

    def test_counts_are_sums_of_spikes(self):
        layer = make_layer(timesteps=4)
        frames = [RngStream(7).normal((6, 3), scale=2.0) for _ in range(4)]
        trace = layer_forward(layer, frames, "train")
        np.testing.assert_array_equal(trace.counts, sum(trace.spikes))

    def test_spike_bounds_properties(self):
        rng = RngStream(55)
        for _ in range(50):
            t_steps = int(rng.integers(1, 6))
            layer = make_layer(
                n_in=int(rng.integers(1, 6)), n_out=int(rng.integers(1, 6)),
                timesteps=t_steps, seed=int(rng.integers(0, 1000)),
            )
            batch = int(rng.integers(2, 8))
            frames = [rng.normal((batch, layer.n_in), scale=3.0)
                      for _ in range(t_steps)]
            trace = layer_forward(layer, frames, "train")
            assert set(np.unique(np.concatenate(trace.spikes))) <= {0.0, 1.0}
            assert trace.counts.min() >= 0 and trace.counts.max() <= t_steps
            g = goodness(trace)
            assert (g >= 0).all() and (g <= t_steps**2).all()

    def test_train_mode_normalization_statistics(self):
        layer = make_layer(n_in=8, n_out=6, timesteps=3)
        frames = [RngStream(3).normal((64, 8)) for _ in range(3)]
        trace = layer_forward(layer, frames, "train")
        z = products(trace, layer)
        for t in range(3):
            inv = 1.0 / np.sqrt(trace.var[t] + layer.eps)
            xhat = (z[t] - trace.mu[t]) * inv
            assert np.abs(xhat.mean(axis=0)).max() <= 1e-6
            assert np.abs(xhat.var(axis=0) - 1.0).max() <= 1e-4

    def test_eval_batch_size_independence(self):
        layer = make_layer(n_in=5, n_out=4, timesteps=3, seed=9)
        rng = RngStream(10)
        # populate running stats
        for _ in range(5):
            fold_running_stats(
                layer, layer_forward(layer, [rng.normal((16, 5))] * 3, "train"))
        batch = rng.normal((8, 5))
        full = layer_forward(layer, [batch] * 3, "eval")
        for i in range(8):
            alone = layer_forward(layer, [batch[i : i + 1]] * 3, "eval")
            np.testing.assert_allclose(alone.counts[0], full.counts[i], atol=1e-10)
            for t in range(3):
                np.testing.assert_allclose(
                    alone.membranes[t][0], full.membranes[t][i], atol=1e-10)

    def test_eval_does_not_mutate_layer(self):
        layer = make_layer()
        before_mean = layer.running_mean.copy()
        before_tracked = layer.batches_tracked
        layer_forward(layer, [RngStream(1).normal((4, 3))] * 3, "eval")
        np.testing.assert_array_equal(layer.running_mean, before_mean)
        assert layer.batches_tracked == before_tracked

    def test_train_updates_running_stats(self):
        layer = make_layer()
        trace = layer_forward(layer, [RngStream(2).normal((8, 3))] * 3, "train")
        # the pass leaves the layer as it was; the fold takes its statistics
        assert layer.batches_tracked == 0
        assert np.array_equal(layer.running_mean, np.zeros((3, 4)))
        fold_running_stats(layer, trace)
        assert layer.batches_tracked == 1
        assert not np.allclose(layer.running_mean, 0.0)
        np.testing.assert_array_equal(layer.running_mean, 0.1 * trace.mu)
        np.testing.assert_array_equal(layer.running_var,
                                      1.0 + 0.1 * (trace.var - 1.0))
        eval_trace = layer_forward(layer, [RngStream(2).normal((8, 3))] * 3,
                                   "eval")
        with pytest.raises(UsageError, match="train-mode"):
            fold_running_stats(layer, eval_trace)
        assert layer.batches_tracked == 1

    def test_same_seed_identical_traces(self):
        def run():
            layer = make_layer(seed=77)
            frames = [RngStream(78).normal((4, 3)) for _ in range(3)]
            trace = layer_forward(layer, frames, "train")
            return trace
        a, b = run(), run()
        assert a.counts.tobytes() == b.counts.tobytes()
        for t in range(3):
            assert a.membranes[t].tobytes() == b.membranes[t].tobytes()

    def test_static_shared_frame_path_matches_distinct_frames(self):
        layer_shared = make_layer(seed=31, timesteps=3)
        layer_plain = make_layer(seed=31, timesteps=3)
        base = RngStream(32).normal((6, 3))
        shared_trace = layer_forward(layer_shared, [base] * 3, "train")
        plain_trace = layer_forward(layer_plain, [base.copy() for _ in range(3)],
                                    "train")
        assert shared_trace.counts.tobytes() == plain_trace.counts.tobytes()
        assert shared_trace.mu.tobytes() == plain_trace.mu.tobytes()
        assert shared_trace.var.tobytes() == plain_trace.var.tobytes()

    def test_errors(self):
        layer = make_layer(timesteps=2)
        with pytest.raises(UsageError, match="at least 2"):
            layer_forward(layer, [np.ones((1, 3))] * 2, "train")
        with pytest.raises(ShapeError, match="T=2"):
            layer_forward(layer, [np.ones((4, 3))] * 3, "train")
        with pytest.raises(ShapeError):
            layer_forward(layer, [np.ones((4, 5))] * 2, "train")
        with pytest.raises(UsageError, match="mode"):
            layer_forward(layer, [np.ones((4, 3))] * 2, "predict")


class TestGoodness:
    def test_hand_example(self):
        trace = trace_with_counts([[2.0, 0.0, 1.0]], timesteps=3)
        assert goodness(trace)[0] == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_zero_counts(self):
        trace = trace_with_counts(np.zeros((4, 6)), timesteps=2)
        np.testing.assert_array_equal(goodness(trace), np.zeros(4))

    def test_saturated_counts_reach_square_bound(self):
        trace = trace_with_counts(np.full((2, 7), 10.0), timesteps=10)
        np.testing.assert_array_equal(goodness(trace), [100.0, 100.0])


class TestBackward:
    def test_zero_seed_gives_zero_gradients(self):
        layer = make_layer(decay_learnable=True, recurrent=True)
        frames = [RngStream(4).normal((5, 3)) for _ in range(3)]
        trace = layer_forward(layer, frames, "train")
        grads = layer_backward(layer, trace, np.zeros(5))
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)

    def test_single_neuron_single_step_hand_derivation(self):
        # T=1, N=1: G = C^2, dG/dW = 2*C*sigma'(U)*dU/dW with the batch-norm
        # chain folded into dU/dW. Hand formula below re-derives it directly.
        layer = make_layer(n_in=2, n_out=1, timesteps=1, seed=5)
        x = np.array([[0.8, 0.1], [0.2, 0.7], [0.5, 0.9], [0.1, 0.3]])
        trace = layer_forward(layer, [x], "train")
        seed = np.array([1.0, 0.5, -0.25, 2.0])
        # read before the backward, which consumes the trace
        z = products(trace, layer)[0][:, 0].copy()
        mu, var = trace.mu[0][0], trace.var[0][0]
        u = trace.membranes[0][:, 0].copy()
        counts = trace.counts[:, 0].copy()
        grads = layer_backward(layer, trace, seed)

        inv = 1.0 / np.sqrt(var + layer.eps)
        xhat = (z - mu) * inv
        # dL/dU per sample (N=1: dG/dC = 2C)
        du = seed * 2.0 * counts * surrogate_grad(u[:, None], layer.neuron)[:, 0]
        b = x.shape[0]
        dz = (inv / b) * (b * du * layer.gamma[0][0]
                          - (du * layer.gamma[0][0]).sum()
                          - xhat * (du * layer.gamma[0][0] * xhat).sum())
        expected_dw = dz @ x
        np.testing.assert_allclose(grads["weights"][0], expected_dw, atol=1e-12)
        np.testing.assert_allclose(grads["gamma"][0, 0], (du * xhat).sum(),
                                   atol=1e-12)
        np.testing.assert_allclose(grads["shift"][0, 0], du.sum(), atol=1e-12)

    def test_requires_train_mode_trace(self):
        layer = make_layer(seed=6)
        for _ in range(2):
            fold_running_stats(
                layer, layer_forward(layer, [RngStream(6).normal((4, 3))] * 3, "train"))
        eval_trace = layer_forward(layer, [RngStream(7).normal((4, 3))] * 3, "eval")
        with pytest.raises(UsageError, match="train-mode"):
            layer_backward(layer, eval_trace, np.zeros(4))

    def test_seed_shape_checked(self):
        layer = make_layer(seed=6)
        trace = layer_forward(layer, [RngStream(9).normal((4, 3))] * 3, "train")
        with pytest.raises(ShapeError):
            layer_backward(layer, trace, np.zeros(5))


def per_timestep_backward(layer, trace, frames, pre_norm, dgoodness):
    """The per-timestep form of `layer_backward`: the full batch-norm
    backward and one weight-gradient GEMM per timestep, summed."""
    batch, n = trace.counts.shape
    cfg = layer.neuron
    beta = effective_decay(layer.decay_raw, cfg)
    zero_reset = cfg.reset_mode == "zero"
    d_counts = (2.0 / n) * trace.counts * dgoodness[:, None]
    d_weights = np.zeros_like(layer.weights)
    d_gamma = np.zeros_like(layer.gamma)
    d_shift = np.zeros_like(layer.shift)
    d_beta = np.zeros(n)
    d_rec = np.zeros((n, n))
    du_next = None
    for t in reversed(range(layer.timesteps)):
        d_spike = d_counts.copy()
        if layer.recurrent is not None and du_next is not None:
            d_spike += du_next @ layer.recurrent.T
        du = d_spike * surrogate_grad(trace.membranes[t], cfg)
        if du_next is not None:
            carry = beta * (1.0 - trace.spikes[t]) if zero_reset else beta
            du = du + du_next * carry
        if t > 0:
            prev_mem, prev_spk = trace.membranes[t - 1], trace.spikes[t - 1]
            path = prev_mem * (1.0 - prev_spk) if zero_reset else prev_mem
            d_beta += (du * path).sum(axis=0)
            d_rec += prev_spk.T @ du
        inv_std = 1.0 / np.sqrt(trace.var[t] + layer.eps)
        xhat = (pre_norm[t] - trace.mu[t]) * inv_std
        d_gamma[t] = (du * xhat).sum(axis=0)
        d_shift[t] = du.sum(axis=0)
        d_xhat = du * layer.gamma[t]
        dz = (inv_std / batch) * (
            batch * d_xhat
            - d_xhat.sum(axis=0)
            - xhat * (d_xhat * xhat).sum(axis=0)
        )
        d_weights += dz.T @ frames[t]
        du_next = du
    grads = {"weights": d_weights, "gamma": d_gamma, "shift": d_shift}
    if layer.decay_raw is not None:
        sig = sigmoid(layer.decay_raw)
        grads["decay_raw"] = d_beta * sig * (1.0 - sig)
    if layer.recurrent is not None:
        grads["recurrent"] = d_rec
    return grads


def input_frames(kind, batch, n_in, t_steps, rng):
    """T input frames: one shared object, distinct arrays, or the per-timestep
    column blocks of temporal rows."""
    if kind == "shared":
        return [rng.normal((batch, n_in))] * t_steps
    if kind == "stacked":
        return [rng.normal((batch, n_in)) for _ in range(t_steps)]
    rows = rng.normal((batch, t_steps * n_in))
    return dataio.time_frames(rows, n_in, t_steps, t_steps)


class TestBackwardForm:
    @pytest.mark.parametrize("kind", ["shared", "stacked", "temporal"])
    @pytest.mark.parametrize("recurrent", [False, True])
    @pytest.mark.parametrize("learnable", [False, True])
    @pytest.mark.parametrize("reset_mode", ["subtract", "zero"])
    def test_matches_per_timestep_formula(self, reset_mode, learnable,
                                          recurrent, kind):
        layer = make_layer(n_in=7, n_out=5, timesteps=4, seed=11, decay=0.85,
                           threshold=0.7, reset_mode=reset_mode,
                           decay_learnable=learnable, recurrent=recurrent)
        rng = RngStream(12)
        frames = input_frames(kind, 9, 7, 4, rng)
        trace = layer_forward(layer, frames, "train")
        assert trace.counts.max() > 0
        dgoodness = rng.normal(9)
        expected = per_timestep_backward(
            layer, trace, [np.array(f) for f in frames],
            np.array(products(trace, layer)), dgoodness,
        )
        grads = layer_backward(layer, trace, dgoodness)
        assert grads.keys() == expected.keys()
        for name, want in expected.items():
            scale = np.abs(want).max()
            assert scale > 0, name
            assert np.abs(grads[name] - want).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("kind", ["shared", "stacked", "temporal", "overlaid"])
    def test_backward_consumes_any_trace(self, kind):
        # the gradients are written over the membranes and counts, so any
        # trace is backpropagated once
        if kind == "overlaid":
            layer, frames, _ = overlay_case(False, 2)
        else:
            layer = make_layer(seed=13)
            frames = input_frames(kind, 6, 3, 3, RngStream(1))
        trace = layer_forward(layer, frames, "train")
        batch = len(trace.counts)
        layer_backward(layer, trace, np.ones(batch))
        assert trace.membranes is None and trace.counts is None
        assert trace.inputs is None
        with pytest.raises(UsageError, match="consumed"):
            layer_backward(layer, trace, np.ones(batch))


class TestTraceLayout:
    @pytest.mark.parametrize("temporal", [False, True])
    def test_spikes_are_one_stacked_array_fed_to_the_next_layer(self, temporal):
        t_steps, batch = 4, 6
        net = build_network([5, 3], 8, 2, t_steps, NeuronConfig(threshold=0.5),
                            RngStream(3))
        rows = RngStream(4).uniform((batch, 8 * (t_steps if temporal else 1)))
        frames = dataio.time_frames(rows, 8, t_steps if temporal else 1, t_steps)
        traces = forward_train(net.layers, frames)
        for trace, layer in zip(traces, net.layers):
            for name in ("spikes", "membranes", "inputs"):
                array = getattr(trace, name)
                n = layer.n_in if name == "inputs" else layer.n_out
                assert isinstance(array, np.ndarray), name
                assert array.shape == (t_steps, batch, n), name
            assert trace.spikes.flags.c_contiguous
            assert trace.membranes.flags.c_contiguous
            # only a static layer 0 stores its one product
            assert (trace.shared_product is not None) is trace.shared
        # layer 0's inputs are the batch rows, not a copy: a broadcast of
        # the static frame, or a timestep-major view of the temporal rows
        first = traces[0].inputs
        assert np.shares_memory(first, rows) and not first.flags.c_contiguous
        timestep_major = rows.reshape(batch, -1, 8).transpose(1, 0, 2)
        assert np.array_equal(first, np.broadcast_to(timestep_major, first.shape))
        assert traces[1].inputs is traces[0].spikes
        assert traces[0].shared is not temporal and not traces[1].shared

    def test_spikes_are_bool(self):
        layer = make_layer(n_in=5, n_out=4, timesteps=3, seed=5, threshold=0.6)
        frames = input_frames("stacked", 6, 5, 3, RngStream(6))
        trace = layer_forward(layer, frames, "train")
        assert trace.spikes.dtype == np.bool_
        assert trace.spikes.shape == (3, 6, 4)
        np.testing.assert_array_equal(trace.counts, trace.spikes.sum(axis=0))
        assert 0 < trace.counts.sum() < trace.spikes.size

    @pytest.mark.parametrize("recurrent", [False, True])
    def test_temporal_rows_and_frame_list_give_identical_traces(self, recurrent):
        t_steps, batch, n_in = 4, 6, 5
        rows = RngStream(7).uniform((batch, t_steps * n_in))
        stacked = dataio.time_frames(rows, n_in, t_steps, t_steps)
        listed = [rows[:, t * n_in:(t + 1) * n_in].copy() for t in range(t_steps)]
        runs = []
        for frames in (stacked, listed):
            layer = make_layer(n_in=n_in, n_out=4, timesteps=t_steps, seed=21,
                               threshold=0.6, recurrent=recurrent)
            trace = layer_forward(layer, frames, "train")
            arrays = {name: getattr(trace, name).copy() for name in
                      ("inputs", "membranes", "spikes", "counts", "mu", "var")}
            arrays["products"] = products(trace, layer)
            grads = layer_backward(layer, trace, np.linspace(-1.0, 1.0, batch))
            runs.append((arrays, grads))
        (arrays_a, grads_a), (arrays_b, grads_b) = runs
        for name in arrays_a:
            assert arrays_a[name].tobytes() == arrays_b[name].tobytes(), name
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
        assert np.abs(grads_a["weights"]).max() > 0

    @pytest.mark.parametrize("recurrent", [False, True])
    @pytest.mark.parametrize("kind", ["float32", "strided float32", "bool"])
    @pytest.mark.parametrize("batch, n_in", [(16, 256), (2, 7), (37, 11)])
    def test_narrow_stacked_input_is_cast_one_timestep_at_a_time(
        self, recurrent, kind, batch, n_in
    ):
        """float32 frames, stacked or `time_frames`' strided view of
        sample-major rows, and bool spikes give their explicit float64
        cast's products, trace and gradients bit for bit: each GEMM casts
        its operand itself. Neither the pass nor its backward makes a
        float64 copy of the (T, B, n_in) stack."""
        t_steps = 8
        values = RngStream(8).uniform((batch, t_steps * n_in))
        if kind == "bool":  # a layer's spikes
            narrow = (values < 0.3).reshape(batch, t_steps, n_in).transpose(1, 0, 2)
            narrow = np.ascontiguousarray(narrow)
        else:
            narrow = dataio.time_frames(values.astype(np.float32), n_in, t_steps,
                                        t_steps)
            if kind == "float32":
                narrow = np.ascontiguousarray(narrow)
        assert narrow.flags.c_contiguous == (kind != "strided float32")
        stack_bytes = 8 * narrow.size  # one float64 copy of the stack
        runs = []
        for frames in (narrow.astype(np.float64), narrow):
            layer = make_layer(n_in=n_in, n_out=4, timesteps=t_steps, seed=23,
                               threshold=0.6, recurrent=recurrent,
                               decay_learnable=True)
            tracemalloc.start()
            try:
                trace = layer_forward(layer, frames, "train")
                pass_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                arrays = {name: getattr(trace, name).copy() for name in
                          ("membranes", "spikes", "counts", "mu", "var")}
                base = tracemalloc.get_traced_memory()[0]
                grads = layer_backward(layer, trace, np.linspace(-1.0, 1.0, batch))
                backward_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert trace.inputs is None  # consumed
            arrays["products"] = np.empty((t_steps, batch, 4))
            for t in range(t_steps):
                product(frames[t], layer.weights, t, arrays["products"][t])
            runs.append((arrays, grads, pass_peak, backward_peak))
        (arrays_a, grads_a, _, _), (arrays_b, grads_b, pass_peak, back_peak) = runs
        for name in arrays_a:
            assert arrays_a[name].tobytes() == arrays_b[name].tobytes(), name
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
        assert np.abs(grads_a["weights"]).max() > 0
        if n_in == 256:  # a stack that outweighs the pass's own buffers
            assert pass_peak < stack_bytes / 2, pass_peak
            assert back_peak < stack_bytes / 2, back_peak


class TestInit:
    def test_learnable_decay_initialized_at_inverse_sigmoid(self):
        layer = make_layer(decay=0.97, decay_learnable=True)
        np.testing.assert_allclose(sigmoid(layer.decay_raw), 0.97, atol=1e-12)
        assert layer.decay_raw[0] == pytest.approx(raw_decay_for(0.97))

    def test_adam_states_cover_all_trainables(self):
        layer = make_layer(decay_learnable=True, recurrent=True)
        assert set(layer.adam) == {"weights", "gamma", "shift", "decay_raw",
                                   "recurrent"}

    def test_parameter_counts(self):
        layer = make_layer(n_in=7, n_out=5, timesteps=4, decay_learnable=True,
                           recurrent=True)
        counts = parameter_counts(layer)
        assert counts == {"weights": 35, "gamma": 20, "shift": 20,
                          "decay_raw": 5, "recurrent": 25}


# The factored product x_base W^T + m W[:, y] and the GEMM of the written-out
# overlay x_y W^T sum the same terms in another order: they may differ by a
# few roundings of the largest product, never more than this many eps.
FACTORED_PRODUCT_EPS = 8
OVERLAY_CASES = [(t, c) for t in (False, True) for c in (2, 10)]


def overlay_case(temporal, class_count, t_steps=4, batch=24, seed=0):
    """A layer, an overlaid batch of random labels and the same batch's
    overlaid rows written out, as frames."""
    d = class_count + 14
    layer = make_layer(n_in=d, n_out=9, timesteps=t_steps, seed=seed,
                       decay_learnable=True)
    rng = RngStream(seed + 1)
    t_in = t_steps if temporal else 1
    sample = dataio.SampleBatch(rng.uniform((batch, d * t_in), 0.0, 2.0),
                                rng.integers(0, class_count, batch), d, t_in)
    overlaid = dataio.embed_label(
        sample, rng.integers(0, class_count, batch), class_count)
    written = dataio.time_frames(overlaid_rows(overlaid), d, t_in, t_steps)
    return layer, overlaid.frames(t_steps), written


class TestFactoredOverlay:
    @pytest.mark.parametrize("temporal,class_count", OVERLAY_CASES)
    def test_product_matches_the_written_out_overlay(self, temporal, class_count):
        layer, factored, written = overlay_case(temporal, class_count)
        assert isinstance(factored, dataio.OverlaidFrames)
        got = products(layer_forward(layer, factored, "train"), layer)
        want = np.stack([x @ layer.weights.T for x in written])
        bound = FACTORED_PRODUCT_EPS * np.finfo(np.float64).eps * np.abs(want).max()
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("temporal,class_count", OVERLAY_CASES)
    def test_weight_gradient_matches_the_written_out_overlay(
            self, temporal, class_count):
        layer, factored, written = overlay_case(temporal, class_count, seed=3)
        traces = [layer_forward(layer, frames, "train")
                  for frames in (factored, written)]
        assert traces[0].overlay is not None and traces[1].overlay is None
        # products a few roundings apart fire the same spikes here, so the
        # two gradients differ only by the products' roundings
        assert np.array_equal(traces[0].spikes, traces[1].spikes)
        dgood = RngStream(4).normal(len(traces[0].counts))
        got, want = (layer_backward(layer, tr, dgood)["weights"] for tr in traces)
        assert np.abs(want).max() > 0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        # the overlay channels' columns hold only the peak term
        channels = np.arange(layer.n_in) < class_count
        assert np.abs(got[:, channels]).max() > 0

    @pytest.mark.parametrize("class_count", [2, 10])
    def test_one_int_label_is_that_label_on_every_row(self, class_count):
        """Scoring's form (one int label for a run of rows) and the passes'
        (one label per row) are one correction: equal values, equal bits."""
        layer, factored, _ = overlay_case(False, class_count)
        peak = factored.overlay.peak
        for label in range(class_count):
            one = overlay_correction(layer.weights, peak, label)
            per_row = overlay_correction(layer.weights, peak,
                                         np.full(len(peak), label))
            assert one.shape == (len(peak), layer.n_out)
            assert one.tobytes() == per_row.tobytes()
            assert one.tobytes() == np.outer(peak, layer.weights[:, label]).tobytes()

    def test_correction_into_out(self):
        """Written into a given buffer, as the static train pass does, and
        one label's run into its rows of one, as scoring does."""
        layer, factored, _ = overlay_case(True, 10)
        peak, labels = factored.overlay
        want = np.stack([p * layer.weights[:, y] for p, y in zip(peak, labels)])
        out = np.full(want.shape, np.nan)
        assert overlay_correction(layer.weights, peak, labels, out=out) is out
        assert out.tobytes() == want.tobytes()
        run = slice(3, 10)
        overlay_correction(layer.weights, peak[run], 4, out=out[run])
        want[run] = np.outer(peak[run], layer.weights[:, 4])
        assert out.tobytes() == want.tobytes()

    def test_overlay_of_another_batch_size_is_shape_error(self):
        layer, factored, _ = overlay_case(False, 2)
        short = dataio.OverlaidFrames(
            factored.base, dataio.Overlay(factored.overlay.peak[:-1],
                                          factored.overlay.labels[:-1]))
        with pytest.raises(ShapeError, match="overlay of"):
            layer_forward(layer, short, "train")

