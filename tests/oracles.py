"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (scalar loops,
or plain numpy where a test pins the package to it bit for bit), sharing no
computation with the package, so tests compare two unrelated routes to the
same numbers.
"""

import math

import numpy as np

from spikeff.dataio import OverlaidFrames
from spikeff.layer import LayerForwardTrace


def adam_scalar_sequence(p0, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recursion; returns the parameter value after each step."""
    p, m, v = float(p0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(p)
    return out


def scalar_layer_forward(layer, frames):
    """Pure-Python scalar re-implementation of one train-mode layer pass.

    Mirrors, step by step: linear map, per-timestep batch statistics and
    normalization, optional recurrent drive, LIF recursion with the
    configured reset, spike condition, counts and goodness. Returns plain
    nested lists so nothing is shared with the package's vectorized path.
    """
    cfg = layer.neuron
    t_steps = layer.timesteps
    batch = frames[0].shape[0]
    n, m = layer.n_out, layer.n_in
    if cfg.decay_learnable and layer.decay_raw is not None:
        beta = [1.0 / (1.0 + math.exp(-layer.decay_raw[i])) for i in range(n)]
    else:
        beta = [cfg.decay] * n

    membrane = [[0.0] * n for _ in range(batch)]
    spikes = [[0.0] * n for _ in range(batch)]
    counts = [[0.0] * n for _ in range(batch)]
    recorded = {
        "pre_norm": [], "mu": [], "var": [], "normalized": [],
        "membranes": [], "spikes": [],
    }

    for t in range(t_steps):
        x = frames[t]
        z = [[0.0] * n for _ in range(batch)]
        for b in range(batch):
            for i in range(n):
                acc = 0.0
                for j in range(m):
                    acc += x[b][j] * layer.weights[i][j]
                z[b][i] = acc
        mu = [0.0] * n
        var = [0.0] * n
        for i in range(n):
            s = 0.0
            for b in range(batch):
                s += z[b][i]
            mu[i] = s / batch
            s2 = 0.0
            for b in range(batch):
                s2 += (z[b][i] - mu[i]) ** 2
            var[i] = s2 / batch
        normalized = [[0.0] * n for _ in range(batch)]
        for b in range(batch):
            for i in range(n):
                xhat = (z[b][i] - mu[i]) / math.sqrt(var[i] + layer.eps)
                normalized[b][i] = layer.gamma[t][i] * xhat + layer.shift[t][i]
        new_membrane = [[0.0] * n for _ in range(batch)]
        new_spikes = [[0.0] * n for _ in range(batch)]
        for b in range(batch):
            for i in range(n):
                drive = normalized[b][i]
                if layer.recurrent is not None:
                    for k in range(n):
                        drive += spikes[b][k] * layer.recurrent[k][i]
                if cfg.reset_mode == "zero":
                    u = beta[i] * membrane[b][i] * (1.0 - spikes[b][i]) + drive
                else:
                    u = (
                        beta[i] * membrane[b][i]
                        + drive
                        - cfg.threshold * spikes[b][i]
                    )
                new_membrane[b][i] = u
                new_spikes[b][i] = 1.0 if u >= cfg.threshold else 0.0
                counts[b][i] += new_spikes[b][i]
        membrane, spikes = new_membrane, new_spikes
        recorded["pre_norm"].append(z)
        recorded["mu"].append(mu)
        recorded["var"].append(var)
        recorded["normalized"].append(normalized)
        recorded["membranes"].append(membrane)
        recorded["spikes"].append(spikes)

    goodness = [
        sum(counts[b][i] ** 2 for i in range(n)) / n for b in range(batch)
    ]
    recorded["counts"] = counts
    recorded["goodness"] = goodness
    return recorded


def smoothed_spike(membrane, config):
    """Smooth primitive of `neuron.surrogate_grad`, 1/2 at threshold.

    Replaces the hard step in gradient checks, so that finite differences
    of the forward agree with the surrogate-based backward.
    """
    k = math.pi * config.surrogate_slope / 2.0
    shifted = membrane - config.threshold
    return 0.5 + np.arctan(k * shifted) / (math.pi * k)


def reference_forward(layer, frames, smooth):
    """A train-mode `layer_forward`, op for op in plain numpy.

    The same ufuncs in the same order (product and overlay correction,
    batch mean and biased variance, `z * scale + offset`, recurrent drive,
    membrane recursion, threshold, counts), so with `smooth` False every
    array of the returned trace equals `layer_forward`'s bit for bit. With
    `smooth` True the threshold is `smoothed_spike` and the spikes are
    recorded as float64: the forward whose gradients `layer_backward`
    computes, and which it consumes like any train trace.
    """
    overlay = None
    if isinstance(frames, OverlaidFrames):
        frames, overlay = frames.base, frames.overlay
    cfg = layer.neuron
    t_steps, batch, n = len(frames), frames[0].shape[0], layer.n_out
    if cfg.decay_learnable and layer.decay_raw is not None:
        beta = 1.0 / (1.0 + np.exp(-layer.decay_raw))
    else:
        beta = cfg.decay
    shared = all(f is frames[0] for f in frames)
    if shared:
        inputs = np.broadcast_to(frames[0], (t_steps,) + frames[0].shape)
    else:
        inputs = np.asarray(frames)
        if inputs.dtype != np.bool_:
            inputs = inputs.astype(np.float64, copy=False)
    correction = None
    if overlay is not None:
        correction = layer.weights.T[overlay.labels] * overlay.peak[:, None]

    spikes = np.empty((t_steps, batch, n), np.float64 if smooth else bool)
    membranes = np.empty((t_steps, batch, n))
    mu, var = np.empty((t_steps, n)), np.empty((t_steps, n))
    counts = np.zeros((batch, n))
    u = np.zeros((batch, n))
    s = np.zeros((batch, n))
    shared_product = None
    for t in range(t_steps):
        if t == 0 or not shared:
            z = inputs[t].astype(np.float64, copy=False) @ layer.weights.T
            if correction is not None:
                z = z + correction
            if shared:
                shared_product = z
        mu[t] = z.mean(axis=0)
        var[t] = z.var(axis=0)
        scale = layer.gamma[t] / np.sqrt(var[t] + layer.eps)
        offset = layer.shift[t] - mu[t] * scale
        drive = z * scale + offset
        if layer.recurrent is not None:
            drive = drive + s.astype(np.float64, copy=False) @ layer.recurrent
        if cfg.reset_mode == "zero":
            u = beta * u * (1.0 - s) + drive
        else:
            u = beta * u + drive - cfg.threshold * s
        membranes[t] = u
        spikes[t] = smoothed_spike(u, cfg) if smooth else u >= cfg.threshold
        s = spikes[t]
        counts += s
    return LayerForwardTrace(
        mode="train", counts=counts, mu=mu, var=var, spikes=spikes,
        inputs=inputs, membranes=membranes, shared_product=shared_product,
        overlay=overlay,
    )


def products(trace, layer):
    """(T, B, n) products z = X W^T of a trace's pass, from its inputs and
    the layer's weights (a static input's one product broadcast over T);
    read before `layer_backward` consumes the inputs and before any update
    changes the weights."""
    if trace.shared:
        return np.broadcast_to(trace.shared_product,
                               trace.mu.shape[:1] + trace.shared_product.shape)
    z = np.stack([x.astype(np.float64, copy=False) @ layer.weights.T
                  for x in trace.inputs])
    if trace.overlay is not None:
        peak, labels = trace.overlay
        z += layer.weights.T[labels] * peak[:, None]
    return z


def drives(trace, layer):
    """(T, B, n) normalized drives z * scale + offset of a trace's pass,
    with the layer's weights, scale and shift (before any update changes
    them)."""
    scale = layer.gamma / np.sqrt(trace.var + layer.eps)
    offset = layer.shift - trace.mu * scale
    return products(trace, layer) * scale[:, None, :] + offset[:, None, :]


def smoothed_layer_objective(layer, frames, frozen_spikes, seed_weights):
    """Smoothed forward with the reset sequence frozen at a baseline.

    The spike step is replaced by the arctan primitive whose derivative is
    the layer's surrogate, and the reset term uses the baseline spike values
    `frozen_spikes` (gradients treat the reset as a constant). Returns
    sum_b seed_weights[b] * goodness_b. Central differences of this function
    are the oracle for layer_backward.
    """
    cfg = layer.neuron
    t_steps = layer.timesteps
    batch, n = frames[0].shape[0], layer.n_out
    if cfg.decay_learnable and layer.decay_raw is not None:
        beta = 1.0 / (1.0 + np.exp(-layer.decay_raw))
    else:
        beta = cfg.decay
    k = math.pi * cfg.surrogate_slope / 2.0
    membrane = np.zeros((batch, n))
    soft = np.zeros((batch, n))
    counts = np.zeros((batch, n))
    for t in range(t_steps):
        z = frames[t] @ layer.weights.T
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        xhat = (z - mu) / np.sqrt(var + layer.eps)
        drive = layer.gamma[t] * xhat + layer.shift[t]
        if layer.recurrent is not None:
            drive = drive + soft @ layer.recurrent
        frozen = frozen_spikes[t - 1] if t > 0 else np.zeros((batch, n))
        if cfg.reset_mode == "zero":
            membrane = beta * membrane * (1.0 - frozen) + drive
        else:
            membrane = beta * membrane + drive - cfg.threshold * frozen
        soft = 0.5 + np.arctan(k * (membrane - cfg.threshold)) / (math.pi * k)
        counts = counts + soft
    goodness = np.square(counts).mean(axis=1)
    return float((seed_weights * goodness).sum())


def central_difference_grads(objective, tensors, h=1e-5):
    """Per-entry central differences of `objective` w.r.t. each tensor."""
    grads = {}
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = objective()
            flat[i] = keep - h
            down = objective()
            flat[i] = keep
            grad[i] = (up - down) / (2.0 * h)
        grads[name] = grad.reshape(tensor.shape)
    return grads


def relative_errors(analytic, numeric, zero_floor=1e-12):
    """Elementwise relative error; exact co-zeros count as zero error."""
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    numeric = np.asarray(numeric, dtype=np.float64).reshape(-1)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    out = np.zeros_like(scale)
    live = scale > zero_floor
    out[live] = np.abs(analytic[live] - numeric[live]) / scale[live]
    return out


def overlaid_rows(batch):
    """The rows an overlaid batch stands for, written out with loops: its
    base rows with each row's peak (`overlay_max`) set at its label's
    channel of every timestep."""
    rows = batch.inputs.copy()
    for b in range(batch.size):
        for t in range(batch.timesteps):
            rows[b, t * batch.input_dim + batch.labels[b]] = batch.overlay_max[b]
    return rows


def temporal_dataset_per_sample(n, input_dim, timesteps, class_count, seed):
    """The (rows, labels) of `make_temporal_dataset`, drawn one sample at a
    time from the same Philox stream: its label, then per sample the
    jitter of each timed channel and the step of each distractor channel,
    then the noise."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    labels = rng.integers(0, class_count, size=n)
    bins = np.zeros((n, timesteps, input_dim))
    timed = np.arange(class_count, class_count + timesteps)
    distract = np.arange(class_count + timesteps, input_dim)
    for i in range(n):
        jitter = rng.integers(-1, 2, size=timed.size)
        for k, channel in enumerate(timed):
            slot = k if labels[i] % 2 == 0 else timesteps - 1 - k
            bins[i, (slot + jitter[k]) % timesteps, channel] = 1.0
        if distract.size:
            steps = rng.integers(0, timesteps, size=distract.size)
            for channel, step in zip(distract, steps):
                bins[i, step, channel] = 1.0
    bins += rng.uniform(0.0, 1.0, (n, timesteps, input_dim)) < 0.02
    return bins.reshape(n, -1), labels
