"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (scalar loops,
no shared code with the package) so tests compare two unrelated routes to
the same numbers.
"""

import math

import numpy as np


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
