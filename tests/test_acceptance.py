"""Acceptance suite: one test and one printed PASS/FAIL/SKIP line per criterion.

Criteria 1 and 9 need the real MNIST IDX files under <data root>/mnist
(SPIKEFF_DATA_ROOT or ./data). When any of the four files is absent, both
tests are skipped with a reason naming the missing paths, and a SKIP line
for each criterion is printed when this module is collected. Where the
files exist, both run the desk-scale experiment against their thresholds.

Criterion 2 checks the shape of the pinned loss -x/(1+exp(x)), x = a*d:
zero at zero, a linear negative asymptote, a vanishing positive tail, and
the single dip between them. The derivative vanishes where
(x-1)*exp(x-1) = 1/e, i.e. at x* = 1 + W(1/e) ~ 1.278465 (W: Lambert W),
where the loss equals -exp(-x*) = -(x* - 1) ~ -0.278465. The loss strictly
decreases up to x* and strictly rises toward zero from below after it.
"""

import math
import time

import numpy as np
import pytest

import spikeff.trainer as trainer_mod
from spikeff import cli, dataio
from spikeff.layer import (
    fold_running_stats,
    goodness,
    init_layer,
    layer_backward,
    layer_forward,
)
from spikeff.network import build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.trainer import TrainConfig, ff_loss, sample_hard_labels, train

from oracles import (
    central_difference_grads,
    drives,
    products,
    reference_forward,
    relative_errors,
    scalar_layer_forward,
    smoothed_layer_objective,
)
from test_gradients import random_instance


def report(number, name, ok, detail=""):
    """Print the criterion's line and assert it; ok=None marks a skip."""
    status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    line = f"[acceptance] criterion {number:2d} ({name}): {status}{suffix}"
    print(line)
    assert ok is None or ok, line


def per_sample_loss(delta, alpha):
    return ff_loss(np.array([delta]), np.array([0.0]), alpha)[0]


# ---------------------------------------------------------------------------
# criteria 1 & 9: desk-scale MNIST run
# ---------------------------------------------------------------------------


def mnist_paths():
    resolved, missing = [], []
    for split in ("train", "test"):
        found, absent = cli.idx_paths(cli.data_root(), "mnist", split)
        resolved += found
        missing += [str(path) for path in absent]
    return resolved, missing


MNIST_RESOLVED, MNIST_MISSING = mnist_paths()
MNIST_SKIP_REASON = (
    "MNIST IDX files not found: "
    + ", ".join(MNIST_MISSING)
    + " (set SPIKEFF_DATA_ROOT or place the canonical files — "
    "optionally gzipped — under <data root>/mnist/)"
)
requires_mnist = pytest.mark.skipif(bool(MNIST_MISSING),
                                    reason=MNIST_SKIP_REASON)
if MNIST_MISSING:
    report(1, "scaled MNIST accuracy", None, MNIST_SKIP_REASON)
    report(9, "loss trend and goodness direction", None,
           "needs the criterion-1 run; same missing data")


@pytest.fixture(scope="module")
def mnist_run():
    train_images, train_labels, test_images, test_labels = MNIST_RESOLVED
    train_full = dataio.load_idx(train_images, train_labels, class_count=10)
    test_ds = dataio.load_idx(test_images, test_labels, class_count=10)
    train_ds = dataio.subset(train_full, 10000)
    net = build_network(
        [100, 100], 784, 10, 10,
        NeuronConfig(threshold=1.0, decay=0.99, decay_learnable=True),
        RngStream(0).substream(trainer_mod.KEY_INIT),
    )
    config = TrainConfig(epochs=15, batch_size=256, lr=1e-3, seed=0,
                         eval_every=0)
    started = time.perf_counter()
    history = train(net, train_ds, config, eval_dataset=test_ds)
    seconds = time.perf_counter() - started
    return history, seconds


@requires_mnist
def test_criterion_01_scaled_mnist_accuracy(mnist_run):
    history, seconds = mnist_run
    accuracy = history[-1].test_accuracy
    ok = accuracy >= 0.92 and seconds <= 1200.0
    report(1, "scaled MNIST accuracy", ok,
           f"test accuracy {accuracy:.4f} (need >= 0.92), "
           f"runtime {seconds:.0f}s (budget 1200s)")


@requires_mnist
def test_criterion_09_loss_trend_and_goodness(mnist_run):
    history, _ = mnist_run
    first, last = history[0], history[-1]
    gpos = float(np.mean(last.layer_goodness_pos))
    gneg = float(np.mean(last.layer_goodness_neg))
    ok = last.total_loss < first.total_loss and gpos > gneg
    report(9, "loss trend and goodness direction", ok,
           f"loss {first.total_loss:+.4f} -> {last.total_loss:+.4f}, "
           f"final goodness pos {gpos:.2f} vs neg {gneg:.2f}")


# ---------------------------------------------------------------------------
# criterion 2: loss-shape suite
# ---------------------------------------------------------------------------


def lambert_w_of_inv_e():
    """W(1/e), the root of w*exp(w) = 1/e, by Newton's method."""
    w = 0.25
    for _ in range(8):
        ew = math.exp(w)
        w -= (w * ew - math.exp(-1.0)) / (ew * (1.0 + w))
    return w


# the loss -x/(1+exp(x)) has its single minimum LOSS_MIN at x = X_STAR
X_STAR = 1.0 + lambert_w_of_inv_e()
LOSS_MIN = -(X_STAR - 1.0)


def loss_shape_violations(grid, losses, alpha):
    """First counterexample to each part of the dip shape, one string each."""
    x = alpha * grid
    rise = np.diff(losses)
    checks = [  # (what, where it fails, grid points shown)
        ("no strict decrease up to the dip", (x[1:] <= X_STAR) & (rise >= 0), 2),
        ("no strict rise after the dip", (x[:-1] >= X_STAR) & (rise <= 0), 2),
        ("not negative for d > 0", (grid > 0) & (losses >= 0), 1),
        ("not positive for d < 0", (grid < 0) & (losses <= 0), 1),
        ("below the minimum", losses < LOSS_MIN, 1),
    ]
    found = []
    for what, bad, shown in checks:
        if bad.any():
            i = int(np.argmax(bad))
            points = ", ".join(f"loss({grid[j]:.2f})={losses[j]:.6f}"
                               for j in range(i, i + shown))
            found.append(f"alpha={alpha}: {what}: {points}")
    return found


def test_criterion_02_loss_shape():
    started = time.perf_counter()
    grid = np.linspace(-20.0, 20.0, 4001)
    violations = []
    for alpha in (1.0, 2.0, 5.0):
        losses = np.array([per_sample_loss(d, alpha) for d in grid])
        violations += loss_shape_violations(grid, losses, alpha)
        dip = per_sample_loss(X_STAR / alpha, alpha)
        if abs(dip - LOSS_MIN) > 1e-12:
            violations.append(f"alpha={alpha}: loss(x*/alpha)={dip:.12f}, "
                              f"want {LOSS_MIN:.12f}")
        assert per_sample_loss(0.0, alpha) == 0.0
        asymptote = 20.0 * alpha
        assert abs(per_sample_loss(-20.0, alpha) - asymptote) <= 0.01 * asymptote
    assert abs(per_sample_loss(20.0, 5.0)) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"loss-shape suite took {elapsed:.2f}s (budget 1s)"
    detail = (
        "checks: zero-at-zero, linear negative asymptote, vanishing positive "
        f"tail, sign pattern, strict decrease to the dip at alpha*d = x* = "
        f"{X_STAR:.6f} and strict rise after it, minimum {LOSS_MIN:.6f}"
    )
    if violations:
        detail += "; violated: " + "; ".join(violations)
    else:
        detail += "; all hold"
    report(2, "loss-shape suite", not violations, detail)


# ---------------------------------------------------------------------------
# criterion 3: gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_03_gradient_oracle():
    started = time.perf_counter()
    pooled = []
    for seed in range(20):
        layer, frames, seed_weights = random_instance(seed)
        trace = reference_forward(layer, frames, smooth=True)
        analytic = layer_backward(layer, trace, seed_weights)
        frozen = trace.spikes

        def objective():
            return smoothed_layer_objective(layer, frames, frozen, seed_weights)

        numeric = central_difference_grads(objective, layer.trainable_tensors(),
                                           h=1e-5)
        for name in analytic:
            pooled.append(relative_errors(analytic[name], numeric[name]))
    pooled = np.concatenate(pooled)
    p90 = float(np.percentile(pooled, 90))
    worst = float(pooled.max())
    elapsed = time.perf_counter() - started
    ok = p90 <= 1e-4 and worst <= 1e-2 and elapsed < 30.0
    report(3, "gradient oracle", ok,
           f"{pooled.size} parameters over 20 seeds: p90 {p90:.2e} "
           f"(<=1e-4), max {worst:.2e} (<=1e-2), {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# criterion 4: equation oracle
# ---------------------------------------------------------------------------


def test_criterion_04_equation_oracle():
    started = time.perf_counter()
    worst = 0.0
    for case in range(50):
        rng = RngStream(5000 + case)
        t_steps = int(rng.integers(1, 6))
        cfg = NeuronConfig(
            threshold=float(rng.uniform(low=0.5, high=1.5)),
            decay=float(rng.uniform(low=0.5, high=0.99)),
            decay_learnable=bool(case % 2),
            reset_mode="zero" if case % 3 == 0 else "subtract",
        )
        layer = init_layer(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                           t_steps, cfg, rng.substream(1),
                           recurrent=bool(case % 4 == 1))
        batch = int(rng.integers(2, 7))
        frames = [rng.normal((batch, layer.n_in)) for _ in range(t_steps)]
        trace = layer_forward(layer, frames, "train")
        oracle = scalar_layer_forward(layer, frames)
        z, drive = products(trace, layer), drives(trace, layer)
        for t in range(t_steps):
            for mine, ref in (
                (z[t], oracle["pre_norm"][t]),
                (trace.mu[t], oracle["mu"][t]),
                (trace.var[t], oracle["var"][t]),
                (drive[t], oracle["normalized"][t]),
                (trace.membranes[t], oracle["membranes"][t]),
                (trace.spikes[t], oracle["spikes"][t]),
            ):
                worst = max(worst, float(np.abs(np.asarray(mine)
                                                - np.asarray(ref)).max()))
        worst = max(worst, float(np.abs(trace.counts
                                        - np.asarray(oracle["counts"])).max()))
        worst = max(worst, float(np.abs(goodness(trace)
                                        - np.asarray(oracle["goodness"])).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    report(4, "equation oracle", ok,
           f"50 instances, worst |difference| {worst:.2e} (<=1e-10), "
           f"{elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# criterion 5: hard-label sampler statistics
# ---------------------------------------------------------------------------


def test_criterion_05_hard_label_statistics(monkeypatch):
    started = time.perf_counter()
    draws = 100_000
    scores = np.array([4.0, 1.0, 0.25, 9.0, 0.0, 2.25, 6.25, 1.0, 0.0, 16.0])
    true_label = 3
    monkeypatch.setattr(trainer_mod, "label_goodness",
                        lambda net, batch: np.tile(scores, (batch.size, 1)))

    class FakeNet:
        class_count = 10
        timesteps = 10

    rows = np.tile(np.linspace(0.1, 0.9, 12), (draws, 1))
    batch = dataio.SampleBatch(rows, np.full(draws, true_label), 12)
    labels = sample_hard_labels(FakeNet(), batch, RngStream(424242))
    weights = np.sqrt(scores)
    weights[true_label] = 0.0
    expected = weights / weights.sum()
    freq = np.bincount(labels, minlength=10) / draws
    true_frequency = freq[true_label]
    violations = []
    for cls in range(10):
        if cls == true_label:
            continue
        sigma = math.sqrt(expected[cls] * (1 - expected[cls]) / draws)
        if abs(freq[cls] - expected[cls]) > 3 * sigma:
            violations.append(
                f"class {cls}: {freq[cls]:.5f} vs {expected[cls]:.5f}")
    elapsed = time.perf_counter() - started
    ok = true_frequency == 0.0 and not violations and elapsed < 5.0
    report(5, "hard-label sampler statistics", ok,
           f"100k draws, true-label frequency {true_frequency}, "
           f"all classes within 3 sigma"
           + (f"; violations: {violations}" if violations else "")
           + f", {elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# criterion 6: normalization invariants
# ---------------------------------------------------------------------------


def test_criterion_06_normalization_invariants():
    started = time.perf_counter()
    rng = RngStream(31)
    layer = init_layer(12, 8, 5, NeuronConfig(threshold=1.0, decay=0.9), rng)
    frames = [rng.normal((64, 12), scale=1.5) for _ in range(5)]
    trace = layer_forward(layer, frames, "train")
    worst_mean, worst_var = 0.0, 0.0
    z = products(trace, layer)
    for t in range(5):
        xhat = (z[t] - trace.mu[t]) / np.sqrt(trace.var[t] + layer.eps)
        worst_mean = max(worst_mean, float(np.abs(xhat.mean(axis=0)).max()))
        worst_var = max(worst_var, float(np.abs(xhat.var(axis=0) - 1.0).max()))

    # eval-mode batch-size independence after populating running statistics
    for _ in range(4):
        fold_running_stats(layer, layer_forward(
            layer, [rng.normal((32, 12)) for _ in range(5)], "train"))
    batch = rng.normal((16, 12))
    full = layer_forward(layer, [batch] * 5, "eval")
    worst_gap = 0.0
    for i in range(16):
        alone = layer_forward(layer, [batch[i : i + 1]] * 5, "eval")
        worst_gap = max(worst_gap,
                        float(np.abs(alone.counts[0] - full.counts[i]).max()))
        for t in range(5):
            worst_gap = max(worst_gap, float(np.abs(
                alone.membranes[t][0] - full.membranes[t][i]).max()))
    elapsed = time.perf_counter() - started
    ok = worst_mean <= 1e-6 and worst_var <= 1e-4 and worst_gap <= 1e-10 \
        and elapsed < 5.0
    report(6, "normalization invariants", ok,
           f"post-norm |mean| {worst_mean:.1e} (<=1e-6), |var-1| "
           f"{worst_var:.1e} (<=1e-4), eval batch-independence gap "
           f"{worst_gap:.1e} (<=1e-10), {elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# criterion 7: spike-count bounds and binarity
# ---------------------------------------------------------------------------


def test_criterion_07_spike_bounds():
    started = time.perf_counter()
    rng = RngStream(77)
    violations = 0
    for _ in range(1000):
        t_steps = int(rng.integers(1, 6))
        cfg = NeuronConfig(
            threshold=float(rng.uniform(low=0.3, high=2.0)),
            decay=float(rng.uniform(low=0.3, high=0.999)),
            reset_mode="zero" if rng.integers(0, 2) else "subtract",
        )
        layer = init_layer(int(rng.integers(1, 7)), int(rng.integers(1, 7)),
                           t_steps, cfg, rng.substream(int(rng.integers(0, 10**6))),
                           recurrent=bool(rng.integers(0, 2)))
        batch = int(rng.integers(2, 9))
        frames = [rng.normal((batch, layer.n_in), scale=3.0)
                  for _ in range(t_steps)]
        trace = layer_forward(layer, frames, "train")
        spikes = np.concatenate(trace.spikes)
        g = goodness(trace)
        if not (
            set(np.unique(spikes)) <= {0.0, 1.0}
            and trace.counts.min() >= 0.0
            and trace.counts.max() <= t_steps
            and g.min() >= 0.0
            and g.max() <= t_steps**2
        ):
            violations += 1
    elapsed = time.perf_counter() - started
    report(7, "spike-count bounds and binarity", violations == 0,
           f"1000 random forwards, {violations} violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_08_determinism(tmp_path):
    configs = [
        cli.ExperimentConfig(
            dataset="synthetic:blobs", hidden_sizes=[16], epochs=3,
            batch_size=32, timesteps=8, seed=1234,
            out_dir=str(tmp_path / run), eval_every=1,
        )
        for run in ("first", "second")
    ]
    codes = [cli.run_train(c) for c in configs]
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    ok = codes == [0, 0] and first == second
    report(8, "end-to-end determinism", ok,
           f"two runs, metrics CSVs byte-identical "
           f"({len(first)} bytes each)")


# ---------------------------------------------------------------------------
# criterion 10: temporal pathway with recurrent LIF
# ---------------------------------------------------------------------------


def test_criterion_10_temporal_pathway(tmp_path):
    started = time.perf_counter()
    # materialize the task through the binned-event container
    train_src = dataio.make_temporal_dataset(2000, seed=401)
    test_src = dataio.make_temporal_dataset(500, seed=402)
    dataio.write_binned_events(tmp_path / "train.bse", train_src)
    dataio.write_binned_events(tmp_path / "test.bse", test_src)
    train_ds = dataio.load_binned_events(tmp_path / "train.bse")
    test_ds = dataio.load_binned_events(tmp_path / "test.bse")
    assert train_ds.input_dim == 20 and train_ds.timesteps == 10

    results = {}
    for recurrent in (True, False):
        net = build_network(
            [64], 20, 2, 10, NeuronConfig(threshold=1.0, decay=0.9),
            RngStream(3).substream(trainer_mod.KEY_INIT), recurrent=recurrent,
        )
        config = TrainConfig(epochs=30, batch_size=64, lr=1e-3, seed=3,
                             eval_every=0)
        history = train(net, train_ds, config, eval_dataset=test_ds)
        results[recurrent] = history[-1].test_accuracy
    elapsed = time.perf_counter() - started
    ok = results[True] >= 0.85 and elapsed <= 300.0
    report(10, "temporal pathway (recurrent LIF)", ok,
           f"recurrent accuracy {results[True]:.3f} (need >= 0.85) in 30 "
           f"epochs; non-recurrent twin (V=0) {results[False]:.3f}; "
           f"{elapsed:.0f}s (<=300s)")
