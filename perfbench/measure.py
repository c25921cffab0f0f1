"""The phases of one benchmark run: set-up, training, checkpoint, eval, checks.

Every phase calls the same public entry points the CLI uses. Training and
eval advance one epoch or one pass per call, so that a run can interleave
them; training always restarts from the freshly built network, so every
completed schedule of a seed ends in the same network and the same loss,
however many schedules fit in the run.
"""

import copy
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from spikeff import checkpoint, dataio, network, predictor, trainer
from spikeff.dataio import Dataset, SampleBatch
from spikeff.layer import goodness
from spikeff.network import FFNetwork
from spikeff.numerics import RngStream

from .tracing import StepClock, Tracer
from .workloads import Workload

KEY_INIT = 100  # weight-init substream, as the CLI derives it
GATE_SAMPLES = 32  # leading held-out samples scored by the reference
# Reference and package score the same rows with the same float64
# arithmetic; only GEMM blocking differs (c*B rows at once vs B rows per
# overlay), so agreement is expected to the last few ulps.
GATE_RTOL = 1e-9
GATE_ATOL = 1e-9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, sample count). With n samples that is the
    (n - beyond)-th smallest value, at percentile 100 * (n - beyond) / n.
    With `beyond` samples or fewer no such percentile exists and the
    maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond
    if rank < 1:
        return 100.0, ordered[-1], n
    return 100.0 * rank / n, ordered[rank - 1], n


def train_config(w: Workload, seed: int) -> trainer.TrainConfig:
    # epochs=0 and eval_every=0: train_epoch is driven directly here and
    # never evaluates inside the epoch; evaluation is its own timed phase.
    return trainer.TrainConfig(
        epochs=0, batch_size=w.batch_size, lr=w.lr, seed=seed, eval_every=0
    )


@dataclass
class Prepared:
    train: Dataset
    held_out: Dataset
    net: FFNetwork  # as built, before any training
    seconds: float
    data_seconds: float


def set_up(w: Workload, seed: int, tracer: Optional[Tracer] = None):
    """Inputs, network and one warm-up step, timed as a user pays for them."""
    start = time.perf_counter()
    with tracer.span("bench.make_data") if tracer else nullcontext():
        train, held_out = w.make_data(w, seed)
    data_seconds = time.perf_counter() - start
    net = network.build_network(
        w.hidden_sizes,
        train.input_dim,
        train.class_count,
        w.timesteps,
        w.neuron,
        RngStream(seed).substream(KEY_INIT),
        recurrent=w.recurrent,
        lr=w.lr,
    )
    # One step on a throwaway copy: BLAS threads start and first-touch
    # allocations happen here instead of in the first timed step.
    warm = copy.deepcopy(net)
    if tracer is not None:
        tracer.register(warm)
    first_batch = dataio.subset(train, w.batch_size)
    trainer.train_epoch(warm, first_batch, train_config(w, seed), RngStream(seed))
    return Prepared(train, held_out, net, time.perf_counter() - start, data_seconds)


class TrainRun:
    """Training one epoch per call, timed per step by a StepClock.

    Every w.epochs epochs it restarts from the freshly built network, so
    every completed schedule of a seed ends in the same network and loss.
    A training exception is kept in `error` and ends the run.
    """

    def __init__(self, w: Workload, prep: Prepared, seed: int,
                 tracer: Optional[Tracer] = None):
        self.w, self.prep, self.seed, self.tracer = w, prep, seed, tracer
        self.config = train_config(w, seed)
        self.clock = StepClock()
        self.step_seconds: List[float] = self.clock.seconds
        self.step_sizes: List[int] = self.clock.sizes
        self.epoch_losses: List[float] = []
        self.net: Optional[FFNetwork] = None  # the schedule in progress
        self.final_net: Optional[FFNetwork] = None  # end of the last completed schedule
        self.final_loss: Optional[float] = None  # mean ff_loss of its last epoch
        self.schedules = 0
        self.error: Optional[str] = None
        self._epoch = w.epochs

    @property
    def samples_per_s(self) -> float:
        return sum(self.step_sizes) / sum(self.step_seconds)

    def epoch(self) -> bool:
        """Train one epoch; False if it (or an earlier one) failed."""
        if self.error:
            return False
        if self._epoch == self.w.epochs:
            self.net, self.rng, self._epoch = copy.deepcopy(self.prep.net), RngStream(self.seed), 0
            if self.tracer is not None:
                self.tracer.register(self.net)
        try:
            with self.clock.installed():
                metrics = trainer.train_epoch(
                    self.net, self.prep.train, self.config, self.rng, epoch=self._epoch
                )
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            return False
        self.epoch_losses.append(metrics.total_loss)
        self._epoch += 1
        if self._epoch == self.w.epochs:
            self.final_net, self.final_loss = self.net, metrics.total_loss
            self.schedules += 1
        return True


def train_for(
    w: Workload, prep: Prepared, seed: int, budget: float, tracer: Optional[Tracer] = None
) -> TrainRun:
    """Train for about `budget` seconds, whole epochs at a time.

    Stops after the epoch at which another epoch as long as the last would
    overrun the budget. final_net is the last completed schedule's network,
    or the one in progress if none completed.
    """
    run = TrainRun(w, prep, seed, tracer)
    start = time.perf_counter()
    while True:
        epoch_start = time.perf_counter()
        if not run.epoch():
            return run
        now = time.perf_counter()
        if now - start + (now - epoch_start) > budget:
            run.final_net = run.final_net or run.net
            return run


class EvalRun:
    """Repeated predictor.evaluate passes over the held-out split."""

    batch_size = 256  # predictor.evaluate's default, as the CLI calls it

    def __init__(self, net: FFNetwork, held_out: Dataset):
        self.net, self.held_out = net, held_out
        self.samples = held_out.num_samples
        self.batches = math.ceil(self.samples / self.batch_size)
        self.pass_seconds: List[float] = []
        self.accuracy: Optional[float] = None
        self.error: Optional[str] = None

    @property
    def samples_per_s(self) -> float:
        return self.samples * len(self.pass_seconds) / sum(self.pass_seconds)

    def one_pass(self) -> bool:
        """Evaluate once; False if this pass failed or changed the accuracy."""
        t0 = time.perf_counter()
        try:
            accuracy = predictor.evaluate(self.net, self.held_out, self.batch_size)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            return False
        self.pass_seconds.append(time.perf_counter() - t0)
        if self.accuracy is not None and accuracy != self.accuracy:
            self.error = f"accuracy changed between passes: {self.accuracy} vs {accuracy}"
            return False
        self.accuracy = accuracy
        return True


def evaluate_for(net: FFNetwork, held_out: Dataset, budget: float) -> EvalRun:
    """Evaluate for about `budget` seconds: at least once, and not again once
    another pass as long as the last would overrun the budget."""
    run = EvalRun(net, held_out)
    start = time.perf_counter()
    while not run.pass_seconds or (
        time.perf_counter() - start + run.pass_seconds[-1] <= budget
    ):
        if not run.one_pass():
            return run
    return run


def round_trip(net: FFNetwork, path: Path) -> FFNetwork:
    """save_checkpoint, then load_checkpoint from the same file."""
    checkpoint.save_checkpoint(path, net)
    loaded, _ = checkpoint.load_checkpoint(path)
    path.unlink()
    return loaded


def reference_scores(net: FFNetwork, batch: SampleBatch) -> np.ndarray:
    """Per-class total goodness, one forward_eval per overlay, in float64."""
    scores = np.zeros((batch.size, net.class_count), dtype=np.float64)
    for label in range(net.class_count):
        overlay = np.full(batch.size, label, dtype=np.int64)
        variant = dataio.embed_label(batch, overlay, net.class_count)
        for trace in network.forward_eval(net, variant.frames(net.timesteps)):
            scores[:, label] += goodness(trace)
    return scores


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def check_outputs(
    net: FFNetwork, loaded: FFNetwork, held_out: Dataset, losses: List[float]
) -> List[Check]:
    """The correctness gate: reference scores, reload identity, finite losses."""
    gate = dataio.subset(held_out, GATE_SAMPLES)
    batch = SampleBatch(gate.inputs, gate.labels, gate.input_dim, gate.timesteps)
    got = predictor.score_labels(net, batch).scores
    ref = reference_scores(net, batch)
    worst = float(np.max(np.abs(got - ref)))
    reloaded = predictor.score_labels(loaded, batch).scores
    bad_losses = [v for v in losses if not math.isfinite(v)]
    return [
        Check(
            "score_labels_matches_reference",
            bool(np.allclose(got, ref, rtol=GATE_RTOL, atol=GATE_ATOL)),
            f"max |score - reference| = {worst:.3g} over {batch.size} samples "
            f"(rtol {GATE_RTOL}, atol {GATE_ATOL})",
        ),
        Check(
            "reloaded_scores_bit_identical",
            bool(np.array_equal(got, reloaded)),
            f"{int(np.sum(got != reloaded))} of {got.size} scores differ",
        ),
        Check(
            "losses_finite",
            not bad_losses and bool(losses),
            f"{len(losses)} epoch losses, {len(bad_losses)} not finite",
        ),
    ]
