"""The benchmark's workloads and their seeded input generators.

Each workload fixes a network shape and a training schedule; its inputs come
only from the seed passed on the command line. Class structure (prototypes)
is drawn from a fixed structural seed so that every seed poses an equally
hard problem and only the sampled examples change.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from spikeff import dataio
from spikeff.dataio import Dataset
from spikeff.neuron import NeuronConfig

STRUCTURE_SEED = 2502_20411
TRAIN_SPLIT, EVAL_SPLIT = 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    hidden_sizes: Tuple[int, ...]
    neuron: NeuronConfig
    recurrent: bool
    timesteps: int
    batch_size: int
    train_samples: int
    eval_samples: int
    epochs: int  # epochs in one training schedule
    lr: float
    make_data: Callable[["Workload", int], Tuple[Dataset, Dataset]]


def static_prototype_dataset(n: int, seed: int, split: int) -> Dataset:
    """MNIST-shaped static rows: 784-d, 10 classes, about 20% dense in [0, 1].

    Every class has a fixed prototype (20% of pixels lit). A sample keeps
    each lit pixel with probability 0.8 at a jittered intensity and adds
    stray pixels at a 4% rate.
    """
    d, c = 784, 10
    structure = np.random.default_rng(STRUCTURE_SEED)
    lit = structure.random((c, d)) < 0.2
    prototypes = np.where(lit, structure.uniform(0.4, 1.0, (c, d)), 0.0)
    rng = np.random.default_rng([seed, split])
    labels = rng.integers(0, c, n)
    keep = rng.random((n, d)) < 0.8
    inputs = prototypes[labels] * keep * rng.uniform(0.7, 1.0, (n, d))
    stray = rng.random((n, d)) < 0.04
    inputs += stray * rng.uniform(0.0, 1.0, (n, d))
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs, labels, c, d)


def _static_data(w: Workload, seed: int):
    return (
        static_prototype_dataset(w.train_samples, seed, TRAIN_SPLIT),
        static_prototype_dataset(w.eval_samples, seed, EVAL_SPLIT),
    )


def _temporal_data(w: Workload, seed: int):
    return (
        dataio.make_temporal_dataset(w.train_samples, seed=2 * seed + TRAIN_SPLIT),
        dataio.make_temporal_dataset(w.eval_samples, seed=2 * seed + EVAL_SPLIT),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="static-784",
            hidden_sizes=(500, 500),
            neuron=NeuronConfig(
                threshold=1.0, decay=0.99, decay_learnable=True, reset_mode="subtract"
            ),
            recurrent=False,
            timesteps=10,
            batch_size=256,
            train_samples=512,
            eval_samples=512,
            epochs=6,
            lr=1e-3,
            make_data=_static_data,
        ),
        Workload(
            name="temporal-recurrent",
            hidden_sizes=(64, 64),
            neuron=NeuronConfig(),
            recurrent=True,
            timesteps=10,
            batch_size=128,
            train_samples=1024,
            eval_samples=1024,
            epochs=16,
            lr=3e-3,
            make_data=_temporal_data,
        ),
    )
}
