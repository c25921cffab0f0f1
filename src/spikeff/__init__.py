"""Forward-forward training for spiking neural networks.

Layer-local contrastive learning: each hidden layer raises the mean squared
spike count (goodness) of correctly-labeled inputs and lowers it for inputs
carrying a hard-sampled wrong label. No backward pass crosses layers; no
output layer exists. Inference overlays every candidate label and picks the
one with the highest total goodness.
"""

from .dataio import (
    Dataset,
    SampleBatch,
    embed_label,
    iter_batches,
    load_binned_events,
    load_idx,
    make_blob_dataset,
    make_temporal_dataset,
    write_binned_events,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .layer import (
    LayerForwardTrace,
    SpikingLayer,
    goodness,
    init_layer,
    layer_backward,
    layer_forward,
)
from .network import FFNetwork, build_network, forward_eval, forward_train
from .neuron import NeuronConfig, surrogate_grad
from .numerics import AdamState, RngStream, adam_update
from .predictor import LabelScores, evaluate, score_labels
from .trainer import (
    EpochMetrics,
    TrainConfig,
    ff_loss,
    lr_schedule,
    sample_hard_labels,
    train,
    train_epoch,
)

__version__ = "0.1.0"
