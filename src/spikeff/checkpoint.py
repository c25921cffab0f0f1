"""Versioned binary checkpoint for a whole network.

Layout (little-endian):

    bytes 0..3   magic "SFFC"
    bytes 4..7   u32 format version (currently 1)
    bytes 8..11  u32 header length H
    bytes 12..   H bytes of UTF-8 JSON: architecture, neuron configs,
                 per-timestep stat bookkeeping, and a tensor manifest of
                 (name, shape) pairs in file order
    then         the tensors as contiguous float64 arrays, manifest order

Optimizer moments are not stored; loading yields fresh Adam states. A
checkpoint is written to a temporary file in the same directory and then
renamed over the target, so a failed write leaves any previous file whole.
"""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .dataio import read_exact
from .errors import CheckpointVersionError, FormatError
from .layer import SpikingLayer
from .network import FFNetwork
from .neuron import NeuronConfig
from .numerics import AdamState

MAGIC = b"SFFC"
VERSION = 1


def _layer_tensors(index: int, layer: SpikingLayer):
    named = [
        (f"layer{index}/weights", layer.weights),
        (f"layer{index}/gamma", layer.gamma),
        (f"layer{index}/shift", layer.shift),
        (f"layer{index}/running_mean", layer.running_mean),
        (f"layer{index}/running_var", layer.running_var),
    ]
    if layer.decay_raw is not None:
        named.append((f"layer{index}/decay_raw", layer.decay_raw))
    if layer.recurrent is not None:
        named.append((f"layer{index}/recurrent", layer.recurrent))
    return named


def save_checkpoint(path, net: FFNetwork, meta: dict = None) -> None:
    tensors = []
    layer_meta = []
    for i, layer in enumerate(net.layers):
        tensors.extend(_layer_tensors(i, layer))
        cfg = layer.neuron
        layer_meta.append(
            {
                "n_in": layer.n_in,
                "n_out": layer.n_out,
                "neuron": {
                    "threshold": cfg.threshold,
                    "decay": cfg.decay,
                    "decay_learnable": cfg.decay_learnable,
                    "reset_mode": cfg.reset_mode,
                    "surrogate_slope": cfg.surrogate_slope,
                },
                "recurrent": layer.recurrent is not None,
                "batches_tracked": layer.batches_tracked,
                "momentum": layer.momentum,
                "eps": layer.eps,
            }
        )
    header = {
        "format_version": VERSION,
        "class_count": net.class_count,
        "input_dim": net.input_dim,
        "timesteps": net.timesteps,
        "layers": layer_meta,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(blob)))
            f.write(blob)
            for _, tensor in tensors:
                f.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(f, path: str) -> dict:
    """Magic, version and the JSON header; the file is left at the tensors."""
    magic = read_exact(f, 4, path)
    if magic != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (magic {magic!r})")
    version, header_len = struct.unpack("<II", read_exact(f, 8, path))
    if version != VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} is incompatible with "
            f"this build (expected {VERSION})"
        )
    blob = read_exact(f, header_len, path)
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise FormatError(f"{path}: header or its meta is not a JSON object")
    return header


def read_meta(path) -> dict:
    """The free-form meta dict of a checkpoint, without reading its tensors."""
    with open(path, "rb") as f:
        return _read_header(f, str(path)).get("meta", {})


def _check_shapes(header: dict, arrays: dict) -> None:
    """Every tensor's shape must be the one the header's dimensions imply."""
    t_steps, n_in = int(header["timesteps"]), int(header["input_dim"])
    for i, lm in enumerate(header["layers"]):
        if int(lm["n_in"]) != n_in:
            raise ValueError(f"layer {i} n_in is {lm['n_in']}, expected {n_in}")
        n_out = int(lm["n_out"])
        expected = {
            "weights": (n_out, n_in),
            "gamma": (t_steps, n_out),
            "shift": (t_steps, n_out),
            "running_mean": (t_steps, n_out),
            "running_var": (t_steps, n_out),
            "decay_raw": (n_out,),
            "recurrent": (n_out, n_out),
        }
        for name, shape in expected.items():
            key = f"layer{i}/{name}"
            if key in arrays and arrays[key].shape != shape:
                raise ValueError(
                    f"{key} has shape {arrays[key].shape}, but the header's "
                    f"timesteps/input_dim/n_in/n_out imply {shape}"
                )
        n_in = n_out


def _network(header: dict, f, path: str) -> FFNetwork:
    """Read the manifest's tensors from f and assemble the network."""
    arrays = {}
    for entry in header["tensors"]:
        shape = tuple(int(n) for n in entry["shape"])
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in tensor shape {shape}")
        raw = read_exact(f, 8 * math.prod(shape), path)
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    _check_shapes(header, arrays)
    layers = []
    for i, lm in enumerate(header["layers"]):
        layer = SpikingLayer(
            weights=arrays[f"layer{i}/weights"],
            gamma=arrays[f"layer{i}/gamma"],
            shift=arrays[f"layer{i}/shift"],
            running_mean=arrays[f"layer{i}/running_mean"],
            running_var=arrays[f"layer{i}/running_var"],
            neuron=NeuronConfig(**lm["neuron"]),
            decay_raw=arrays.get(f"layer{i}/decay_raw"),
            recurrent=arrays.get(f"layer{i}/recurrent"),
            batches_tracked=lm["batches_tracked"],
            momentum=lm["momentum"],
            eps=lm["eps"],
        )
        layer.adam = {
            name: AdamState.for_param(tensor)
            for name, tensor in layer.trainable_tensors().items()
        }
        layers.append(layer)
    return FFNetwork(
        layers, header["class_count"], header["input_dim"], header["timesteps"]
    )


def load_checkpoint(path):
    """Read a checkpoint; returns (network, meta dict).

    A short file raises TruncatedFileError; a header that is not JSON, lacks
    a field or holds a bad value raises FormatError.
    """
    path = str(path)
    with open(path, "rb") as f:
        header = _read_header(f, path)
        try:
            return _network(header, f, path), header.get("meta", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed header ({exc!r})") from exc
