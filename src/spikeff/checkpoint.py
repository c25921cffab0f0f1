"""Versioned binary checkpoint for a whole network.

Layout (little-endian):

    bytes 0..3   magic "SFFC"
    bytes 4..7   u32 format version (currently 1)
    bytes 8..11  u32 header length H
    bytes 12..   H bytes of UTF-8 JSON: architecture, neuron configs,
                 per-timestep stat bookkeeping, and a tensor manifest of
                 (name, shape) pairs in file order
    then         the tensors as contiguous float64 arrays, manifest order

The header's dimensions imply every tensor's name and shape; a manifest
that lists one twice, lacks one, adds one or misshapes one is refused.

Optimizer moments are not stored: a tensor's moments are made by its first
update, so a loaded network holds only its tensors, each read straight
from the file into its own array, and trains on from fresh Adam states.
A checkpoint is written to a temporary file in the same directory and
then renamed over the target (`dataio.replacing`, which BSE1 files share),
so a failed write leaves any previous file whole.
"""

import dataclasses
import json
import struct

import numpy as np

from .dataio import read_array, read_exact, replacing
from .errors import CheckpointVersionError, ConfigError, FormatError
from .layer import TENSORS, SpikingLayer, tensor_shapes
from .network import FFNetwork, check_hidden_sizes
from .neuron import NeuronConfig

MAGIC = b"SFFC"
VERSION = 1


def save_checkpoint(path, net: FFNetwork, meta: dict = None) -> None:
    """Write `net` and `meta` as a checkpoint, every tensor as float64.

    The file is written beside `path` and renamed over it
    (`dataio.replacing`), so a failed save leaves any previous file whole.
    """
    tensors = []
    layer_meta = []
    for i, layer in enumerate(net.layers):
        tensors.extend(
            (f"layer{i}/{name}", t) for name, t in layer.stored_tensors().items()
        )
        layer_meta.append(
            {
                "n_in": layer.n_in,
                "n_out": layer.n_out,
                "neuron": dataclasses.asdict(layer.neuron),
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
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(blob)))
        f.write(blob)
        for _, tensor in tensors:
            f.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


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


def _network(header: dict, f, path: str) -> FFNetwork:
    """Read the manifest's tensors from f, check them against the one
    `{layer{i}/{name}: shape}` map the header implies, and assemble the
    network."""
    try:  # a network needs a layer, units in each, a timestep and a class
        check_hidden_sizes([int(lm["n_out"]) for lm in header["layers"]])
    except ConfigError as exc:
        raise ValueError(f"layer widths: {exc.violations[0]}") from None
    for key in ("timesteps", "class_count"):
        if int(header[key]) < 1:
            raise ValueError(f"{key} is {header[key]}, need >= 1")
    t_steps, n_in = int(header["timesteps"]), int(header["input_dim"])
    configs = [NeuronConfig(**lm["neuron"]) for lm in header["layers"]]
    expected = {}
    for i, (lm, cfg) in enumerate(zip(header["layers"], configs)):
        if int(lm["n_in"]) != n_in:
            raise ValueError(f"layer {i} n_in is {lm['n_in']}, expected {n_in}")
        shapes = tensor_shapes(n_in, int(lm["n_out"]), t_steps)
        if not cfg.decay_learnable:
            del shapes["decay_raw"]
        if lm["recurrent"] is not True:
            del shapes["recurrent"]
        expected.update({f"layer{i}/{name}": shape for name, shape in shapes.items()})
        n_in = int(lm["n_out"])
    arrays = {}
    for entry in header["tensors"]:
        key, shape = entry["name"], tuple(int(n) for n in entry["shape"])
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in tensor shape {shape}")
        if key in arrays:
            raise FormatError(f"{path}: the manifest lists {key} twice")
        arrays[key] = read_array(f, shape, path)
    missing = [key for key in expected if key not in arrays]
    extra = [key for key in arrays if key not in expected]
    if missing or extra:
        raise FormatError(
            f"{path}: tensors disagree with the layer headers "
            f"(missing {missing}, not expected {extra})"
        )
    for key, shape in expected.items():
        if arrays[key].shape != shape:
            raise ValueError(
                f"{key} has shape {arrays[key].shape}, but the header's "
                f"timesteps/input_dim/n_in/n_out imply {shape}"
            )
    layers = []
    for i, (lm, cfg) in enumerate(zip(header["layers"], configs)):
        stored = {name: arrays[f"layer{i}/{name}"] for name in TENSORS
                  if f"layer{i}/{name}" in expected}
        layers.append(
            SpikingLayer(
                **stored,
                neuron=cfg,
                batches_tracked=lm["batches_tracked"],
                momentum=lm["momentum"],
                eps=lm["eps"],
            )
        )
    return FFNetwork(layers, header["class_count"])


def load_checkpoint(path):
    """Read a checkpoint; returns (network, meta dict).

    A short file raises TruncatedFileError; a header that is not JSON, lacks
    a field or holds a bad value raises FormatError, which names the path
    once.
    """
    path = str(path)
    with open(path, "rb") as f:
        header = _read_header(f, path)
        try:
            return _network(header, f, path), header.get("meta", {})
        except FormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed header ({exc!r})") from exc
