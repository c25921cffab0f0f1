import errno
import json
import math
import struct

import numpy as np
import pytest

from spikeff import checkpoint, dataio
from spikeff.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from spikeff.errors import CheckpointVersionError, FormatError, TruncatedFileError
from spikeff.layer import tensor_shapes
from spikeff.network import build_network
from spikeff.neuron import NeuronConfig
from spikeff.numerics import RngStream
from spikeff.predictor import score_labels
from spikeff.trainer import TrainConfig, train


def trained_net(recurrent=False, learnable=True):
    ds = dataio.make_blob_dataset(64, seed=0)
    cfg = NeuronConfig(threshold=1.1, decay=0.9, decay_learnable=learnable,
                       reset_mode="zero" if recurrent else "subtract")
    net = build_network([6, 5], ds.input_dim, ds.class_count, 4, cfg,
                        RngStream(2), recurrent=recurrent)
    train(net, ds, TrainConfig(epochs=1, batch_size=32, eval_every=0))
    return net, ds


class TestRoundTrip:
    @pytest.mark.parametrize("recurrent,learnable", [(False, True), (True, False)])
    def test_all_tensors_survive(self, tmp_path, recurrent, learnable):
        net, _ = trained_net(recurrent, learnable)
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net, meta={"note": "roundtrip"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "roundtrip"}
        assert (loaded.class_count, loaded.input_dim, loaded.timesteps) == (
            net.class_count, net.input_dim, net.timesteps)
        assert len(loaded.layers) == len(net.layers)
        for a, b in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.gamma, b.gamma)
            np.testing.assert_array_equal(a.shift, b.shift)
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)
            assert a.batches_tracked == b.batches_tracked
            assert a.neuron == b.neuron
            if a.decay_raw is None:
                assert b.decay_raw is None
            else:
                np.testing.assert_array_equal(a.decay_raw, b.decay_raw)
            if a.recurrent is None:
                assert b.recurrent is None
            else:
                np.testing.assert_array_equal(a.recurrent, b.recurrent)

    def test_header_lists_tensors_in_order(self, tmp_path):
        net, _ = trained_net(recurrent=True, learnable=True)
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + length])
        names = ("weights", "gamma", "shift", "running_mean", "running_var",
                 "decay_raw", "recurrent")
        assert [t["name"] for t in header["tensors"]] == [
            f"layer{i}/{name}" for i in range(2) for name in names
        ]

    def test_predictions_identical_after_reload(self, tmp_path):
        net, ds = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        loaded, _ = load_checkpoint(path)
        batch = dataio.SampleBatch(ds.inputs[:10], ds.labels[:10], ds.input_dim)
        original = score_labels(net, batch)
        reloaded = score_labels(loaded, batch)
        assert original.scores.tobytes() == reloaded.scores.tobytes()


def save_edited_header(path, edit):
    """Save a trained 6-5 net (T=4) with its JSON header changed by edit."""
    net, _ = trained_net()
    save_checkpoint(path, net)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + length])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<II", VERSION, len(text)) + text
                     + blob[12 + length :])


def save_edited_tensors(path, net, edit):
    """Save net, then rewrite the file with its tensors (a dict of manifest
    name -> array, in file order) changed by edit; the layer headers stay."""
    save_checkpoint(path, net)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + length])
    tensors, offset = {}, 12 + length
    for entry in header["tensors"]:
        count = math.prod(entry["shape"])
        tensors[entry["name"]] = np.frombuffer(
            blob, "<f8", count, offset).reshape(entry["shape"])
        offset += 8 * count
    edit(tensors)
    header["tensors"] = [{"name": name, "shape": list(array.shape)}
                         for name, array in tensors.items()]
    text = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<II", VERSION, len(text)) + text
                     + b"".join(a.astype("<f8").tobytes()
                                for a in tensors.values()))


def save_empty_dimension(path, edit):
    """Save a trained 6-5 net (T=4) with its header changed by edit and its
    tensors zeros of the shapes the edited header implies: a file whose
    only fault is a dimension of no size."""
    net, _ = trained_net()
    save_checkpoint(path, net)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + length])
    edit(header)
    shapes, n_in = {}, header["input_dim"]
    for i, lm in enumerate(header["layers"]):
        for name, shape in tensor_shapes(n_in, lm["n_out"],
                                         header["timesteps"]).items():
            shapes[f"layer{i}/{name}"] = shape
        n_in = lm["n_out"]
    header["tensors"] = [{"name": e["name"], "shape": list(shapes[e["name"]])}
                         for e in header["tensors"] if e["name"] in shapes]
    text = json.dumps(header).encode()
    payload = sum(8 * math.prod(e["shape"]) for e in header["tensors"])
    path.write_bytes(blob[:4] + struct.pack("<II", VERSION, len(text)) + text
                     + bytes(payload))


class TestFormatGuards:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"JUNKxxxxxxxx")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(path)

    def test_truncated_tensor_payload(self, tmp_path):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_truncation_at_any_offset_is_typed(self, tmp_path):
        net, _ = trained_net(recurrent=True)
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net, meta={"seed": 3})
        blob = path.read_bytes()
        cut = tmp_path / "cut.sffc"
        for offset in range(len(blob)):
            cut.write_bytes(blob[:offset])
            with pytest.raises((TruncatedFileError, FormatError)):
                load_checkpoint(cut)

    def test_header_not_json(self, tmp_path):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        blob = bytearray(path.read_bytes())
        blob[12] = ord("x")  # the header's opening brace
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("layers"),
        lambda h: h.pop("tensors"),
        lambda h: h["layers"][0].pop("batches_tracked"),
        lambda h: h["layers"][0]["neuron"].update(threshold=-1.0),
        lambda h: h["layers"][0]["neuron"].update(reset="zero"),
        lambda h: h["tensors"][0].update(shape=[-1, 12]),
        lambda h: h.update(meta=[1, 2]),
        lambda h: h["tensors"].pop(0),
    ], ids=["no layers", "no tensors", "no batches_tracked", "bad threshold",
            "unknown neuron key", "negative dimension", "meta not an object",
            "no layer0 weights"])
    def test_header_with_wrong_structure(self, tmp_path, edit):
        path = tmp_path / "net.sffc"
        save_edited_header(path, edit)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(timesteps=2),
        lambda h: h.update(input_dim=h["input_dim"] + 1),
        lambda h: h["layers"][0].update(n_in=h["layers"][0]["n_in"] - 1),
        lambda h: h["layers"][0].update(n_out=7),
        lambda h: h["layers"][1].update(n_in=7),
        lambda h: h["layers"][1].update(n_out=4),
    ], ids=["timesteps", "input_dim", "layer0 n_in", "layer0 n_out",
            "layer1 n_in", "layer1 n_out"])
    def test_header_dimension_disagreeing_with_tensors(self, tmp_path, edit):
        path = tmp_path / "net.sffc"
        save_edited_header(path, edit)
        with pytest.raises(FormatError, match="shape|n_in"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h: h.update(layers=[]), "layer widths"),
        (lambda h: h["layers"][1].update(n_out=0), "layer widths"),
        (lambda h: h.update(timesteps=0), "timesteps is 0"),
        (lambda h: h.update(class_count=0), "class_count is 0"),
    ], ids=["no layers", "a layer of no units", "no timesteps", "no classes"])
    def test_header_with_an_empty_dimension(self, tmp_path, edit, match):
        path = tmp_path / "net.sffc"
        save_empty_dimension(path, lambda header: None)
        assert load_checkpoint(path)[0].layers[1].n_out == 5  # unedited: loads
        save_empty_dimension(path, edit)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("recurrent,learnable,edit", [
        (True, True, lambda t: t.pop("layer1/recurrent")),
        (False, True, lambda t: t.pop("layer0/decay_raw")),
        (False, True, lambda t: t.update({"layer0/recurrent": np.zeros((6, 6))})),
        (True, False, lambda t: t.update({"layer1/decay_raw": np.zeros(5)})),
        (False, True, lambda t: t.update({"layer0/bias": np.zeros(6)})),
        (False, True, lambda t: t.update({"layer2/weights": np.zeros((4, 5))})),
    ], ids=["recurrent header, no recurrent tensor",
            "learnable header, no decay_raw tensor",
            "recurrent tensor, non-recurrent header",
            "decay_raw tensor, fixed-decay header",
            "unknown tensor name", "tensor of a layer with no header"])
    def test_tensors_disagreeing_with_layer_headers(self, tmp_path, recurrent,
                                                    learnable, edit):
        net, _ = trained_net(recurrent, learnable)
        path = tmp_path / "net.sffc"
        save_edited_tensors(path, net, lambda tensors: None)
        assert load_checkpoint(path)[0].layers[1].n_out == 5  # unedited: loads
        save_edited_tensors(path, net, edit)
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        message = str(info.value)  # raised as it is, not wrapped again
        assert "disagree with the layer headers" in message, message
        assert message.count(str(path)) == 1, message
        assert "FormatError(" not in message, message

    def test_tensor_listed_twice_is_refused(self, tmp_path):
        """A second `layer0/weights` entry, its bytes (all 7.0) written in, so
        the file is whole: refused as a duplicate, not as a truncation."""
        ds = dataio.make_blob_dataset(16, seed=0)
        net = build_network([6], ds.input_dim, ds.class_count, 4,
                            NeuronConfig(), RngStream(2))
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        assert load_checkpoint(path)[0].layers[0].n_out == 6  # unedited: loads
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + length])
        shape = net.layers[0].weights.shape
        header["tensors"].append({"name": "layer0/weights", "shape": list(shape)})
        text = json.dumps(header).encode()
        path.write_bytes(blob[:4] + struct.pack("<II", VERSION, len(text)) + text
                         + blob[12 + length :] + np.full(shape, 7.0).tobytes())
        with pytest.raises(FormatError, match="layer0/weights twice"):
            load_checkpoint(path)

    def test_tensor_larger_than_its_file_refused_before_allocating(self, tmp_path):
        """A manifest entry of 80 GB in a file of a few kB: refused from the
        file's size, not by a failed allocation."""
        path = tmp_path / "net.sffc"
        save_edited_header(
            path, lambda h: h["tensors"][0].update(shape=[10**5, 10**5]))
        with pytest.raises(TruncatedFileError, match="needed 799999"):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert MAGIC == b"SFFC"


class FailingWriter:
    """A file whose write fails, as on a full disk, after `writes_ok` writes."""

    def __init__(self, f, writes_ok):
        self.f, self.writes_ok = f, writes_ok

    def write(self, data):
        if self.writes_ok == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes_ok -= 1
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestAtomicWrite:
    @pytest.mark.parametrize("writes_ok", [0, 3, 5])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                  writes_ok):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net, meta={"epoch": 1})
        before = path.read_bytes()
        monkeypatch.setattr(
            checkpoint, "open",
            lambda *args: FailingWriter(open(*args), writes_ok), raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, net, meta={"epoch": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.sffc"]

    def test_failed_tensor_conversion_keeps_the_previous_file(self, tmp_path,
                                                              monkeypatch):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net)
        before = path.read_bytes()
        # the header and layer 0 are written before this tensor fails
        monkeypatch.setattr(net.layers[1], "shift",
                            np.full(net.layers[1].shift.shape, "x", dtype=object))
        with pytest.raises(ValueError):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.sffc"]

    def test_save_replaces_the_file(self, tmp_path):
        net, _ = trained_net()
        path = tmp_path / "net.sffc"
        save_checkpoint(path, net, meta={"epoch": 1})
        save_checkpoint(path, net, meta={"epoch": 2})
        assert load_checkpoint(path)[1] == {"epoch": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["net.sffc"]
