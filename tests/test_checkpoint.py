import errno
import json
import struct

import numpy as np
import pytest

from spikeff import checkpoint, dataio
from spikeff.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from spikeff.errors import CheckpointVersionError, FormatError, TruncatedFileError
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
