import base64
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


# A format-version-1 checkpoint, bytes as saved: a 12-5-4 net (T=2,
# recurrent, zero reset, learnable decay) built as `trained_net(recurrent=True)`
# builds one, but with hidden sizes [5, 4] and T=2, trained 4 epochs in
# batches of 16, with meta {"dataset": "synthetic:blobs", "seed": 0}. The
# bytes live here because fixture directories are not committed.
V1_CHECKPOINT = base64.b64decode("""
U0ZGQwEAAADCBAAAeyJjbGFzc19jb3VudCI6IDIsICJmb3JtYXRfdmVyc2lvbiI6IDEsICJp
bnB1dF9kaW0iOiAxMiwgImxheWVycyI6IFt7ImJhdGNoZXNfdHJhY2tlZCI6IDMyLCAiZXBz
IjogMWUtMDUsICJtb21lbnR1bSI6IDAuMSwgIm5faW4iOiAxMiwgIm5fb3V0IjogNSwgIm5l
dXJvbiI6IHsiZGVjYXkiOiAwLjksICJkZWNheV9sZWFybmFibGUiOiB0cnVlLCAicmVzZXRf
bW9kZSI6ICJ6ZXJvIiwgInN1cnJvZ2F0ZV9zbG9wZSI6IDIuMCwgInRocmVzaG9sZCI6IDEu
MX0sICJyZWN1cnJlbnQiOiB0cnVlfSwgeyJiYXRjaGVzX3RyYWNrZWQiOiAzMiwgImVwcyI6
IDFlLTA1LCAibW9tZW50dW0iOiAwLjEsICJuX2luIjogNSwgIm5fb3V0IjogNCwgIm5ldXJv
biI6IHsiZGVjYXkiOiAwLjksICJkZWNheV9sZWFybmFibGUiOiB0cnVlLCAicmVzZXRfbW9k
ZSI6ICJ6ZXJvIiwgInN1cnJvZ2F0ZV9zbG9wZSI6IDIuMCwgInRocmVzaG9sZCI6IDEuMX0s
ICJyZWN1cnJlbnQiOiB0cnVlfV0sICJtZXRhIjogeyJkYXRhc2V0IjogInN5bnRoZXRpYzpi
bG9icyIsICJzZWVkIjogMH0sICJ0ZW5zb3JzIjogW3sibmFtZSI6ICJsYXllcjAvd2VpZ2h0
cyIsICJzaGFwZSI6IFs1LCAxMl19LCB7Im5hbWUiOiAibGF5ZXIwL2dhbW1hIiwgInNoYXBl
IjogWzIsIDVdfSwgeyJuYW1lIjogImxheWVyMC9zaGlmdCIsICJzaGFwZSI6IFsyLCA1XX0s
IHsibmFtZSI6ICJsYXllcjAvcnVubmluZ19tZWFuIiwgInNoYXBlIjogWzIsIDVdfSwgeyJu
YW1lIjogImxheWVyMC9ydW5uaW5nX3ZhciIsICJzaGFwZSI6IFsyLCA1XX0sIHsibmFtZSI6
ICJsYXllcjAvZGVjYXlfcmF3IiwgInNoYXBlIjogWzVdfSwgeyJuYW1lIjogImxheWVyMC9y
ZWN1cnJlbnQiLCAic2hhcGUiOiBbNSwgNV19LCB7Im5hbWUiOiAibGF5ZXIxL3dlaWdodHMi
LCAic2hhcGUiOiBbNCwgNV19LCB7Im5hbWUiOiAibGF5ZXIxL2dhbW1hIiwgInNoYXBlIjog
WzIsIDRdfSwgeyJuYW1lIjogImxheWVyMS9zaGlmdCIsICJzaGFwZSI6IFsyLCA0XX0sIHsi
bmFtZSI6ICJsYXllcjEvcnVubmluZ19tZWFuIiwgInNoYXBlIjogWzIsIDRdfSwgeyJuYW1l
IjogImxheWVyMS9ydW5uaW5nX3ZhciIsICJzaGFwZSI6IFsyLCA0XX0sIHsibmFtZSI6ICJs
YXllcjEvZGVjYXlfcmF3IiwgInNoYXBlIjogWzRdfSwgeyJuYW1lIjogImxheWVyMS9yZWN1
cnJlbnQiLCAic2hhcGUiOiBbNCwgNF19XSwgInRpbWVzdGVwcyI6IDJ9AbMotZi+5T/fDqNN
Q7/KP9Fnqe2na7e/ZMm3+NSu4r99RwQVC77lPxywoDlDDdQ/F6PR427/oz/rq5rP9KTYvwEt
BSYAM9+/qODhTEbp0T9HzqjqxzfhP9OMUTVmbcc/pciMDSXPvr/f7PfwnwflvwFtvasc8KU/
C83GUlw/vT/ggWLYoxKtP9jzSaWbgeA/ICGuI/Ix1z/j2vUC7Nqhv2CGe4jA9sG/0RrCdqrJ
1T8nPhsmqbrgP+CtIMqVa9I/OhnG99MLvL9ac6ZclC7jPy9/neglfc0/tu4jK0wny7/7L0kx
l2LTv/D4mTvvWNA/dDvwPobgwj8qfIqZ9B55v0iqgXD+rqq/Hd6M6bK45D+UhmDZV/vaPya9
9MSvE8M/GQEb9rA5zb/LlhLpa7q2v8FTr2s1guS/TcOw0uc3xr/X5iU5k37Cv5alrzCcjMG/
wHKN6I8tyb8FMwrYlvrHv7IYZGgez+G/UfCtE2l7xL+lhNI+hw3CP5P7D+XVWeY/BJCD/I1R
2L9blotzgUXiv514MVzdxbq/hF06PIi12L9MBFtlkiLBP7whyLhHuc6/bVaTuAVSxb9yH7a+
Mm/Ev1u1BeGWFuQ/8XjZKLuD17+vO2UkUzTAv+Qgm3IuE9s/5qmP4mfE7z+K2ILotgTwP3tF
VcUUFPA/a7AruvgV8D/pqEx+BhzwP3v/7mYP/O8/1dypMUQA8D+I8CBVV9XvP/Ciec+dI/A/
pitTaPnj7z//KooUbbR4v1HAB6zi2HM/6Xnldc7MUT9EF0kCMrByP88xSSGC7Xk/1voWgI+A
ST/vKlOZOw95P5IA2QYehni/VhjI5uEvgT8Ph860Jf1eP2GCmKzqmeI/dusibQfn6j/hNY0F
4yjrP/ZcJOeLG+m/8qY8QL7u579hgpis6pniP3brIm0H5+o/4TWNBeMo6z/2XCTnixvpv/Km
PEC+7ue/FySrtfTdtz/oJ3M5qrm4P1oGY8Pxw8E/3OtwSEWSvT+xGLNDzyKwPxckq7X03bc/
6CdzOaq5uD9aBmPD8cPBP9zrcEhFkr0/sRizQ88isD/rYlIC5ZEBQFy6pgbzoQFAaHR7kbyK
AUAMdHBYXZ8BQAsict7DmwFAchXjwkqkxT8MG+zcrpXwv7bekwkqz+E/kIBX/zwUwj97PIGV
yk/nP9WntW6Uedq/LNm81RhH7b/y65FcLAHiP8y095kafOc/kVtbwgihyT+FU1mU2QDcP7zz
O/4YneG/vKNL3U9j7z/tRMYGCTK1vxL3pNdvRcq/Dr0TQq1U5j/7C5+l2NbYPzpdOjgik+o/
h4atSotfwD9G16ISGay5P9ljmpV3mOE/YVfZj7J93j/eVY45tGnEv0FU1LHKzOE/mmC8iCrh
3L+EMzPFR6LvPyyTcZGAo+g/bEZhINzVzL+YdpTAjv/Yv+fKDppS8Os/4UZdEN/J4T+AsIfB
SMzIvwg26elh1Nu/ZlWdVsWj5b/rldxIvifoP6NtbGXcX9U/rD5x27oItr9VbM4R8XizPyi4
tIJGK+w/pco/Ynox3T98Ns1mxrG8P2RqjuPR6dg/EMLEeV754T8ytQIYgMjjP4d2ihmcIes/
AwiIlRjg7z/1YGpJYhfwP8HymHiv1e8/grFE8J/E7z+C41AtItXvP9KcJZ9pw+8/6PYqpjcN
8D/1Gyp/Zh/wP5BtxtOk9Xq/JZ1R2dE1cz9gA7wmW09+v6zbs7W2GX+/GXyYznXOgb8SQo+6
DKt3v5bvzLg8kW4//X1cMirGgT8hMmcSO73RP0wIVYSxI7a/wyslbBNM0z/btRGEJh/bP+wm
an8KIN0/nuJpGhJaqb+iXY9LM8fhP5dvU2xdFOg/qhNbmRRW2z+dNmLBM8vPP+k5gK15tcg/
Vdg5Iasjyz9ocj6mu8rjP8yvluUZNd0//HSF4x0H0T/OQv6ssxDLP7vH+aV8jgFAvAyZGTyh
AUDNDBOoFIgBQEe45VxnjAFA3dDw7eY567/zdarOnArpPylhWx/05e2/UdpUAPM+77/rlAMa
B2XyP7yre4AX+Oa/JWhjmCU27j/ibiQK3qPyv5Bc5LyBfNK/LJcAn7rR3r/HUs4lIQbOP6Yx
1jDFHOC/7XE9nXNV5D/wRxc05brrP8/FzJuxt+i/se+sareM5T8=
""")
# A fixed batch (blob rows rounded to 2 decimals) and the labels the
# checkpoint predicts for it, which are also the rows' true labels.
V1_ROWS = np.array([
    [0.46, 0.86, 0.19, 0.59, 0.36, 0.75, 0.68, 0.76, 0.10, 0.82, 0.74, 0.58],
    [0.44, 0.74, 0.30, 0.61, 0.30, 0.48, 0.75, 0.71, 0.19, 0.88, 0.63, 0.55],
    [0.47, 0.49, 0.54, 0.57, 0.76, 0.63, 0.77, 0.53, 0.56, 0.59, 0.40, 0.45],
    [0.45, 0.77, 0.27, 0.69, 0.21, 0.51, 0.70, 0.82, 0.13, 0.72, 0.69, 0.76],
    [0.43, 0.81, 0.25, 0.63, 0.33, 0.57, 0.64, 0.74, 0.21, 0.54, 0.83, 0.63],
    [0.62, 0.49, 0.61, 0.64, 0.65, 0.42, 0.65, 0.42, 0.45, 0.38, 0.49, 0.37],
    [0.61, 0.68, 0.18, 0.75, 0.41, 0.39, 0.62, 0.66, 0.17, 0.76, 0.56, 0.63],
    [0.54, 0.36, 0.65, 0.65, 0.64, 0.48, 0.81, 0.56, 0.60, 0.42, 0.41, 0.39],
])
V1_PREDICTED = [1, 1, 0, 1, 1, 0, 1, 0]

class TestVersion1File:
    """A reader of a later format version must still read these bytes."""

    def test_load_and_save_again_gives_the_same_bytes(self, tmp_path):
        assert struct.unpack("<4sI", V1_CHECKPOINT[:8]) == (MAGIC, 1)
        path = tmp_path / "v1.sffc"
        path.write_bytes(V1_CHECKPOINT)
        net, meta = load_checkpoint(path)
        assert meta == {"dataset": "synthetic:blobs", "seed": 0}
        save_checkpoint(tmp_path / "again.sffc", net, meta=meta)
        assert (tmp_path / "again.sffc").read_bytes() == V1_CHECKPOINT

    def test_predicts_the_committed_labels(self, tmp_path):
        path = tmp_path / "v1.sffc"
        path.write_bytes(V1_CHECKPOINT)
        net, _ = load_checkpoint(path)
        batch = dataio.SampleBatch(V1_ROWS, np.zeros(len(V1_ROWS), int), 12)
        assert score_labels(net, batch).predicted.tolist() == V1_PREDICTED


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
