import hashlib
import json
import struct

import numpy as np
import pytest

from tsdm.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from tsdm.denoiser import DenoiserConfig, init_params, param_layout


@pytest.fixture()
def small_params():
    cfg = DenoiserConfig(channels_in=3, base_width=8, depth=1,
                         time_embed_dim=8, kernel=3)
    params = init_params(cfg, seed=99)
    # make payload values non-trivial everywhere, including the zero head
    rng = np.random.default_rng(99)
    for _, t in params.items():
        t.data += rng.normal(0, 0.3, t.data.shape)
    return params


def test_round_trip_is_bit_exact(tmp_path, small_params):
    mean = np.array([0.1, -2.5, 1e-17])
    std = np.array([1.0, 0.3333333333333333, 7.7e5])
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, mean, std)
    loaded, lmean, lstd = load_checkpoint(path)
    assert loaded.config == small_params.config
    assert list(loaded.tensors) == list(small_params.tensors)
    for name, t in small_params.items():
        got = loaded[name].data
        assert got.dtype == np.float64
        assert np.array_equal(got, t.data)
        assert got.shape == t.data.shape
    np.testing.assert_array_equal(lmean, mean)
    np.testing.assert_array_equal(lstd, std)


def test_save_load_save_is_byte_identical(tmp_path, small_params):
    p1 = tmp_path / "a.tsdm"
    p2 = tmp_path / "b.tsdm"
    save_checkpoint(p1, small_params, np.zeros(3), np.ones(3))
    loaded, m, s = load_checkpoint(p1)
    save_checkpoint(p2, loaded, m, s)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", VERSION + 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_negative_offset_rejected(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    header, _ = _header(path.read_bytes())
    entry = header["tensors"][0]
    entry["offset"] = -8
    _with_header(path, json.dumps(header).encode("utf-8"))
    assert _load_error(path) == (f"checkpoint {path}: tensor {entry['name']} "
                                 f"has negative offset -8")


def _with_header(path, hbytes):
    """Rewrite the checkpoint at path with hbytes as its header."""
    blob = path.read_bytes()
    path.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(hbytes)) + hbytes
                     + blob[_header(blob)[1]:])


def _load_error(path):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message
    return message


def test_short_preamble_rejected(tmp_path):
    path = tmp_path / "model.tsdm"
    path.write_bytes(b"TSDM\x02\x00")
    assert "6 bytes is shorter than the preamble" in _load_error(path)


@pytest.mark.parametrize("hbytes, cause", [
    (b"\xff\xfe{}", "header is not UTF-8 JSON"),
    (b"{not json", "header is not UTF-8 JSON"),
    (b"", "header is not UTF-8 JSON"),
    (b"[1, 2]", "header has no field 'config'"),
])
def test_header_that_is_not_a_json_object_rejected(tmp_path, small_params,
                                                   hbytes, cause):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    _with_header(path, hbytes)
    assert cause in _load_error(path)


def _drop(key):
    return lambda h: h.pop(key)


def _set(key, value, part=lambda h: h):
    return lambda h: part(h).update({key: value})


@pytest.mark.parametrize("edit, cause", [
    (_drop("config"), "header has no field 'config'"),
    (_drop("tensors"), "header has no field 'tensors'"),
    (_drop("norm_std"), "header has no field 'norm_std'"),
    (_drop("payload_sha256"), "header has no field 'payload_sha256'"),
    (_set("config", [3]), "header field 'config' is not dict"),
    (_set("tensors", {}), "header field 'tensors' is not list"),
    (_set("norm_mean", [0.0, None, 0.0]), "must list finite numbers"),
    (_set("norm_std", "1,1,1"), "header field 'norm_std' is not list"),
    (_set("norm_mean", [0.0, 0.0]),
     "norm_mean has 2 entries but the config takes 3 channels"),
    (_set("norm_std", [1.0, 1.0, 1.0, 1.0]),
     "norm_std has 4 entries but the config takes 3 channels"),
    (_set("norm_std", [1.0, -1.0, 1.0]), "norm_std must be positive"),
    (_set("norm_std", [1.0, 1.0, 0.0]), "norm_std must be positive"),
    (_set("norm_std", [1.0, 1.0, -0.0]), "norm_std must be positive"),
    (_set("dropout", 0.1, lambda h: h["config"]),
     "config has unknown keys ['dropout']"),
    (lambda h: h["config"].pop("channels_in"),
     "config has no field 'channels_in'"),
    (_set("depth", "1", lambda h: h["config"]),
     "config field 'depth' is not int"),
    (_set("channels_in", True, lambda h: h["config"]),
     "config field 'channels_in' is not int"),
    (_set("offset", 0.0, lambda h: h["tensors"][0]),
     "field 'offset' is not int"),
    (lambda h: h["tensors"][1].pop("shape"), "has no field 'shape'"),
    (lambda h: h["tensors"].append(7), "tensor entry has no field 'name'"),
])
def test_malformed_header_field_rejected(tmp_path, small_params, edit, cause):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    header, _ = _header(path.read_bytes())
    edit(header)
    _with_header(path, json.dumps(header).encode("utf-8"))
    assert cause in _load_error(path)


def test_magic_constant():
    assert MAGIC == b"TSDM"
    assert VERSION == 2


def test_dropped_tensor_rejected_at_load(tmp_path, small_params):
    del small_params.tensors["mid.rb0.conv1.b"]
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match=r"missing tensor mid\.rb0\.conv1\.b$"):
        load_checkpoint(path)


def test_reshaped_tensor_rejected_at_load(tmp_path, small_params):
    t = small_params.tensors["stem.w"]
    t.data = t.data.reshape(t.data.shape[0], 1, -1)
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match=r"tensor stem\.w has shape"):
        load_checkpoint(path)


def test_extra_tensor_rejected_at_load(tmp_path, small_params):
    small_params.tensors["head.extra"] = small_params.tensors["head.gn.g"]
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match=r"tensor head\.extra is not in"):
        load_checkpoint(path)


def test_param_layout_matches_init_params(small_params):
    layout = param_layout(small_params.config)
    assert list(layout) == list(small_params.tensors)
    for name, t in small_params.items():
        assert layout[name] == t.data.shape


def _header(blob):
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + hlen]), 16 + hlen


def test_saved_header_carries_payload_sha256(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = path.read_bytes()
    header, hend = _header(blob)
    assert struct.unpack_from("<I", blob, 4) == (2,)
    assert header["payload_sha256"] == hashlib.sha256(blob[hend:]).hexdigest()


def test_flipped_payload_byte_is_one_line_error(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = bytearray(path.read_bytes())
    _, hend = _header(blob)
    blob[hend + 100] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="SHA-256") as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)


def test_version1_file_without_hash_still_loads(tmp_path, small_params):
    path = tmp_path / "model.tsdm"
    save_checkpoint(path, small_params, np.zeros(3), np.ones(3))
    blob = path.read_bytes()
    header, hend = _header(blob)
    del header["payload_sha256"]
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    v1 = (MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(hbytes))
          + hbytes + blob[hend:])
    path.write_bytes(v1)
    loaded, _, _ = load_checkpoint(path)
    for name, t in small_params.items():
        assert np.array_equal(loaded[name].data, t.data)
