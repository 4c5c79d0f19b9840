"""Model checkpoint file format.

Layout: magic "TSDM", little-endian u32 version, little-endian u64 header
length, UTF-8 JSON header (network config, per-channel normalization
stats, tensor table with name/shape/byte offset and, from version 2, the
payload's SHA-256), then the concatenated tensor payload as raw
little-endian float64. Round-trips are bit-exact. Loading checks each
header field's JSON type, the normalization stats against the config's
channel count (finite, std positive), the tensor table against the
layout the config builds and a version 2 payload against its hash
(version 1 files carry none); any fault is a one-line ValueError naming
the file.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, fields

import numpy as np

from .denoiser import DenoiserConfig, DenoiserParams, param_layout
from .tensor import Tensor

MAGIC = b"TSDM"
VERSION = 2  # the version save_checkpoint writes; load also reads 1


def save_checkpoint(path, params: DenoiserParams,
                    norm_mean: np.ndarray, norm_std: np.ndarray) -> None:
    norm_mean = np.asarray(norm_mean, dtype=np.float64)
    norm_std = np.asarray(norm_std, dtype=np.float64)
    table = []
    chunks = []
    offset = 0
    for name, t in params.items():
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        table.append({"name": name, "shape": list(t.data.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = {
        "config": asdict(params.config),
        "norm_mean": norm_mean.tolist(),
        "norm_std": norm_std.tolist(),
        "payload_sha256": hashlib.sha256(b"".join(chunks)).hexdigest(),
        "tensors": table,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(hbytes)))
        f.write(hbytes)
        for c in chunks:
            f.write(c)


def load_checkpoint(path):
    """Returns (params, norm_mean, norm_std). A malformed file is a
    one-line ValueError that names it and the cause."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse(blob)
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from e


def _parse(blob: bytes):
    """load_checkpoint's result from the file's bytes."""
    if blob[:4] != MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r}")
    if len(blob) < 16:
        raise ValueError(f"{len(blob)} bytes is shorter than the preamble")
    version, hlen = struct.unpack_from("<IQ", blob, 4)
    if version not in (1, VERSION):
        raise ValueError(f"unsupported version {version}")
    hend = 16 + hlen
    if hend > len(blob):
        raise ValueError("truncated header")
    try:
        header = json.loads(blob[16:hend].decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"header is not UTF-8 JSON ({e})") from e
    conf = _field(header, "config", dict)
    unknown = sorted(set(conf) - {f.name for f in fields(DenoiserConfig)})
    if unknown:
        raise ValueError(f"config has unknown keys {unknown}")
    for key in ("channels_in", *conf):
        _field(conf, key, int, "config")
    cfg = DenoiserConfig(**conf)
    norm = [np.asarray(_field(header, key, list), dtype=np.float64)
            for key in ("norm_mean", "norm_std")]
    if not all(n.ndim == 1 and np.isfinite(n).all() for n in norm):
        raise ValueError("norm_mean and norm_std must list finite numbers")
    for key, n in zip(("norm_mean", "norm_std"), norm):
        if n.size != cfg.channels_in:
            raise ValueError(f"{key} has {n.size} entries but the config "
                             f"takes {cfg.channels_in} channels")
    if not (norm[1] > 0).all():
        raise ValueError("norm_std must be positive")
    payload = blob[hend:]
    tensors = _read_tensors(_field(header, "tensors", list),
                            param_layout(cfg), payload)
    if version > 1 and (hashlib.sha256(payload).hexdigest()
                        != _field(header, "payload_sha256", str)):
        raise ValueError("payload does not match its SHA-256 (corrupt file)")
    return (DenoiserParams(cfg, tensors), *norm)


def _field(obj, key: str, kind: type, where: str = "header"):
    """obj[key] if obj is a JSON object holding `key` as a `kind` (where
    true and false are no int), else a one-line ValueError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
        raise ValueError(f"{where} field {key!r} is not {kind.__name__}")
    return obj[key]


def _read_tensors(table: list, layout: dict, payload: bytes) -> dict:
    """name -> Tensor for each entry of the header's tensor table, or a
    ValueError naming the first tensor that is mistyped, extra, repeated,
    misshapen, placed before the payload or truncated, or the first one
    of `layout` not in it."""
    tensors = {}
    for entry in table:
        name = _field(entry, "name", str, "tensor entry")
        where = f"tensor {name}"
        shape = tuple(_field(entry, "shape", list, where))
        start = _field(entry, "offset", int, where)
        if name not in layout:
            raise ValueError(f"{where} is not in the network layout of its "
                             f"config")
        if name in tensors:
            raise ValueError(f"{where} appears twice")
        if shape != layout[name]:
            raise ValueError(f"{where} has shape {shape}, the config's "
                             f"layout has {layout[name]}")
        count = int(np.prod(layout[name]))
        if start < 0:
            raise ValueError(f"{where} has negative offset {start}")
        if start + 8 * count > len(payload):
            raise ValueError(f"truncated payload for {where}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        tensors[name] = Tensor(arr.reshape(layout[name]).copy(),
                               requires_grad=True)
    for name in layout:
        if name not in tensors:
            raise ValueError(f"missing tensor {name}")
    return tensors
