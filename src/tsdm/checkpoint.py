"""Model checkpoint file format.

Layout: magic "TSDM", little-endian u32 version, little-endian u64 header
length, UTF-8 JSON header (network config, per-channel normalization
stats, tensor table with name/shape/byte offset), then the concatenated
tensor payload as raw little-endian float64. Round-trips are bit-exact.
Loading checks the tensor table against the layout the header's config
builds, so a missing, extra or misshapen tensor fails at load.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .denoiser import DenoiserConfig, DenoiserParams, param_layout
from .tensor import Tensor

MAGIC = b"TSDM"
VERSION = 1


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
    """Returns (params, norm_mean, norm_std)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"bad checkpoint magic {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    hstart, hend = 16, 16 + hlen
    if hend > len(blob):
        raise ValueError("truncated checkpoint header")
    header = json.loads(blob[hstart:hend].decode("utf-8"))
    cfg = DenoiserConfig(**header["config"])
    _check_layout(header["tensors"], cfg)
    payload = blob[hend:]
    tensors = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 8 * count
        if end > len(payload):
            raise ValueError(f"truncated payload for tensor {entry['name']}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        tensors[entry["name"]] = Tensor(arr.reshape(shape).copy(), requires_grad=True)
    params = DenoiserParams(cfg, tensors)
    return (params,
            np.asarray(header["norm_mean"], dtype=np.float64),
            np.asarray(header["norm_std"], dtype=np.float64))


def _check_layout(table, cfg: DenoiserConfig) -> None:
    """Raise a one-line ValueError naming the first tensor of the table that
    is extra, repeated or misshapen, or the first one missing from it,
    against the layout that init_params(cfg) builds."""
    layout = param_layout(cfg)
    seen = set()
    for entry in table:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in layout:
            raise ValueError(f"checkpoint tensor {name} is not in the "
                             f"network layout of its config")
        if name in seen:
            raise ValueError(f"checkpoint tensor {name} appears twice")
        if shape != layout[name]:
            raise ValueError(f"checkpoint tensor {name} has shape {shape}, "
                             f"the config's layout has {layout[name]}")
        seen.add(name)
    for name in layout:
        if name not in seen:
            raise ValueError(f"checkpoint is missing tensor {name}")
