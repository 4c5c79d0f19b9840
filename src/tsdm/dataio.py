"""CSV I/O for measurement matrices and observability masks.

Matrices are stored channels x time, one channel per row, values
printed with 12 significant digits, 'NaN' marking missing entries.
An optional first row carries channel names (detected by any token
that does not parse as a number).
"""

from __future__ import annotations

import csv

import numpy as np


def _format_value(v: float) -> str:
    if np.isnan(v):
        return "NaN"
    return f"{v:.12g}"


def _parse_value(token: str, row: int, col: int) -> float:
    t = token.strip()
    if t.lower() == "nan":
        return np.nan
    try:
        v = float(t)
    except ValueError:
        raise ValueError(f"unknown token {token!r} at row {row}, col {col}")
    if not np.isfinite(v):
        raise ValueError(f"unknown token {token!r} at row {row}, col {col}")
    return v


def _is_numeric(token: str) -> bool:
    t = token.strip()
    if t.lower() == "nan":
        return True
    try:
        float(t)
    except ValueError:
        return False
    return True


def save_matrix_csv(path, x: np.ndarray, header=None) -> None:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a channels x time matrix, got {x.shape}")
    if header is not None and len(header) != x.shape[0]:
        raise ValueError("header length must match channel count")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if header is not None:
            w.writerow(header)
        for row in x:
            w.writerow([_format_value(v) for v in row])


def load_matrix_csv(path):
    """Returns (matrix, header-or-None)."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = None
    if not all(_is_numeric(tok) for tok in rows[0]):
        header = [tok.strip() for tok in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {i} ({len(row)} vs {width} columns)")
        for j, tok in enumerate(row):
            data[i, j] = _parse_value(tok, i, j)
    if header is not None and len(header) != data.shape[0]:
        raise ValueError(f"{path}: header names one row per channel")
    return data, header


def save_mask_csv(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask must be binary (0/1)")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in mask:
            w.writerow([str(int(v)) for v in row])


def load_mask_csv(path) -> np.ndarray:
    data, header = load_matrix_csv(path)
    if header is not None:
        raise ValueError(f"{path}: masks must not carry a header row")
    if not np.all((data == 0.0) | (data == 1.0)):
        raise ValueError(f"{path}: mask must be binary (0/1)")
    return data
