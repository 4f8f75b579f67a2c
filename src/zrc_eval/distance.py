"""Framewise distances and the DTW path-averaged sequence distance.

Two frame metrics are supported:

* ``angular`` - arccos of the normalized dot product, in radians
* ``kl``      - Kullback-Leibler divergence between probability frames
                (posteriorgrams), entries floored at 1e-10 before the log

``dtw_distance`` aligns two frame sequences with steps (1,0), (0,1), (1,1)
anchored at both corners, minimizes the summed framewise distance, and
reports the mean distance over the optimal path (ties in the alignment
broken by preferring diagonal, then vertical, then horizontal steps).

The accumulation loop over the cost matrix lives in ``_dtw_py``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _dtw_py as _kernel

FRAME_METRICS = ("angular", "kl")

KL_EPS = 1e-10


def angular_frame_distance(x, y) -> float:
    """Angle between two vectors in radians, in [0, pi]. Scale-invariant.

    Computed as 2*arcsin(chord/2) over the unit-normalized vectors, which
    equals the arccos of the clamped normalized dot product but stays
    exactly 0 for identical directions.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angular distance undefined for zero-norm vectors")
    chord = np.linalg.norm(x / nx - y / ny)
    return float(2.0 * math.asin(min(1.0, 0.5 * chord)))


def kl_frame_distance(p, q) -> float:
    """KL divergence sum(p * ln(p/q)) between two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    for v in (p, q):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-6:
            raise ValueError("KL distance requires probability vectors")
    p = np.maximum(p, KL_EPS)
    q = np.maximum(q, KL_EPS)
    return float(np.sum(p * np.log(p / q)))


def _frames(x) -> np.ndarray:
    arr = x.frames if hasattr(x, "frames") else np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("expected a non-empty T x D frame matrix")
    return arr


def frame_cost_matrix(rx, ry, metric: str = "angular") -> np.ndarray:
    """All pairwise framewise distances between two sequences (T x S)."""
    fx, fy = _frames(rx), _frames(ry)
    if fx.shape[1] != fy.shape[1]:
        raise ValueError(
            f"dimension mismatch: {fx.shape[1]} vs {fy.shape[1]}")
    if metric == "angular":
        nx = np.linalg.norm(fx, axis=1)
        ny = np.linalg.norm(fy, axis=1)
        if (nx == 0).any() or (ny == 0).any():
            raise ValueError("angular distance undefined for zero-norm frames")
        ux = fx / nx[:, None]
        uy = fy / ny[:, None]
        diff = ux[:, None, :] - uy[None, :, :]
        chord = np.sqrt(np.einsum("tsd,tsd->ts", diff, diff))
        return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    if metric == "kl":
        for f in (fx, fy):
            if (f < 0).any() or np.abs(f.sum(axis=1) - 1.0).max() > 1e-6:
                raise ValueError("KL distance requires probability frames")
        px = np.maximum(fx, KL_EPS)
        qy = np.maximum(fy, KL_EPS)
        row_term = np.sum(px * np.log(px), axis=1)
        return row_term[:, None] - px @ np.log(qy).T
    raise ValueError(f"unknown frame metric {metric!r}")


def dtw_distance(rx, ry, metric: str = "angular") -> float:
    """Mean framewise distance along the optimal DTW alignment path."""
    cost = np.ascontiguousarray(frame_cost_matrix(rx, ry, metric))
    total, length = _kernel.dtw_accumulate(cost)
    return float(total) / length
