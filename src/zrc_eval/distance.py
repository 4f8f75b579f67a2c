"""Framewise distances and the DTW path-averaged sequence distance.

Two frame metrics are supported:

* ``angular`` - arccos of the normalized dot product, in radians
* ``kl``      - Kullback-Leibler divergence between probability frames
                (posteriorgrams), entries floored at 1e-10 before the log

``dtw_distance`` aligns two frame sequences with steps (1,0), (0,1), (1,1)
anchored at both corners, minimizes the summed framewise distance, and
reports the mean distance over the optimal path (ties in the alignment
broken by preferring diagonal, then vertical, then horizontal steps).

Work is split in three pieces that every caller shares:

* ``prepare`` validates one sequence and computes, once, what every pair
  cost involving it needs (unit-normalized frames for ``angular``; the
  floored frames, their log and the row term ``sum p log p`` for ``kl``);
* ``pair_cost`` is the one cost expression: the T x S cost matrix of one
  pair, or with leading batch axes those of many same-shape pairs, each
  slice computed exactly as the pair alone (no stacked GEMM);
* ``_dtw_py.dtw_accumulate`` runs the DTW recursion over a padded
  T x S x B stack of cost matrices, one anti-diagonal at a time.

``dtw_pairs`` drives many pairs at once. It sorts them by shape and cuts
them into runs of one ``(T, S)``; a run's frames are gathered with one
index per prepared component that ``pair_cost`` reads on that side (for
``kl``, ``p`` and the row term for x, ``log q`` for y), and its costs
come from one ``pair_cost`` call, split only where a chunk boundary falls
inside the run or where the call would exceed its budget. Two bounds keep
memory flat whatever the number of pairs: a cost call covers at most
``RUN_ELEMENTS`` T x S x D elements (the angular difference tensor), and
the kernel runs over chunks whose padded tensor holds at most
``CHUNK_CELLS`` cells. ``frame_cost_matrix`` and ``dtw_distance`` are the
one-pair case.

For ``angular``, ``dtw_pairs(..., mirror=True)`` also returns every
pair's distance the other way round from the same cost matrix and kernel
pass. The cost is symmetric (``pair_cost(y, x)`` is exactly
``pair_cost(x, y).T``: the squared differences are the same numbers,
summed in the same order), and so are the accumulated sums; only the
path length can differ, where a tie is broken the other way, and the
kernel carries it as a second step count. ``kl`` is asymmetric and a
distance callable is opaque, so both keep one cost matrix per directed
pair.
"""

from __future__ import annotations

import math

import numpy as np

from . import _dtw_py as _kernel

FRAME_METRICS = ("angular", "kl")

KL_EPS = 1e-10

# Padded cells per kernel call; larger chunks save little time and cost
# peak memory.
CHUNK_CELLS = 1 << 16

# T x S x D elements per cost call over a run of same-shape pairs: bounds
# the angular difference tensor (and the gathered frames) of one call.
# Larger calls are no faster and raise peak memory.
RUN_ELEMENTS = 1 << 17

# per metric, the prepared components ``pair_cost`` reads of x and of y
_READS = {"angular": ((0,), (0,)), "kl": ((0, 2), (1,))}


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


def prepare(x, metric: str) -> tuple:
    """Validate one frame sequence and precompute its share of pair costs.

    Returns ``(u,)`` for ``angular`` (unit-normalized frames) and
    ``(p, log p, sum p log p per row)`` for ``kl`` (frames floored at
    ``KL_EPS``). Raises ValueError on zero-norm frames (``angular``),
    non-probability frames (``kl``) or an unknown metric.
    """
    f = _frames(x)
    if metric == "angular":
        norms = np.linalg.norm(f, axis=1)
        if (norms == 0).any():
            raise ValueError("angular distance undefined for zero-norm frames")
        return (f / norms[:, None],)
    if metric == "kl":
        if (f < 0).any() or np.abs(f.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError("KL distance requires probability frames")
        p = np.maximum(f, KL_EPS)
        log_p = np.log(p)
        return (p, log_p, np.sum(p * log_p, axis=1))
    raise ValueError(f"unknown frame metric {metric!r}")


def pair_cost(x: tuple, y: tuple, metric: str) -> np.ndarray:
    """Framewise cost matrices between prepared sequences, ``... x T x S``.

    The components of ``x`` and ``y`` may carry the same leading batch
    axes (``... x T x D`` against ``... x S x D``); each batch slice is
    then exactly the one-pair expression over that pair's own frames.
    """
    if metric == "angular":
        diff = x[0][..., :, None, :] - y[0][..., None, :, :]
        chord = np.sqrt(np.einsum("...tsd,...tsd->...ts", diff, diff))
        return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    p, _, row_term = x
    return row_term[..., :, None] - p @ np.swapaxes(y[1], -1, -2)


def _check_dims(prepared) -> None:
    dims = sorted({x[0].shape[1] for x in prepared})
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch: {dims[0]} vs {dims[-1]}")


def frame_cost_matrix(rx, ry, metric: str = "angular") -> np.ndarray:
    """All pairwise framewise distances between two sequences (T x S)."""
    x, y = prepare(rx, metric), prepare(ry, metric)
    _check_dims((x, y))
    return pair_cost(x, y, metric)


def dtw_distance(rx, ry, metric: str = "angular") -> float:
    """Mean framewise distance along the optimal DTW alignment path."""
    cost = frame_cost_matrix(rx, ry, metric)
    t, s = cost.shape
    total, length = _kernel.dtw_accumulate(cost[:, :, None], [t], [s])
    return float(total[0]) / int(length[0])


def dtw_pairs(prepared, rows, cols, metric: str, mirror: bool = False):
    """``dtw_distance`` of ``prepared[rows[k]]`` to ``prepared[cols[k]]`` for
    every k, from sequences already passed through ``prepare``.

    Pairs are sorted by shape and cut into runs of one ``(T, S)``. Chunks
    are planned over runs so that each chunk's padded T x S x B cost
    tensor stays within ``CHUNK_CELLS`` cells (a pair larger than that
    runs alone), and only one chunk's costs are alive at a time. Within a
    chunk, each run's costs come from one ``pair_cost`` call over its
    gathered frames, split only where the run's T x S x D elements would
    exceed ``RUN_ELEMENTS``.

    With ``mirror`` (``angular`` only), returns ``(forward, mirrored)``,
    ``mirrored[k]`` being the distance of ``prepared[cols[k]]`` to
    ``prepared[rows[k]]``. Each pair then runs in the orientation whose
    first sequence is the shorter, which gives the same two numbers and
    fewer distinct shapes.
    """
    if mirror and metric != "angular":
        raise ValueError(f"no mirrored distances for frame metric {metric!r}")
    _check_dims(prepared)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if not rows.size:
        return (np.empty(0), np.empty(0)) if mirror else np.empty(0)
    lengths = np.array([x[0].shape[0] for x in prepared], dtype=np.intp)
    if mirror:
        flip = lengths[rows] > lengths[cols]
        rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
    offsets = np.cumsum(lengths) - lengths
    x_reads, y_reads = _READS[metric]
    # each prepared component that either side reads, concatenated along time
    parts = [np.concatenate(part) if k in x_reads or k in y_reads else None
             for k, part in enumerate(zip(*prepared))]
    dim = parts[0].shape[1]
    order = np.lexsort((lengths[cols], lengths[rows]))
    t_len, s_len = lengths[rows[order]], lengths[cols[order]]
    x_start, y_start = offsets[rows[order]], offsets[cols[order]]
    edges = np.flatnonzero(np.diff(t_len) | np.diff(s_len)) + 1
    heads = np.append(0, edges)
    runs = zip(heads.tolist(), np.append(edges, order.size).tolist(),
               t_len[heads].tolist(), s_len[heads].tolist())

    # Sorted by T, so a chunk pads to its last T and its largest S.
    bounds = []
    start = t_max = s_max = 0
    for lo, hi, t, s in runs:
        while lo < hi:
            room = CHUNK_CELLS // (t * max(s_max, s)) - (lo - start)
            if lo > start and room < 1:
                bounds.append((start, lo, t_max, s_max))
                start, s_max = lo, 0
                continue
            lo = min(hi, lo + max(room, 1))
            t_max, s_max = t, max(s_max, s)
    bounds.append((start, order.size, t_max, s_max))

    out = np.empty(order.size)
    back = np.empty(order.size) if mirror else None
    for start, stop, t_max, s_max in bounds:
        cost = np.zeros((t_max, s_max, stop - start))
        cuts = edges[(edges > start) & (edges < stop)].tolist()
        for lo, hi in zip([start, *cuts], [*cuts, stop]):
            t, s = int(t_len[lo]), int(s_len[lo])
            step = max(1, RUN_ELEMENTS // (t * s * dim))
            for a in range(lo, hi, step):
                b = min(hi, a + step)
                fx = x_start[a:b, None] + np.arange(t)
                fy = y_start[a:b, None] + np.arange(s)
                x = tuple(f[fx] if k in x_reads else None
                          for k, f in enumerate(parts))
                y = tuple(f[fy] if k in y_reads else None
                          for k, f in enumerate(parts))
                costs = pair_cost(x, y, metric)
                cost[:t, :s, a - start:b - start] = costs.transpose(1, 2, 0)
        chunk = order[start:stop]
        total, length, *mirrored = _kernel.dtw_accumulate(
            cost, t_len[start:stop], s_len[start:stop], mirror=mirror)
        out[chunk] = total / length
        if mirror:
            back[chunk] = total / mirrored[0]
    if mirror:
        return np.where(flip, back, out), np.where(flip, out, back)
    return out
