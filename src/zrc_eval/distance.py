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

* ``prepare`` validates a list of sequences (``invalid_frames`` names the
  frames a metric rejects) and computes, once, what every pair cost
  involving them needs: unit-normalized frames for ``angular``; the
  floored frames, their log and the row term ``sum p log p`` for ``kl``.
  The result, ``Prepared``, holds each component as one array over all
  the sequences' frames, with one offset and length per sequence;
* ``pair_cost`` is the one cost expression: the T x S cost matrix of one
  pair, or with leading batch axes those of many same-shape pairs, each
  slice computed exactly as the pair alone (no stacked GEMM);
* ``_dtw_py.dtw_accumulate`` runs the DTW recursion over a padded
  T x S x B stack of cost matrices, one anti-diagonal at a time, keeping
  only the accumulated sums (16 B a cell with the costs); each path
  length comes from walking back over the sums from the pair's corner.

``dtw_pairs``, the kernel's one caller, drives many pairs of one
``Prepared`` store at once; ``dtw_distance`` is its one-pair case. It
sorts pairs by shape and cuts them into runs of one ``(T, S)``; a run's
frames are gathered from the store with one index per component that
``pair_cost`` reads on that side (for ``kl``, ``p`` and the row term for
x, ``log q`` for y), and its costs come from one ``pair_cost`` call,
split only where a chunk boundary falls inside the run or where the call
would exceed its budget. Two bounds keep memory flat whatever the number
of pairs: a cost call builds at most ``RUN_ELEMENTS`` elements (the
T x S x D difference tensor for ``angular``; the gathered frames and the
T x S product for ``kl``), and the kernel runs over chunks whose padded
tensor holds at most ``CHUNK_CELLS`` cells.

``dtw_pairs`` alone decides which requested pairs share a kernel pair.
For ``angular`` it runs each unordered pair once, whichever directions
are asked for: the cost is symmetric (``pair_cost(y, x)`` is exactly
``pair_cost(x, y).T``: the squared differences are the same numbers,
summed in the same order), and so are the accumulated sums; only the
path length can differ, where a tie is broken the other way, and the
kernel walks back a second time, preferring horizontal to vertical
steps. ``kl`` is asymmetric, so it keeps one cost matrix per directed
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _dtw_py as _kernel
from .errors import ValidationError

FRAME_METRICS = ("angular", "kl")

KL_EPS = 1e-10

# Padded cells per kernel call; larger chunks save little time and cost
# peak memory.
CHUNK_CELLS = 1 << 16

# Elements one cost call over a run of same-shape pairs may build: the
# T x S x D difference tensor for angular, the gathered (T + S) x D frames
# and the T x S product for kl. Larger calls are no faster and raise peak
# memory.
RUN_ELEMENTS = 1 << 17

# per metric, the prepared components ``pair_cost`` reads of x and of y
_READS = {"angular": ((0,), (0,)), "kl": ((0, 2), (1,))}


def _frames(x) -> np.ndarray:
    arr = x.frames if hasattr(x, "frames") else np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError("expected a non-empty T x D frame matrix")
    return arr


def invalid_frames(frames, metric: str) -> tuple:
    """The frames ``metric`` cannot score, as a per-frame mask, and why.

    ``angular`` rejects zero-norm frames and ``kl`` frames that are not
    probability vectors (a negative entry or a sum off 1 by more than
    1e-6). Raises ValueError on an unknown metric.
    """
    f = np.asarray(frames, dtype=np.float64)
    if metric == "angular":
        return (np.linalg.norm(f, axis=1) == 0,
                "angular distance undefined for zero-norm frames")
    if metric == "kl":
        return ((f < 0).any(axis=1) | (np.abs(f.sum(axis=1) - 1.0) > 1e-6),
                "KL distance requires probability frames")
    raise ValueError(f"unknown frame metric {metric!r}")


@dataclass(frozen=True)
class Prepared:
    """Frame sequences passed through ``prepare``, held back to back.

    Each component in ``parts`` is one array over the frames of all the
    sequences; sequence ``i`` owns rows ``offsets[i]`` to
    ``offsets[i] + lengths[i]`` of each.
    """

    parts: tuple
    offsets: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size


def prepare(seqs, metric: str) -> Prepared:
    """Validate frame sequences and precompute their share of pair costs.

    The sequences are concatenated once and every component is computed
    over all their frames: the unit-normalized frames for ``angular``;
    the frames floored at ``KL_EPS`` (p), their log and the row term
    ``sum p log p`` for ``kl``. Raises ValidationError on an empty or
    non-2-D matrix, on sequences of different frame dimensions or on the
    frames ``invalid_frames`` names, and ValueError on an unknown metric.
    """
    frames = [_frames(x) for x in seqs]
    dims = sorted({f.shape[1] for f in frames})
    if len(dims) > 1:
        raise ValidationError(f"dimension mismatch: {dims[0]} vs {dims[-1]}")
    f = np.concatenate(frames)  # a copy, so the steps below work in place
    bad, reason = invalid_frames(f, metric)
    if bad.any():
        raise ValidationError(reason)
    if metric == "angular":
        parts = (np.divide(f, np.linalg.norm(f, axis=1)[:, None], out=f),)
    else:
        p = np.maximum(f, KL_EPS, out=f)
        log_p = np.log(p)
        # summed a block of rows at a time: each row's sum is unchanged, and
        # no third full-size array is built
        rows = max(1, RUN_ELEMENTS // p.shape[1])
        row_term = np.empty(len(p))
        for start in range(0, len(p), rows):
            block = slice(start, start + rows)
            row_term[block] = np.sum(p[block] * log_p[block], axis=1)
        parts = (p, log_p, row_term)
    lengths = np.array([len(x) for x in frames], dtype=np.intp)
    return Prepared(parts, np.cumsum(lengths) - lengths, lengths)


def pair_cost(x: tuple, y: tuple, metric: str) -> np.ndarray:
    """Framewise cost matrices between prepared sequences, ``... x T x S``.

    The components of ``x`` and ``y`` may carry the same leading batch
    axes (``... x T x D`` against ``... x S x D``); each batch slice is
    then exactly the one-pair expression over that pair's own frames.
    For ``angular``, x's frames are repeated along S and y's subtracted
    in place: the differences ``x_t - y_s`` are those of a broadcast
    subtraction, but each subtraction runs over a contiguous S x D block.
    """
    if metric == "angular":
        diff = np.repeat(x[0][..., :, None, :], y[0].shape[-2], axis=-2)
        diff -= y[0][..., None, :, :]
        chord = np.sqrt(np.einsum("...tsd,...tsd->...ts", diff, diff))
        return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    p, _, row_term = x
    return row_term[..., :, None] - p @ np.swapaxes(y[1], -1, -2)


def frame_cost_matrix(rx, ry, metric: str = "angular") -> np.ndarray:
    """All pairwise framewise distances between two sequences (T x S)."""
    both = prepare((rx, ry), metric)
    t = both.lengths[0]
    return pair_cost(tuple(p[:t] for p in both.parts),
                     tuple(p[t:] for p in both.parts), metric)


def dtw_distance(rx, ry, metric: str = "angular") -> float:
    """Mean framewise distance along the optimal DTW alignment path."""
    return float(dtw_pairs(prepare((rx, ry), metric), [0], [1], metric)[0])


def dtw_pairs(store: Prepared, rows, cols, metric: str) -> np.ndarray:
    """``dtw_distance`` of sequence ``rows[k]`` to sequence ``cols[k]`` of
    ``store`` for every k.

    Pairs are sorted by shape and cut into runs of one ``(T, S)``. Chunks
    are planned over runs so that each chunk's padded T x S x B cost
    tensor stays within ``CHUNK_CELLS`` cells (a pair larger than that
    runs alone), and only one chunk's costs are alive at a time. Within a
    chunk, each run's frames are gathered straight from the store's
    components and its costs come from one ``pair_cost`` call, split only
    where the call would build more than ``RUN_ELEMENTS`` elements.

    For ``angular``, each unordered pair runs once, in the orientation
    whose first sequence is the shorter (fewer distinct shapes), and the
    kernel's mirrored walk gives its distance the other way round.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if not rows.size:
        return np.empty(0)
    lengths, offsets, parts = store.lengths, store.offsets, store.parts
    mirror = metric == "angular"
    if mirror:
        n, asked = len(lengths), rows
        keys, pair = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols),
                               return_inverse=True)
        rows, cols = keys // n, keys % n
        flip = lengths[rows] > lengths[cols]
        rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
    x_reads, y_reads = _READS[metric]
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
            size = t * s * dim if metric == "angular" else (t + s) * dim + t * s
            step = max(1, RUN_ELEMENTS // size)
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
        return np.where(asked == rows[pair], out[pair], back[pair])
    return out
