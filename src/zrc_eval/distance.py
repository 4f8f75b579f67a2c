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

* ``prepare`` computes, once, what every pair cost involving a list of
  sequences needs: the unit-normalized frames and their squared norms
  for ``angular``; the floored frames, their log and the row term
  ``sum p log p`` for ``kl``. It checks nothing: a caller checks the
  frames it will read (``invalid_frames`` names those a metric rejects).
  The result, ``Prepared``, holds each component as one array over all
  the sequences' frames, with one offset and length per sequence;
* ``pair_cost`` is the one cost expression: the T x S cost matrix of one
  pair, or with leading batch axes those of many same-shape pairs, each
  slice computed exactly as the pair alone. Both metrics take their
  cross term from one ``matmul`` per slice. For ``angular`` that gives
  ``chord^2 = n_x + n_y - 2 x . y``, off by at most about (4D + 8)u.
  The cells where the cost's slope in chord^2 could pass 2.5 (tiny
  chords and near antipodes; a wider band at large D, ``_angular_band``)
  are recomputed from their difference vectors, and every other cost is
  within ``min(2.5 (4D + 8)u, 5e-13)`` of its exact chord's cost
  (``pair_cost`` gives the argument);
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
gathered (T + S) x D frames and the T x S product, for either metric),
and the kernel runs over chunks whose padded tensor holds at most
``CHUNK_CELLS`` cells.

``dtw_pairs`` alone decides which requested pairs share a kernel pair.
For ``angular`` it runs each unordered pair once, whichever directions
are asked for, so d(x, y) and d(y, x) come from one cost matrix and one
set of accumulated sums; only the path length can differ, where a tie is
broken the other way, and the kernel walks back a second time, preferring
horizontal to vertical steps. ``kl`` is asymmetric, so it keeps one cost
matrix per directed pair.
"""

from __future__ import annotations

import math
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
# gathered (T + S) x D frames and the T x S product. Larger calls are no
# faster and raise peak memory.
RUN_ELEMENTS = 1 << 17

# per metric, the prepared components ``pair_cost`` reads of x and of y
_READS = {"angular": ((0, 1), (0, 1)), "kl": ((0, 2), (1,))}


def invalid_frames(frames, metric: str) -> tuple:
    """The frames ``metric`` cannot score, as a per-frame mask, and why.

    ``angular`` rejects all-zero frames and ``kl`` frames that are not
    probability vectors (a negative entry or a sum off 1 by more than
    1e-6). Raises ValueError on an unknown metric.
    """
    if metric == "angular":
        return ~frames.any(axis=1), "angular distance undefined for zero-norm frames"
    if metric == "kl":
        return ((frames < 0).any(axis=1) | (np.abs(frames.sum(axis=1) - 1) > 1e-6),
                "KL distance requires probability frames")
    raise ValueError(f"unknown frame metric {metric!r}")


@dataclass(frozen=True)
class Prepared:
    """Rows passed through ``prepare``, and the sequences that read them.

    Each component in ``parts`` is one array over all the rows; sequence
    ``i`` is rows ``offsets[i]`` to ``offsets[i] + lengths[i]`` of each.
    ``prepare`` lays its sequences back to back; ABX tokens may overlap.
    """

    parts: tuple
    offsets: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size


def prepare(seqs, metric: str) -> Prepared:
    """Precompute frame sequences' share of pair costs.

    The sequences are concatenated once and every component is computed
    over all their frames: the unit-normalized frames and their squared
    norms for ``angular``; the frames floored at ``KL_EPS`` (p), their log
    and the row term ``sum p log p`` for ``kl``. Nothing is checked: a row
    ``invalid_frames`` rejects is prepared without error or warning, and
    must not be read. Raises ValueError on an unknown metric.
    """
    if metric not in FRAME_METRICS:
        raise ValueError(f"unknown frame metric {metric!r}")
    f = np.concatenate(seqs, dtype=np.float64)  # a copy, worked in place
    if metric == "angular":
        # each row scaled exactly, by a power of two, to a largest magnitude
        # in [0.5, 1): its squared norm can neither overflow nor reach 0
        np.ldexp(f, -np.frexp(np.abs(f).max(axis=1))[1][:, None], out=f)
        norm = np.linalg.norm(f, axis=1)[:, None]
        unit = np.divide(f, norm, out=f, where=norm > 0)
        parts = (unit, np.einsum("nd,nd->n", unit, unit))
    else:
        p = np.maximum(f, KL_EPS, out=f)
        log_p = np.log(p)
        # summed a block of rows at a time: each row's sum is unchanged, and
        # no third full-size array is built
        rows = max(1, RUN_ELEMENTS // p.shape[1])
        row_term = np.empty(len(p))
        with np.errstate(over="ignore"):  # only in rows that are not read
            for start in range(0, len(p), rows):
                block = slice(start, start + rows)
                row_term[block] = np.sum(p[block] * log_p[block], axis=1)
        parts = (p, log_p, row_term)
    lengths = np.array([len(x) for x in seqs], dtype=np.intp)
    return Prepared(parts, np.cumsum(lengths) - lengths, lengths)


def _angular_band(dim: int) -> tuple:
    """The squared chords ``(lo, hi)`` outside of which ``pair_cost``
    recomputes an angular cost from its difference vector.

    ``err`` past ``lo`` the cost's slope in chord^2 is 2.5, or less where
    2.5 err would pass 5e-13, half the 1e-12 oracle tolerance; see
    ``pair_cost``.
    """
    err = (4 * dim + 8) * 2.0 ** -53
    slope = min(2.5, 5e-13 / err)
    # chord^2 (4 - chord^2) = 1 / slope^2 at the edge, moved out by err
    edge = 2.0 - math.sqrt(max(0.0, 4.0 - slope ** -2)) + err
    return edge, 4.0 - edge


def pair_cost(x: tuple, y: tuple, metric: str) -> np.ndarray:
    """Framewise cost matrices between prepared sequences, ``... x T x S``.

    The components of ``x`` and ``y`` may carry the same leading batch
    axes (``... x T x D`` against ``... x S x D``); each batch slice is
    then the one-pair expression over that pair's own frames, computed
    by a ``matmul`` of its own, so its bits do not depend on the batch.

    For ``angular``, the squared chord between unit rows is
    ``n_x + n_y - 2 x . y``, with ``n`` their prepared squared norms and
    the dot products one ``matmul``; the cost is ``2 arcsin(chord / 2)``.
    Each of the three terms is a sum of D products, so the computed
    chord^2 is off by at most about ``err = (4D + 8)u`` (u = 2^-53). The
    cost's slope in chord^2 is ``1 / (2 sin theta)``, unbounded at both
    ends of the range: where the chord is tiny (cancellation) and where
    the frames are nearly antipodal. A cell whose computed chord^2 lies
    below ``lo`` is recomputed from the squares of ``x_t - y_s``, and one
    above ``4 - lo`` as ``pi - 2 arcsin(|x_t + y_s| / 2)``, each form
    well-conditioned there (``RUN_ELEMENTS // D`` cells at a time).
    At ``lo - err`` the slope is 2.5, or less where D makes 2.5 err pass
    5e-13, so every other cost is off by at most ``min(2.5 err, 5e-13)``
    (``_angular_band``). Up to D = 448 the band is chord^2 < 0.0404
    (theta < 11.5 degrees) and its mirror, and the bound is 7.4e-14 at
    D = 64 and 2.9e-13 at D = 256; at D = 512 the band is
    chord^2 < 0.053. Past D = 2,249 no slope is small enough, and every
    cell is recomputed.
    """
    if metric == "angular":
        (ux, nx), (uy, ny) = x, y
        chord2 = (nx[..., :, None] + ny[..., None, :]
                  - 2.0 * (ux @ np.swapaxes(uy, -1, -2)))
        lo, hi = _angular_band(ux.shape[-1])
        band = np.nonzero((chord2 < lo) | (far := chord2 > hi))
        step = max(1, RUN_ELEMENTS // ux.shape[-1])
        for start in range(0, band[0].size, step):
            cells = tuple(i[start:start + step] for i in band)
            a, b = ux[cells[:-1]], uy[cells[:-2] + cells[-1:]]
            diff = np.where(far[cells][:, None], a + b, a - b)
            chord2[cells] = np.einsum("nd,nd->n", diff, diff)
        cost = 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(chord2), 0.0, 1.0))
        return np.subtract(np.pi, cost, out=cost, where=far)
    p, _, row_term = x
    return row_term[..., :, None] - p @ np.swapaxes(y[1], -1, -2)


def _checked_pair(rx, ry, metric: str) -> Prepared:
    """``prepare`` of two non-empty T x D matrices of one D, checked."""
    frames = [np.asarray(getattr(x, "frames", x), dtype=np.float64) for x in (rx, ry)]
    if any(f.ndim != 2 or f.shape[0] < 1 for f in frames):
        raise ValidationError("expected a non-empty T x D frame matrix")
    low, high = sorted(f.shape[1] for f in frames)
    if low != high:
        raise ValidationError(f"dimension mismatch: {low} vs {high}")
    for bad, reason in (invalid_frames(f, metric) for f in frames):
        if bad.any():
            raise ValidationError(reason)
    return prepare(frames, metric)


def frame_cost_matrix(rx, ry, metric: str = "angular") -> np.ndarray:
    """All pairwise framewise distances between two sequences (T x S)."""
    both = _checked_pair(rx, ry, metric)
    t = both.lengths[0]
    return pair_cost(tuple(p[:t] for p in both.parts),
                     tuple(p[t:] for p in both.parts), metric)


def dtw_distance(rx, ry, metric: str = "angular") -> float:
    """Mean framewise distance along the optimal DTW alignment path."""
    return float(dtw_pairs(_checked_pair(rx, ry, metric), [0], [1], metric)[0])


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
            step = max(1, RUN_ELEMENTS // ((t + s) * dim + t * s))
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
