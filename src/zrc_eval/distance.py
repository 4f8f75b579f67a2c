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
  the sequences' frames, with one offset and length per sequence. The
  store is allocated once (``empty_parts``) and filled one sequence at a
  time by ``prepare_into``, ``RUN_ELEMENTS // D`` rows at a time, in
  place: no concatenated copy or full-size temporary is built, so a
  caller that reads its sequences one by one, as ABX does, holds the
  store and one sequence. Every step is row-local, so a row has the
  same bits alone, stacked, in any block and in any store;
* ``frame_cost_matrix`` is the one cost function: given a store's
  components and two arrays of row indices, ``... x T`` and ``... x S``,
  it gathers the rows its metric reads (``angular``: the unit rows and
  their squared norms on both sides; ``kl``: ``p`` and the row term of
  x, ``log q`` of y) and returns the ``... x T x S`` costs, each batch
  slice computed exactly as the pair alone. Both metrics take their
  cross term from one ``matmul`` per slice. For ``angular`` that gives
  ``chord^2 = n_x + n_y - 2 x . y``, off by at most about (4D + 8)u.
  The cells where the cost's slope in chord^2 could pass 2.5 (tiny
  chords and near antipodes; a wider band at large D, ``_angular_band``)
  are recomputed from their difference vectors, and every other cost is
  within ``min(2.5 (4D + 8)u, 5e-13)`` of its exact chord's cost
  (``frame_cost_matrix`` gives the argument);
* ``_dtw_py.dtw_accumulate`` runs the DTW recursion over a padded
  T x S x B stack of cost matrices, one anti-diagonal at a time, keeping
  only the accumulated sums (16 B a cell with the costs); each path
  length comes from walking back over the sums from the pair's corner.

``dtw_pairs``, the kernel's one caller, drives many pairs of one
``Prepared`` store at once; ``dtw_distance`` checks one raw pair and is
its one-pair case. It sorts pairs by shape and cuts them into runs of
one ``(T, S)``; a run's costs come from one ``frame_cost_matrix`` call
over its pairs' row indices, split only where a chunk boundary falls
inside the run or where the call would exceed its budget. Two bounds
keep memory flat whatever the number of pairs: a cost call builds at
most ``RUN_ELEMENTS`` elements (the gathered (T + S) x D frames and the
T x S product, for either metric), and the kernel runs over chunks whose
padded tensor holds at most ``CHUNK_CELLS`` cells.

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
# gathered (T + S) x D frames and the T x S product; also the values of
# one block of rows ``prepare_into`` works at a time. Larger calls are no
# faster and raise peak memory.
RUN_ELEMENTS = 1 << 17


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


def empty_parts(metric: str, rows: int, dim: int) -> tuple:
    """The components of a store of ``rows`` prepared rows of ``dim``
    values, unfilled: ``prepare_into`` writes them. Raises ValueError on
    an unknown metric."""
    if metric == "angular":
        return np.empty((rows, dim)), np.empty(rows)
    if metric == "kl":
        return np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows)
    raise ValueError(f"unknown frame metric {metric!r}")


def prepare_into(parts, at: int, frames, metric: str) -> None:
    """Prepare the T x D ``frames`` into rows ``at`` to ``at + T`` of the
    store components ``parts`` (see ``empty_parts``).

    Rows are taken ``RUN_ELEMENTS // D`` at a time, each block copied
    into the store and worked there in place. For ``angular`` each row is
    scaled exactly, by a power of two, to a largest magnitude in
    [0.5, 1), so that its squared norm can neither overflow nor reach 0,
    then unit-normalized, and its squared norm kept; for ``kl`` it is
    floored at ``KL_EPS`` (p), its log kept, and the row term
    ``sum p log p`` summed. Every step is row-local, so a row's bits do
    not depend on the block or the store it is prepared in. Nothing is
    checked: a row ``invalid_frames`` rejects is prepared without error
    or warning, and must not be read.
    """
    step = max(1, RUN_ELEMENTS // parts[0].shape[1])
    for lo in range(0, len(frames), step):
        block = frames[lo:lo + step]
        rows = slice(at + lo, at + lo + len(block))
        f = parts[0][rows]
        f[...] = block
        if metric == "angular":
            np.ldexp(f, -np.frexp(np.abs(f).max(axis=1))[1][:, None], out=f)
            norm = np.linalg.norm(f, axis=1)[:, None]
            np.divide(f, norm, out=f, where=norm > 0)
            parts[1][rows] = np.einsum("nd,nd->n", f, f)
        else:
            np.maximum(f, KL_EPS, out=f)
            log_p = np.log(f, out=parts[1][rows])
            with np.errstate(over="ignore"):  # only in rows that are not read
                parts[2][rows] = np.sum(f * log_p, axis=1)


def prepare(seqs, metric: str) -> Prepared:
    """Precompute frame sequences' share of pair costs: one store over
    all their frames, the sequences back to back, each filled by
    ``prepare_into``. Raises ValueError on an unknown metric."""
    lengths = np.array([len(x) for x in seqs], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    parts = empty_parts(metric, int(lengths.sum()), np.shape(seqs[0])[1])
    for at, seq in zip(offsets.tolist(), seqs):
        prepare_into(parts, at, seq, metric)
    return Prepared(parts, offsets, lengths)


def _angular_band(dim: int) -> tuple:
    """The squared chords ``(lo, hi)`` outside of which
    ``frame_cost_matrix`` recomputes an angular cost from its frames.

    ``err`` past ``lo`` the cost's slope in chord^2 is 2.5, or less where
    2.5 err would pass 5e-13, half the 1e-12 oracle tolerance; see
    ``frame_cost_matrix``.
    """
    err = (4 * dim + 8) * 2.0 ** -53
    slope = min(2.5, 5e-13 / err)
    # chord^2 (4 - chord^2) = 1 / slope^2 at the edge, moved out by err
    edge = 2.0 - math.sqrt(max(0.0, 4.0 - slope ** -2)) + err
    return edge, 4.0 - edge


def frame_cost_matrix(parts, x_rows, y_rows, metric: str) -> np.ndarray:
    """Framewise costs between rows of a prepared store, ``... x T x S``.

    ``parts`` are a store's components (``Prepared.parts``); ``x_rows``
    (``... x T``) and ``y_rows`` (``... x S``) index its rows, with the
    same leading batch axes. Only the components the metric reads are
    gathered. Each batch slice is the one-pair expression over that
    pair's own rows, computed by a ``matmul`` of its own, so its bits
    depend neither on the batch nor on the store's other rows.

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

    For ``kl`` the cost is ``sum p log p - p . log q``, the row term of
    x less one ``matmul`` of its floored rows with y's logs.
    """
    if metric == "angular":
        ux, nx = (np.take(f, x_rows, axis=0) for f in parts)
        uy, ny = (np.take(f, y_rows, axis=0) for f in parts)
        # chord^2, then the cost, in one buffer
        chord2 = nx[..., :, None] + ny[..., None, :]
        dot = ux @ np.swapaxes(uy, -1, -2)
        dot *= 2.0
        chord2 -= dot
        del dot
        lo, hi = _angular_band(ux.shape[-1])
        far = chord2 > hi
        near = (chord2 < lo) | far
        if near.any():
            band = np.nonzero(near)
            step = max(1, RUN_ELEMENTS // ux.shape[-1])
            for start in range(0, band[0].size, step):
                cells = tuple(i[start:start + step] for i in band)
                a, b = ux[cells[:-1]], uy[cells[:-2] + cells[-1:]]
                diff = np.where(far[cells][:, None], a + b, a - b)
                chord2[cells] = np.einsum("nd,nd->n", diff, diff)
        cost = np.sqrt(chord2, out=chord2)
        cost *= 0.5
        np.clip(cost, 0.0, 1.0, out=cost)
        np.arcsin(cost, out=cost)
        cost *= 2.0
        return np.subtract(np.pi, cost, out=cost, where=far)
    p, row_term = (np.take(parts[k], x_rows, axis=0) for k in (0, 2))
    log_q = np.take(parts[1], y_rows, axis=0)
    return row_term[..., :, None] - p @ np.swapaxes(log_q, -1, -2)


def dtw_distance(rx, ry, metric: str = "angular") -> float:
    """Mean framewise distance along the optimal DTW alignment path of two
    non-empty T x D frame matrices of one D (or ``FeatureSequence``s),
    each frame checked against ``metric``."""
    frames = [np.asarray(getattr(x, "frames", x), dtype=np.float64) for x in (rx, ry)]
    if any(f.ndim != 2 or f.shape[0] < 1 for f in frames):
        raise ValidationError("expected a non-empty T x D frame matrix")
    low, high = sorted(f.shape[1] for f in frames)
    if low != high:
        raise ValidationError(f"dimension mismatch: {low} vs {high}")
    for bad, reason in (invalid_frames(f, metric) for f in frames):
        if bad.any():
            raise ValidationError(reason)
    return float(dtw_pairs(prepare(frames, metric), [0], [1], metric)[0])


def dtw_pairs(store: Prepared, rows, cols, metric: str) -> np.ndarray:
    """``dtw_distance`` of sequence ``rows[k]`` to sequence ``cols[k]`` of
    ``store`` for every k.

    Pairs are sorted by shape and cut into runs of one ``(T, S)``. Chunks
    are planned over runs so that each chunk's padded T x S x B cost
    tensor stays within ``CHUNK_CELLS`` cells (a pair larger than that
    runs alone), and only one chunk's costs are alive at a time. Within a
    chunk, each run's costs come from one ``frame_cost_matrix`` call over
    its pairs' row indices, split only where the call would build more
    than ``RUN_ELEMENTS`` elements. The cost function and the kernel are
    called by their module-global names, so a tracer that wraps them
    (``perfbench/spans.py``) times the real stages.

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
                costs = frame_cost_matrix(parts, x_start[a:b, None] + np.arange(t),
                                          y_start[a:b, None] + np.arange(s), metric)
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
