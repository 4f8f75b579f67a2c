"""DTW accumulation kernel: min-sum alignment over a batch of cost matrices."""

import numpy as np


def dtw_accumulate(cost, t_len, s_len, mirror=False):
    """Min-sum DTW over a padded ``T x S x B`` stack of cost matrices.

    Pair ``b`` owns ``cost[:t_len[b], :s_len[b], b]``; whatever lies below
    or right of that block is padding, which no real cell reads. Steps are
    (1,0), (0,1) and (1,1); endpoints are anchored at both corners.

    The forward pass keeps only the accumulated sums, flat as
    ``(T+1)(S+1) x B`` with an infinite border row and column (but for the
    zero before the start). Cell ``(i, j)`` sits at ``i (S+1) + j``, so the
    cells of one anti-diagonal are a view with stride ``S`` and their
    diagonal, vertical and horizontal predecessors are that view shifted
    by ``S+2``, ``S+1`` and 1: the batch advances one diagonal per step,
    by two minimums and one addition.

    Each path length comes from walking back over the sums, all pairs in
    lockstep, from the pair's corner to ``(1, 1)``. Each step moves to the
    predecessor that strict ``<`` picks in the order diagonal, vertical,
    horizontal, the forward recursion's tie order, and reads only real
    cells and the border.

    Returns arrays ``(path_sum, path_length)`` of length B, read at each
    pair's corner ``(t_len[b] - 1, s_len[b] - 1)``. With ``mirror``, a
    third array is the path length of each pair's transpose: the same
    walk, preferring horizontal to vertical steps, since transposing swaps
    the two and transposes the sums, and ``path_sum / mirrored_length``
    is the distance of the pair the other way round.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s, b = cost.shape
    if t == 0 or s == 0:
        raise ValueError("empty cost matrix")
    flat_cost = cost.reshape(t * s, b)
    acc = np.full(((t + 1) * (s + 1), b), np.inf)
    acc[0] = 0.0
    buf = np.empty((min(t, s), b))
    for d in range(2, t + s + 1):
        lo, hi = max(1, d - s), min(t, d - 1)
        # rows lo..hi of diagonal d: accumulator i*s + d, cost i*(s-1) + d-s-1
        cells = slice(lo * s + d, hi * s + d + 1, s)
        diag = slice(cells.start - s - 2, cells.stop - s - 2, s)
        up = slice(cells.start - s - 1, cells.stop - s - 1, s)
        left = slice(cells.start - 1, cells.stop - 1, s)
        c0 = lo * (s - 1) + d - s - 1
        crow = flat_cost[c0:c0 + (hi - lo) * (s - 1) + 1:max(s - 1, 1)]
        best = buf[:hi - lo + 1]
        np.minimum(acc[diag], acc[up], out=best)
        np.minimum(best, acc[left], out=best)
        np.add(best, crow, out=acc[cells])

    # One walker per pair and preference order, each a flat index into acc:
    # cell (i, j) of pair p is at (i (S+1) + j) b + p. ``back`` holds each
    # walker's offsets to its predecessors, the diagonal first.
    flat = acc.ravel()
    corner = (np.asarray(t_len) * (s + 1) + np.asarray(s_len)) * b + np.arange(b)
    orders = [(s + 2, s + 1, 1), (s + 2, 1, s + 1)][:2 if mirror else 1]
    at = np.tile(corner, len(orders))
    back = np.repeat(np.array(orders).T * b, b, axis=1)
    length = np.ones(at.size, dtype=np.int32)
    moving = at >= (s + 3) * b  # not yet at (1, 1)
    while moving.any():
        prev = at - back
        via_diag, via_first, via_second = flat.take(prev)
        step = np.where(via_first < via_diag, prev[1], prev[0])
        best = np.minimum(via_diag, via_first)
        np.copyto(at, np.where(via_second < best, prev[2], step), where=moving)
        length += moving
        moving = at >= (s + 3) * b
    return (flat[corner], *np.split(length, len(orders)))
