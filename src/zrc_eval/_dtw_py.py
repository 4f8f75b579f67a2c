"""DTW accumulation kernel: min-sum alignment over a batch of cost matrices."""

import numpy as np


def dtw_accumulate(cost, t_len, s_len):
    """Min-sum DTW over a padded ``T x S x B`` stack of cost matrices.

    Pair ``b`` owns ``cost[:t_len[b], :s_len[b], b]``; whatever lies below
    or right of that block is padding, which no real cell reads. Steps are
    (1,0), (0,1) and (1,1); endpoints are anchored at both corners. Each
    cell's predecessor is chosen with strict ``<`` in the order diagonal,
    then vertical, then horizontal, and the path length is carried forward
    (the chosen predecessor's plus one), so no backtrace is needed.

    The accumulated matrix, with an infinite border row and column (but
    for the zero before the start), is kept flat as ``(T+1)(S+1) x B``.
    Cell ``(i, j)`` sits at ``i (S+1) + j``, so the cells of one
    anti-diagonal ``i + j = d`` are a view with stride ``S`` and their
    three predecessors are the same view shifted by ``S+2``, ``S+1`` and
    1. Every cell of a diagonal depends only on the two before it, so the
    whole batch advances one diagonal per step: ``T+S-1`` numpy steps.

    Returns arrays ``(path_sum, path_length)`` of length B, each read at
    the pair's own corner ``(t_len[b] - 1, s_len[b] - 1)``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s, b = cost.shape
    if t == 0 or s == 0:
        raise ValueError("empty cost matrix")
    flat_cost = cost.reshape(t * s, b)
    acc = np.full(((t + 1) * (s + 1), b), np.inf)
    acc[0] = 0.0
    steps = np.zeros(acc.shape, dtype=np.int32)
    for d in range(2, t + s + 1):
        lo, hi = max(1, d - s), min(t, d - 1)
        # rows lo..hi of diagonal d: accumulator i*s + d, cost i*(s-1) + d-s-1
        cells = slice(lo * s + d, hi * s + d + 1, s)
        diag = slice(cells.start - s - 2, cells.stop - s - 2, s)
        up = slice(cells.start - s - 1, cells.stop - s - 1, s)
        left = slice(cells.start - 1, cells.stop - 1, s)
        c0 = lo * (s - 1) + d - s - 1
        crow = flat_cost[c0:c0 + (hi - lo) * (s - 1) + 1:max(s - 1, 1)]

        vertical = acc[up] < acc[diag]
        best = np.where(vertical, acc[up], acc[diag])
        best_steps = np.where(vertical, steps[up], steps[diag])
        horizontal = acc[left] < best
        np.add(np.where(horizontal, acc[left], best), crow, out=acc[cells])
        np.add(np.where(horizontal, steps[left], best_steps), 1,
               out=steps[cells])

    corner = np.asarray(t_len) * (s + 1) + np.asarray(s_len)
    pair = np.arange(b)
    return acc[corner, pair], steps[corner, pair]
