"""DTW accumulation kernel: min-sum alignment over a batch of cost matrices."""

import numpy as np


def dtw_accumulate(cost, t_len, s_len, mirror=False):
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

    With ``mirror``, a third array gives the path length of each pair's
    transposed matrix. Transposing swaps vertical and horizontal steps and
    transposes the accumulated sums (a minimum does not depend on the
    order its candidates are tried in), so only ties can differ. A second
    step count, carried from the same sums with the preference diagonal,
    then horizontal, then vertical, is that length, and
    ``path_sum / mirrored_length`` is the DTW distance of the pair the
    other way round.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s, b = cost.shape
    if t == 0 or s == 0:
        raise ValueError("empty cost matrix")
    flat_cost = cost.reshape(t * s, b)
    acc = np.full(((t + 1) * (s + 1), b), np.inf)
    acc[0] = 0.0
    steps = np.zeros(acc.shape, dtype=np.int32)
    mirrored = np.zeros(acc.shape, dtype=np.int32) if mirror else None
    for d in range(2, t + s + 1):
        lo, hi = max(1, d - s), min(t, d - 1)
        # rows lo..hi of diagonal d: accumulator i*s + d, cost i*(s-1) + d-s-1
        cells = slice(lo * s + d, hi * s + d + 1, s)
        diag = slice(cells.start - s - 2, cells.stop - s - 2, s)
        up = slice(cells.start - s - 1, cells.stop - s - 1, s)
        left = slice(cells.start - 1, cells.stop - 1, s)
        c0 = lo * (s - 1) + d - s - 1
        crow = flat_cost[c0:c0 + (hi - lo) * (s - 1) + 1:max(s - 1, 1)]
        acc_diag, acc_up, acc_left = acc[diag], acc[up], acc[left]

        vertical = acc_up < acc_diag
        best = np.where(vertical, acc_up, acc_diag)
        best_steps = np.where(vertical, steps[up], steps[diag])
        horizontal = acc_left < best
        np.add(np.where(horizontal, acc_left, best), crow, out=acc[cells])
        np.add(np.where(horizontal, steps[left], best_steps), 1,
               out=steps[cells])
        if mirror:
            horizontal = acc_left < acc_diag
            best = np.where(horizontal, acc_left, acc_diag)
            best_steps = np.where(horizontal, mirrored[left], mirrored[diag])
            vertical = acc_up < best
            np.add(np.where(vertical, mirrored[up], best_steps), 1,
                   out=mirrored[cells])

    corner = np.asarray(t_len) * (s + 1) + np.asarray(s_len)
    pair = np.arange(b)
    if mirror:
        return acc[corner, pair], steps[corner, pair], mirrored[corner, pair]
    return acc[corner, pair], steps[corner, pair]
