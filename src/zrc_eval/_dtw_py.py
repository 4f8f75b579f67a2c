"""DTW accumulation kernel: min-sum alignment over a batch of cost matrices."""

import numpy as np


def dtw_accumulate(cost, t_len, s_len):
    """Min-sum DTW over a padded ``T x S x B`` stack of cost matrices.

    Pair ``b`` owns ``cost[:t_len[b], :s_len[b], b]``; whatever lies below
    or right of that block is padding, which no real cell reads. Steps are
    (1,0), (0,1) and (1,1); endpoints are anchored at both corners. Each
    cell ``(i, j)`` is computed once for the whole batch, its predecessor
    chosen with strict ``<`` in the order diagonal, then vertical, then
    horizontal, and the path length is carried forward (the chosen
    predecessor's plus one), so no backtrace is needed and only two rows
    of the accumulated matrix are kept.

    Returns arrays ``(path_sum, path_length)`` of length B, each read at
    the pair's own corner ``(t_len[b] - 1, s_len[b] - 1)``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s, b = cost.shape
    if t == 0 or s == 0:
        raise ValueError("empty cost matrix")
    t_len, s_len = np.asarray(t_len), np.asarray(s_len)

    # Column 0 and the row above the first are an infinite border (but for
    # the zero before the start), so the first real row and column take
    # the same predecessors as the interior.
    above = np.full((s + 1, b), np.inf)
    above[0] = 0.0
    above_steps = np.zeros((s + 1, b), dtype=np.int32)
    total, length = np.empty(b), np.empty(b, dtype=np.int32)
    for i in range(t):
        diag, up = above[:-1], above[1:]
        vertical = up < diag
        best = np.where(vertical, up, diag)
        best_steps = np.where(vertical, above_steps[1:], above_steps[:-1])
        row = np.empty_like(above)
        row[0] = np.inf
        steps = np.zeros_like(above_steps)
        crow = cost[i]
        for j in range(s):
            horizontal = row[j] < best[j]
            np.add(np.where(horizontal, row[j], best[j]), crow[j], out=row[j + 1])
            np.add(np.where(horizontal, steps[j], best_steps[j]), 1,
                   out=steps[j + 1])
        done = np.flatnonzero(t_len == i + 1)
        total[done] = row[s_len[done], done]
        length[done] = steps[s_len[done], done]
        above, above_steps = row, steps
    return total, length
