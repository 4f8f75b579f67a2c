"""DTW accumulation kernel: min-sum alignment over a framewise cost matrix."""

import numpy as np


def dtw_accumulate(cost):
    """Min-sum DTW over a framewise cost matrix.

    Steps are (1,0), (0,1) and (1,1); endpoints are anchored at both
    corners. Returns ``(path_sum, path_length)`` for the optimal path,
    ties broken by preferring diagonal, then vertical, then horizontal
    predecessors.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s = cost.shape
    if t == 0 or s == 0:
        raise ValueError("empty cost matrix")

    acc = np.empty((t, s), dtype=np.float64)
    move = np.zeros((t, s), dtype=np.int8)
    acc[0, 0] = cost[0, 0]
    for j in range(1, s):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
        move[0, j] = 2
    for i in range(1, t):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        move[i, 0] = 1
        row, above = acc[i], acc[i - 1]
        crow, mrow = cost[i], move[i]
        for j in range(1, s):
            best = above[j - 1]
            m = 0
            if above[j] < best:
                best = above[j]
                m = 1
            if row[j - 1] < best:
                best = row[j - 1]
                m = 2
            row[j] = best + crow[j]
            mrow[j] = m

    i, j = t - 1, s - 1
    length = 1
    while i > 0 or j > 0:
        m = move[i, j]
        if m == 0:
            i -= 1
            j -= 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
        length += 1
    return float(acc[t - 1, s - 1]), length
