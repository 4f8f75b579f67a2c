"""Independent recomputations of the program's results, for every seed.

Each function re-derives one reported result from the generated inputs
(or from an upstream output file) without calling the library, and
returns a problem description or None. They cover the layers that
planned optimisations rewrite: the ABX cell scorer and DTW, nearest-
centroid assignment, n-gram chain-rule scoring and span scoring. Results
with exact ties (KL over one-hot units) are left to the default-seed
comparison, since an independent recomputation may round a tie away.
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path

import numpy as np

TOLERANCE = 2e-6  # reports print 6 decimals


def f32(values) -> np.ndarray:
    """Frames as the program reads them back from the f32 archive."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def _angular_cost(x: np.ndarray, y: np.ndarray) -> list:
    ux = x / np.linalg.norm(x, axis=1, keepdims=True)
    uy = y / np.linalg.norm(y, axis=1, keepdims=True)
    return np.arccos(np.clip(ux @ uy.T, -1.0, 1.0)).tolist()


def dtw_mean(cost: list) -> float:
    """Mean cost along the min-sum path; ties prefer diagonal, vertical,
    then horizontal steps, and path length is carried forward."""
    t, s = len(cost), len(cost[0])
    acc = [[0.0] * s for _ in range(t)]
    steps = [[0] * s for _ in range(t)]
    for i in range(t):
        for j in range(s):
            preds = []
            if i and j:
                preds.append((acc[i - 1][j - 1], steps[i - 1][j - 1]))
            if i:
                preds.append((acc[i - 1][j], steps[i - 1][j]))
            if j:
                preds.append((acc[i][j - 1], steps[i][j - 1]))
            best, n = min(preds, key=lambda p: p[0]) if preds else (0.0, 0)
            acc[i][j] = best + cost[i][j]
            steps[i][j] = n + 1
    return acc[-1][-1] / steps[-1][-1]


def _directed(a, b, x, skip_self: bool, dist) -> float:
    total, count = 0.0, 0
    for xi in range(len(x)):
        d_bx = [dist(b[k], x[xi]) for k in range(len(b))]
        for ai in range(len(a)):
            if skip_self and ai == xi:
                continue
            d_ax = dist(a[ai], x[xi])
            for d in d_bx:
                total += 1.0 if d < d_ax else 0.5 if d == d_ax else 0.0
                count += 1
    return total / count


def abx_pair_error(rows, utterances, mode: str, pair: tuple) -> float:
    """ABX error (percent) of one phone pair over angular frames: cells
    averaged over speakers (or ordered speaker pairs), then contexts."""
    tokens: dict = {}  # (context, centre, speaker) -> [frames]
    for utt, start, stop, centre, left, right, spk in rows:
        tokens.setdefault(((left, right), centre, spk), []).append(
            f32(utterances[utt][start:stop]))
    memo: dict = {}

    def dist(a, x):
        key = (id(a), id(x))
        if key not in memo:
            memo[key] = dtw_mean(_angular_cost(a, x))
        return memo[key]

    c1, c2 = pair
    context_means = []
    for context in sorted({key[0] for key in tokens}):
        def cat(centre, spk):
            return tokens.get((context, centre, spk), [])
        speakers = sorted({key[2] for key in tokens if key[0] == context})
        cells = []
        if mode == "within":
            for s in speakers:
                a, b = cat(c1, s), cat(c2, s)
                if len(a) >= 2 and len(b) >= 2:
                    cells.append(0.5 * (_directed(a, b, a, True, dist)
                                        + _directed(b, a, b, True, dist)))
        else:
            for s1, s2 in itertools.permutations(speakers, 2):
                cells.append(0.5 * (
                    _directed(cat(c1, s1), cat(c2, s1), cat(c1, s2), False, dist)
                    + _directed(cat(c2, s1), cat(c1, s1), cat(c2, s2), False, dist)))
        if cells:
            context_means.append(sum(cells) / len(cells))
    return 100.0 * sum(context_means) / len(context_means)


def read_codebook(path) -> np.ndarray:
    """Centroids of a codebook file: magic, version, K, D, rate, K*D f32."""
    blob = Path(path).read_bytes()
    header = struct.Struct("<4sIIIf")
    _, _, k, d, _ = header.unpack_from(blob)
    body = np.frombuffer(blob, dtype="<f4", count=k * d, offset=header.size)
    return body.reshape(k, d).astype(np.float64)


def nearest_centroid_problem(frames, centroids, units) -> str | None:
    """Every unit must name a centroid at the minimum squared distance."""
    for start in range(0, len(frames), 4096):
        chunk = frames[start:start + 4096]
        d2 = ((chunk * chunk).sum(1)[:, None] - 2.0 * chunk @ centroids.T
              + (centroids * centroids).sum(1)[None, :])
        chosen = d2[np.arange(len(chunk)), units[start:start + 4096]]
        slack = 1e-9 * np.maximum(1.0, d2.min(1))
        bad = np.flatnonzero(chosen > d2.min(1) + slack)
        if bad.size:
            return f"frame {start + int(bad[0])} is not assigned its nearest centroid"
    return None


def bigram_scores(sequences: dict, alpha: float = 1.0) -> dict:
    """Chain-rule log-probabilities under an add-alpha bigram model with a
    start context and an end symbol, trained on ``sequences`` itself."""
    vocab = sorted({u for units in sequences.values() for u in units})
    index = {u: i for i, u in enumerate(vocab)}
    start = end = len(vocab)
    counts = np.zeros((len(vocab) + 1, len(vocab) + 1))
    paths = {}
    for utt, units in sequences.items():
        ctx = [start] + [index[u] for u in units]
        tgt = [index[u] for u in units] + [end]
        np.add.at(counts, (ctx, tgt), 1.0)
        paths[utt] = (ctx, tgt)
    logp = np.log((counts + alpha)
                  / (counts.sum(1, keepdims=True) + alpha * (len(vocab) + 1)))
    return {utt: float(logp[ctx, tgt].sum()) for utt, (ctx, tgt) in paths.items()}


def accuracy(pairs, scores: dict) -> tuple:
    """Overall and per-tag paired accuracy, ties worth half."""
    outcomes, by_tag = [], {}
    for accepted, rejected, tags in pairs:
        diff = scores[accepted] - scores[rejected]
        outcome = 1.0 if diff > 1e-9 else 0.0 if diff < -1e-9 else 0.5
        outcomes.append(outcome)
        for tag in tags:
            by_tag.setdefault(tag, []).append(outcome)
    return (sum(outcomes) / len(outcomes),
            {tag: sum(v) / len(v) for tag, v in by_tag.items()})


def compare(path, subsets: dict, aggregate: float | None = None) -> str | None:
    """Report values against recomputed ones, to the printed precision."""
    doc = json.loads(Path(path).read_text())
    if aggregate is not None and abs(doc["aggregate"] - aggregate) > TOLERANCE:
        return f"{path}: aggregate {doc['aggregate']} != recomputed {aggregate:.6f}"
    for key, value in subsets.items():
        if key not in doc["subsets"] or abs(doc["subsets"][key] - value) > TOLERANCE:
            return (f"{path}: subset {key} {doc['subsets'].get(key)} "
                    f"!= recomputed {value:.6f}")
    return None


def span_sum(table: dict, utt: str, length: int, span: int, stride: int) -> float:
    """Sum of the masked-table log-probabilities over an utterance's
    windows, as the table file stores them (6 decimals)."""
    total = 0.0
    for start in range(0, length, stride):
        key = (utt, start + 1, min(start + span + 1, length))
        total += float(f"{table[key]:.6f}")
    return total

