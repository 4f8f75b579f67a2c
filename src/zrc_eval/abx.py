"""Machine-ABX phonetic discriminability.

A cell compares two categories of triphone tokens that differ only in the
center phone. The asymmetric cell score is the probability that a token
drawn from the wrong category sits closer to the probe x than another
token from x's own category, counting distance ties as half an error:

    e(A, B) = mean over (a, x != a in A; b in B) of
              [ d(b, x) < d(a, x) ] + 0.5 * [ d(b, x) = d(a, x) ]

Scores are symmetrized per cell and averaged over speaker assignments,
then contexts, then phone pairs. In `within` mode a, b and x share one
speaker; in `across` mode a and b share a speaker while x is drawn from
each other speaker in turn.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .distance import FRAME_METRICS, dtw_pairs, prepare
from .distance import dtw_distance  # noqa: F401  (perfbench/spans.py wraps abx.dtw_distance)
from .errors import ValidationError
from .io_formats import FeatureArchive
from .types import FeatureSequence, UnitSequence

log = logging.getLogger(__name__)

# (a, b, x) comparisons scored at once: bounds the flat index arrays
SCORE_COMPARISONS = 1 << 18


def one_hot_encode(seq: UnitSequence, n_units: int,
                   frame_rate: float = 100.0) -> FeatureSequence:
    """Standard-basis representation of a unit sequence (T x K matrix)."""
    units = np.asarray(seq.units)
    if (units >= n_units).any():
        raise ValidationError(
            f"{seq.utt_id}: unit {int(units.max())} >= codebook size {n_units}")
    frames = np.zeros((len(units), n_units), dtype=np.float64)
    frames[np.arange(len(units)), units] = 1.0
    return FeatureSequence(seq.utt_id, frame_rate, frames)


@dataclass
class AbxResult:
    mode: str
    error_rate: float  # percent in [0, 100]
    cell_count: int
    by_phone_pair: dict = field(default_factory=dict)  # percent per pair


def _product(*axes):
    """Flat index arrays over the Cartesian product of each cell's lists.

    ``axes`` holds, for each axis, one sequence of token indices per cell.
    Returns one array per axis and the cell of each combination, cell by
    cell, the last axis varying fastest.
    """
    sizes = np.array([[len(v) for v in lists] for lists in axes], dtype=np.intp)
    n = sizes.prod(axis=0)
    cell = np.repeat(np.arange(n.size), n)
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    out = []
    for lists, size in zip(reversed(axes), reversed(sizes)):
        flat = np.fromiter(chain.from_iterable(lists), np.intp, size.sum())
        start = np.repeat(np.cumsum(size) - size, n)
        rank, pos = np.divmod(rank, size[cell])
        out.append(flat[start + pos])
    return (*reversed(out), cell)


def _distance_table(tokens, directions, metric) -> np.ndarray:
    """Directed distances ``table[i, j] = d(tokens[i], tokens[j])``.

    Filled for every (token, probe) pair that one of ``directions`` (as
    ``_score_cells`` takes them) compares, NaN elsewhere. ``tokens`` are ``prepare``d sequences for a
    frame-metric name, run through the batched DTW driver; for
    ``angular``, each unordered pair runs once and gives both directions.
    For a distance callable they are passed as given, one call per needed
    pair.
    """
    a_idx, b_idx, x_idx, _ = zip(*directions)
    need = np.zeros((len(tokens), len(tokens)), dtype=bool)
    for side in (a_idx, b_idx):
        rows, cols, _ = _product(side, x_idx)
        need[rows, cols] = True
    np.fill_diagonal(need, False)  # d(x, x) is never compared
    table = np.full(need.shape, np.nan)
    if metric == "angular":
        rows, cols = np.nonzero(np.triu(need | need.T, 1))
        table[rows, cols], table[cols, rows] = dtw_pairs(
            tokens, rows, cols, metric, mirror=True)
        table[~need] = np.nan
        return table
    rows, cols = np.nonzero(need)
    if callable(metric):
        table[rows, cols] = [metric(tokens[i], tokens[j])
                             for i, j in zip(rows, cols)]
    else:
        table[rows, cols] = dtw_pairs(tokens, rows, cols, metric)
    return table


def _score_cells(table, directions) -> np.ndarray:
    """Directed cell scores over token indices into a distance table.

    Each direction is ``(a_idx, b_idx, x_idx, skip_same)``; with
    ``skip_same`` the (a, x) pairs of one token are left out. Every
    (a, b, x) comparison of up to ``SCORE_COMPARISONS`` of them at a time
    is one entry of flat index arrays, and errors, ties and comparisons
    are summed per cell as exact integer counts.
    """
    sizes = [len(a) * len(b) * len(x) for a, b, x, _ in directions]
    batch = np.cumsum(sizes) // SCORE_COMPARISONS
    heads = np.flatnonzero(np.diff(batch, prepend=-1)).tolist()
    scores = []
    for lo, hi in zip(heads, heads[1:] + [len(directions)]):
        a_idx, b_idx, x_idx, skip_same = zip(*directions[lo:hi])
        a, b, x, cell = _product(a_idx, b_idx, x_idx)
        keep = ~(np.array(skip_same)[cell] & (a == x))
        a, b, x, cell = a[keep], b[keep], x[keep], cell[keep]
        d_ax, d_bx = table[a, x], table[b, x]
        errors = np.bincount(cell, d_bx < d_ax, hi - lo)
        ties = np.bincount(cell, d_bx == d_ax, hi - lo)
        count = np.bincount(cell, minlength=hi - lo)
        if not count.all():
            raise ValidationError("empty ABX cell")
        scores.append((errors + 0.5 * ties) / count)
    return np.concatenate(scores)


def asymmetric_abx(a, b, metric="angular", x=None) -> float:
    """Asymmetric cell score e(A, B) in [0, 1].

    ``a``/``b`` are lists of frame matrices; ``metric`` is a frame-metric
    name or a pairwise distance callable. With ``x`` unset, probes are
    drawn from ``a`` itself (excluding the token playing a), which
    requires at least two a-tokens. Passing a separate probe pool ``x``
    (across-speaker case) lifts that requirement.
    """
    a_tokens, b_tokens = list(a), list(b)
    if not b_tokens:
        raise ValidationError("category B is empty")
    if x is None:
        if len(a_tokens) < 2:
            raise ValidationError(
                f"need at least 2 tokens in A to draw (a, x) pairs, got {len(a_tokens)}")
        x_tokens = []
    else:
        x_tokens = list(x)
        if not a_tokens or not x_tokens:
            raise ValidationError("categories A and X must be non-empty")
    tokens = a_tokens + b_tokens + x_tokens
    if not callable(metric):
        tokens = [prepare(t, metric) for t in tokens]
    na, nb = len(a_tokens), len(b_tokens)
    a_idx = range(na)
    x_idx = a_idx if x is None else range(na + nb, len(tokens))
    directions = [(a_idx, range(na, na + nb), x_idx, x is None)]
    table = _distance_table(tokens, directions, metric)
    return float(_score_cells(table, directions)[0])


def symmetrized_cell(a, b, metric="angular") -> float:
    """Mean of the two directed cell scores; needs 2+ tokens per side."""
    return 0.5 * (asymmetric_abx(a, b, metric) + asymmetric_abx(b, a, metric))


# ---------------------------------------------------------------------------
# full evaluation over an item set
# ---------------------------------------------------------------------------

def _token_name(token) -> str:
    return f"token ({token.file_id}, {token.onset}, {token.offset})"


def extract_token_frames(archive: FeatureArchive, token) -> np.ndarray | None:
    """Slice a token's frames out of its utterance; None when empty.

    Frame indices are floor(time * rate) for both onset and offset, the
    offset being exclusive.
    """
    try:
        fs = archive.load(token.file_id)
    except FileNotFoundError:
        raise ValidationError(
            f"{_token_name(token)}: "
            f"utterance {token.file_id!r} missing from archive") from None
    rate = fs.frame_rate
    start = math.floor(token.onset * rate)
    stop = math.floor(token.offset * rate)
    stop = min(stop, len(fs))
    if stop <= start:
        return None
    return fs.frames[start:stop]


def _context_cells(by_center, mode: str, context) -> list:
    """The symmetrized cells of one context, in aggregation order.

    Each is ``(phone_pair, [direction, direction])``, a direction being
    ``(a_idx, b_idx, x_idx, skip_same)`` as ``_score_cells`` takes it.
    """
    cells = []
    centers = sorted(by_center)
    for i, c1 in enumerate(centers):
        for c2 in centers[i + 1:]:
            pair = (c1, c2)
            cat1, cat2 = by_center[c1], by_center[c2]
            speakers = sorted(set(cat1) & set(cat2))
            if mode == "within":
                for speaker in speakers:
                    a_idx, b_idx = cat1[speaker], cat2[speaker]
                    if len(a_idx) < 2 or len(b_idx) < 2:
                        log.info(
                            "skipping within cell %s/%s @%s %s: "
                            "needs 2+ tokens on both sides",
                            c1, c2, speaker, context)
                        continue
                    cells.append((pair, [
                        (a_idx, b_idx, a_idx, True),
                        (b_idx, a_idx, b_idx, True),
                    ]))
            else:
                for s1 in speakers:
                    for s2 in speakers:
                        if s1 == s2:
                            continue
                        cells.append((pair, [
                            (cat1[s1], cat2[s1], cat1[s2], False),
                            (cat2[s1], cat1[s1], cat2[s2], False),
                        ]))
    return cells


def abx_evaluate(items, features, mode: str, metric="angular") -> AbxResult:
    """Evaluate the ABX error rate over an item set.

    ``features`` is a FeatureArchive or a directory path. Each token is
    extracted, validated and prepared once; a token whose frames the
    metric rejects is an error naming it. Contexts are evaluated one at a
    time from one distance table each, so memory is bounded by the
    largest context. Cells lacking enough tokens are skipped with a
    logged reason; an item set producing no valid cell at all is an error.
    """
    if mode not in ("within", "across"):
        raise ValueError(f"unknown ABX mode {mode!r}")
    if not callable(metric) and metric not in FRAME_METRICS:
        raise ValueError(f"unknown frame metric {metric!r}")
    archive = features if isinstance(features, FeatureArchive) else FeatureArchive(features)

    # (left, right) -> ([token], center -> speaker -> [index into that list])
    contexts: dict = {}
    first = None  # (token, frame dimension) of the first kept token
    for token in items:
        frames = extract_token_frames(archive, token)
        if frames is None:
            log.warning("dropping token (%s, %s, %s): empty frame extraction",
                        token.file_id, token.onset, token.offset)
            continue
        if first is None:
            first = (token, frames.shape[1])
        elif frames.shape[1] != first[1]:
            raise ValidationError(
                f"{_token_name(token)}: frame dimension {frames.shape[1]} "
                f"differs from {first[1]} in {_token_name(first[0])}")
        if not callable(metric):
            try:
                frames = prepare(frames, metric)
            except ValueError as exc:
                raise ValidationError(f"{_token_name(token)}: {exc}") from None
        tokens, by_center = contexts.setdefault((token.left, token.right), ([], {}))
        by_center.setdefault(token.center, {}) \
                 .setdefault(token.speaker, []).append(len(tokens))
        tokens.append(frames)

    # phone pair -> context -> [symmetrized cell score]
    per_pair_context: dict = {}
    cell_count = 0
    for context in sorted(contexts):
        tokens, by_center = contexts.pop(context)
        cells = _context_cells(by_center, mode, context)
        if not cells:
            continue
        directions = [d for _, both in cells for d in both]
        scores = _score_cells(_distance_table(tokens, directions, metric),
                              directions)
        # each cell's two directions are adjacent: their mean, in order
        means = (scores[0::2] + scores[1::2]) / 2
        for (pair, _), mean in zip(cells, means.tolist()):
            per_pair_context.setdefault(pair, {}).setdefault(context, []) \
                            .append(mean)
        cell_count += len(cells)

    if not cell_count:
        raise ValidationError(f"no valid ABX cells in {mode} mode")

    # speaker assignments -> context -> phone pair, uniform means at each level
    pair_scores = {}
    for pair in sorted(per_pair_context):
        context_means = [sum(v) / len(v)
                         for _, v in sorted(per_pair_context[pair].items())]
        pair_scores[pair] = sum(context_means) / len(context_means)
    aggregate = sum(pair_scores.values()) / len(pair_scores)

    return AbxResult(
        mode=mode,
        error_rate=100.0 * aggregate,
        cell_count=cell_count,
        by_phone_pair={f"{p1}-{p2}": 100.0 * s
                       for (p1, p2), s in sorted(pair_scores.items())},
    )
