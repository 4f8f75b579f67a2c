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

from . import io_formats
from .distance import FRAME_METRICS, dtw_pairs, invalid_frames, prepare
from .distance import dtw_distance  # noqa: F401  (perfbench/spans.py wraps abx.dtw_distance)
from .errors import ValidationError
from .types import FeatureSequence, UnitSequence

log = logging.getLogger(__name__)

# (a, b, x) comparisons held by one batch, and by one group of contexts:
# bounds the flat index arrays
SCORE_COMPARISONS = 1 << 18

# (token, probe) pairs requested by one group of contexts, which share one
# prepared store and one DTW pass: bounds the group's pair index arrays
GROUP_PAIRS = 1 << 14


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
    dropped_tokens: int = 0  # empty frame extraction
    clamped_tokens: int = 0  # offset clamped at the utterance end
    skipped_cells: int = 0   # within cells lacking 2+ tokens on a side


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


def _comparisons(n: int, directions) -> list:
    """The (a, b, x) comparisons of a context's directed cells, as flat
    indices into its ``n`` x ``n`` distance table.

    Each direction is ``(a_idx, b_idx, x_idx, skip_same)``; with
    ``skip_same`` the (a, x) pairs of one token are left out. Returns
    batches of whole directions, cut where the running count of
    comparisons crosses a multiple of ``SCORE_COMPARISONS``, each
    ``(count, ax, bx)``: the number of comparisons of each direction, and
    the table entries ``a * n + x`` and ``b * n + x`` of every comparison,
    direction by direction. A group holds its contexts' batches from its
    requests to its scores, so the entries are int32 where they fit.
    """
    sizes = [len(a) * len(b) * len(x) for a, b, x, _ in directions]
    batch = np.cumsum(sizes) // SCORE_COMPARISONS
    heads = np.flatnonzero(np.diff(batch, prepend=-1)).tolist()
    entry = np.int32 if n * n <= np.iinfo(np.int32).max else np.intp
    batches = []
    for lo, hi in zip(heads, heads[1:] + [len(directions)]):
        a_idx, b_idx, x_idx, skip_same = zip(*directions[lo:hi])
        a, b, x, cell = _product(a_idx, b_idx, x_idx)
        keep = ~(np.array(skip_same)[cell] & (a == x))
        a, b, x = a[keep], b[keep], x[keep]
        batches.append((np.bincount(cell[keep], minlength=hi - lo),
                        (a * n + x).astype(entry), (b * n + x).astype(entry)))
    return batches


def _requests(n: int, comparisons) -> tuple:
    """Row and column arrays (int32) of the (token, probe) pairs that one
    context's ``comparisons`` (from ``_comparisons``) read among its ``n``
    tokens, each pair once, in row-major order."""
    need = np.zeros(n * n, dtype=bool)
    for _, ax, bx in comparisons:
        need[ax] = True
        need[bx] = True
    need = need.reshape(n, n)
    np.fill_diagonal(need, False)  # d(x, x) is never compared
    return tuple(index.astype(np.int32) for index in np.nonzero(need))


def _distance_tables(tokens, contexts, metric):
    """Yield the directed distance table of each context of a group.

    ``tokens`` is the ``Prepared`` store of all the group's contexts'
    tokens, back to back. Each context is ``(base, n, rows, cols)``: its
    tokens are ``tokens[base:base + n]`` and ``rows``/``cols`` are its
    ``_requests``. Its table holds ``table[i, j] = d(tokens[base + i],
    tokens[base + j])`` for every requested pair and NaN elsewhere. All
    the group's requests go through one ``dtw_pairs`` call.
    """
    rows = np.concatenate([base + r for base, _, r, _ in contexts], dtype=np.intp)
    cols = np.concatenate([base + c for base, _, _, c in contexts], dtype=np.intp)
    dist = dtw_pairs(tokens, rows, cols, metric)
    stop = 0
    for _, n, r, c in contexts:
        table = np.full((n, n), np.nan)
        start, stop = stop, stop + r.size
        table[r, c] = dist[start:stop]
        yield table


def _score_cells(table, comparisons) -> np.ndarray:
    """Directed cell scores from a context's ``_comparisons`` and its
    distance table: errors, ties and comparisons are summed per cell as
    exact integer counts."""
    flat = table.reshape(-1)
    scores = []
    for count, ax, bx in comparisons:
        if not count.all():
            raise ValidationError("empty ABX cell")
        starts = np.cumsum(count) - count
        d_ax, d_bx = flat[ax], flat[bx]
        errors = np.add.reduceat(d_bx < d_ax, starts, dtype=np.intp)
        ties = np.add.reduceat(d_bx == d_ax, starts, dtype=np.intp)
        scores.append((errors + 0.5 * ties) / count)
    return np.concatenate(scores)


# ---------------------------------------------------------------------------
# full evaluation over an item set
# ---------------------------------------------------------------------------

def _token_name(token) -> str:
    return f"token ({token.file_id}, {token.onset}, {token.offset})"


def _token_span(root, loaded: dict, token) -> tuple:
    """``(utterance, start, stop, clamped)`` of a token's frames; ``loaded``
    keeps each utterance read from the archive directory ``root``.

    Frame indices are floor(time * rate) for both onset and offset, the
    offset being exclusive and clamped at the utterance end.
    """
    if token.file_id not in loaded:
        try:
            loaded[token.file_id] = io_formats.read_feature_archive(root, token.file_id)
        except FileNotFoundError as exc:
            error = ValidationError(f"{_token_name(token)}: {exc}")
            error.token = token  # lets a caller name the token's item-file line
            raise error from None
    fs = loaded[token.file_id]
    rate = fs.frame_rate
    start = math.floor(token.onset * rate)
    stop = math.floor(token.offset * rate)
    return fs, start, min(stop, len(fs)), stop > len(fs)


def _context_cells(by_center, mode: str, context) -> tuple:
    """The symmetrized cells of one context, in aggregation order, and the
    number of within cells skipped for lack of tokens.

    Each cell is ``(phone_pair, [direction, direction])``, a direction
    being ``(a_idx, b_idx, x_idx, skip_same)`` as ``_comparisons`` takes it.
    """
    cells = []
    skipped = 0
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
                        skipped += 1
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
    return cells, skipped


def abx_evaluate(items, features, mode: str, metric="angular") -> AbxResult:
    """Evaluate the ABX error rate over an item set.

    ``features`` is an archive directory. Tokens are checked in item-file
    order, each against its utterance's frames as the metric sees them
    once, and kept as views into the utterance; the first token whose
    frames the metric rejects is an error naming it.

    Contexts are evaluated in sorted order, a group at a time: a group
    grows while its requested (token, probe) pairs stay within
    ``GROUP_PAIRS`` and its (a, b, x) comparisons within
    ``SCORE_COMPARISONS``, and a larger context runs alone. Each
    context's comparison indices are built once: they give its requested
    pairs, and later index its distance table. Each group's tokens go
    through one ``prepare`` and its pairs through one DTW pass; each
    context's cells are then scored from its own distance table. Memory
    is bounded by one group and by the largest context's table and
    comparisons.

    Cells lacking enough tokens are skipped with a logged reason; an item
    set producing no valid cell at all is an error. The result counts
    dropped (empty) tokens, clamped offsets and skipped cells.
    """
    if mode not in ("within", "across"):
        raise ValueError(f"unknown ABX mode {mode!r}")
    if metric not in FRAME_METRICS:
        raise ValueError(f"unknown frame metric {metric!r}")
    loaded: dict = {}  # utt_id -> FeatureSequence, each read once

    # (left, right) -> ([frames], center -> speaker -> [index into that list])
    contexts: dict = {}
    first = None  # (token, frame dimension) of the first kept token
    rejected: dict = {}  # utterance -> (mask of frames the metric rejects, why)
    dropped = clamped = 0
    for token in items:
        fs, start, stop, clamp = _token_span(features, loaded, token)
        if stop <= start:
            log.warning("dropping token (%s, %s, %s): empty frame extraction",
                        token.file_id, token.onset, token.offset)
            dropped += 1
            continue
        clamped += clamp
        frames = fs.frames[start:stop]
        if first is None:
            first = (token, frames.shape[1])
        elif frames.shape[1] != first[1]:
            raise ValidationError(
                f"{_token_name(token)}: frame dimension {frames.shape[1]} "
                f"differs from {first[1]} in {_token_name(first[0])}")
        if token.file_id not in rejected:
            rejected[token.file_id] = invalid_frames(fs.frames, metric)
        bad, reason = rejected[token.file_id]
        if bad[start:stop].any():
            raise ValidationError(f"{_token_name(token)}: {reason}")
        tokens, by_center = contexts.setdefault((token.left, token.right), ([], {}))
        by_center.setdefault(token.center, {}) \
                 .setdefault(token.speaker, []).append(len(tokens))
        tokens.append(frames)

    # phone pair -> context -> [symmetrized cell score]
    per_pair_context: dict = {}
    cell_count = skipped = requested = compared = 0
    group, group_tokens = [], []  # the group's contexts; their tokens, back to back
    for context in sorted(contexts):
        tokens, by_center = contexts.pop(context)
        cells, skipped_here = _context_cells(by_center, mode, context)
        skipped += skipped_here
        if not cells:
            continue
        directions = [d for _, both in cells for d in both]
        comparisons = _comparisons(len(tokens), directions)
        rows, cols = _requests(len(tokens), comparisons)
        compares = sum(batch[1].size for batch in comparisons)
        if group and (requested + rows.size > GROUP_PAIRS
                      or compared + compares > SCORE_COMPARISONS):
            _score_group(group_tokens, group, metric, per_pair_context)
            group, group_tokens, requested, compared = [], [], 0, 0
        group.append((context, cells, comparisons,
                      (len(group_tokens), len(tokens), rows, cols)))
        group_tokens += tokens
        requested += rows.size
        compared += compares
        cell_count += len(cells)
    if group:
        _score_group(group_tokens, group, metric, per_pair_context)

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
        dropped_tokens=dropped,
        clamped_tokens=clamped,
        skipped_cells=skipped,
    )


def _score_group(frames, group, metric, per_pair_context) -> None:
    """Score every cell of a group of contexts into ``per_pair_context``.

    ``frames`` are the tokens of all the group's contexts, back to back;
    each context is ``(context, cells, comparisons, (base, n, rows,
    cols))``, the last as ``_distance_tables`` takes it.
    """
    tables = _distance_tables(prepare(frames, metric),
                              [span for *_, span in group], metric)
    for (context, cells, comparisons, _), table in zip(group, tables):
        scores = _score_cells(table, comparisons)
        # each cell's two directions are adjacent: their mean, in order
        means = (scores[0::2] + scores[1::2]) / 2
        for (pair, _), mean in zip(cells, means.tolist()):
            per_pair_context.setdefault(pair, {}).setdefault(context, []) \
                            .append(mean)
