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
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import io_formats
from .distance import (FRAME_METRICS, Prepared, dtw_pairs, empty_parts, invalid_frames,
                       prepare_into)
from .distance import dtw_distance  # noqa: F401  (perfbench/spans.py wraps abx.dtw_distance)
from .errors import FormatError, ValidationError, _at
from .types import FeatureSequence, UnitSequence

log = logging.getLogger(__name__)

# (a, b, x) comparisons held by one group of contexts, which share one
# DTW pass: bounds the flat index arrays, and the group's (token, probe)
# pairs at twice as many, as each comparison reads two pairs and every
# pair is read, (a, x) with every b and (b, x) with every a != x (a
# within cell keeps 2+ tokens a side)
SCORE_COMPARISONS = 1 << 15


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


def _product(*sizes):
    """The Cartesian product of ranges, run by run.

    ``sizes`` holds, per axis, one range length per run. Returns the run
    of every combination and, per axis, its position in that run's range:
    run by run, the last axis varying fastest. Each axis repeats the
    combinations so far, so no index is divided.
    """
    combos = [np.arange(sizes[0].size)]  # the run, then each axis so far
    for size in sizes:
        n = size[combos[0]]
        combos = [np.repeat(v, n) for v in combos]
        combos.append(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))
    return tuple(combos)


def _runs(*keys) -> tuple:
    """Where each run of equal consecutive rows of ``keys`` starts, and
    its length."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    head = np.flatnonzero(new)
    return head, np.diff(np.append(head, new.size))


def _comparisons(cells, sizes) -> np.ndarray:
    """The number of (a, b, x) comparisons of each directed cell."""
    a_cat, b_cat, x_cat = cells
    return sizes[a_cat] * sizes[b_cat] * (sizes[x_cat] - (a_cat == x_cat))


def _requests(members, bounds, p, q, n) -> tuple:
    """The (token, probe) pairs of the category blocks ``p`` x ``q``.

    ``members`` and ``bounds`` are as ``_score_cells`` takes them, and
    ``n`` is the number of tokens. The blocks' entries are their
    categories' products, row-major, block after block; a token is never
    paired with itself. Blocks of disjoint categories hold distinct
    pairs, so sorting the entries' keys gives every pair once, in
    row-major order. Returns ``(rows, cols, entry)``: the pairs, and the
    block entry each one is.
    """
    starts, sizes = bounds
    run, i, j = _product(sizes[p], sizes[q])
    keys = members[starts[p][run] + i] * n + members[starts[q][run] + j]
    entry = np.flatnonzero((p != q)[run] | (i != j))
    entry = entry[np.argsort(keys[entry])]
    return (*np.divmod(keys[entry], n), entry)


def _score_cells(store, members, bounds, cells, metric) -> np.ndarray:
    """Directed cell scores over one ``Prepared`` store of tokens.

    ``members`` holds indices into ``store``, category by category, the
    categories being disjoint; ``bounds`` is ``(starts, sizes)``, each
    category's range in ``members``. ``cells`` holds three arrays of
    category ids, the A, B and X of each directed cell; where X is A, a
    token is never its own probe.

    The cells compare the distances of their distinct (A, X) and (B, X)
    category blocks, whose pairs (see ``_requests``) all go through one
    ``dtw_pairs`` call. One product then lists every cell's (a, b, x)
    comparisons, which read their two distances from the blocks' entries.
    Errors, ties and comparisons are summed per cell as exact integer
    counts.
    """
    starts, sizes = bounds
    a_cat, b_cat, x_cat = cells
    same = a_cat == x_cat
    count = _comparisons(cells, sizes)
    if not count.all():
        raise ValidationError("empty ABX cell")
    # the distinct blocks p x q, and the block of every (A, X), then (B, X)
    blocks, block = np.unique(np.concatenate((a_cat, b_cat)) * sizes.size
                              + np.concatenate((x_cat, x_cat)), return_inverse=True)
    p, q = np.divmod(blocks, sizes.size)
    rows, cols, entry = _requests(members, bounds, p, q, len(store))
    entries = sizes[p] * sizes[q]
    dist = np.empty(entries.sum())
    dist[entry] = dtw_pairs(store, rows, cols, metric)

    # the (a, b) pairs of every cell, then their probes x, skipping a's
    # own token where X is A; an entry is its block's first + row * width + x
    cell, a, b = _product(sizes[a_cat], sizes[b_cat])
    width = sizes[x_cat][cell]
    n = width - same[cell]
    head = np.cumsum(n) - n
    x = np.arange(n.sum())
    if same.any():
        x += x >= np.repeat(np.where(same[cell], head + a, x.size), n)
    first = np.cumsum(entries) - entries
    d_ax = dist[np.repeat(first[block[:a_cat.size]][cell] + a * width - head, n) + x]
    d_bx = dist[np.repeat(first[block[a_cat.size:]][cell] + b * width - head, n) + x]
    heads = np.cumsum(count) - count
    errors = np.add.reduceat(d_bx < d_ax, heads, dtype=np.intp)
    ties = np.add.reduceat(d_bx == d_ax, heads, dtype=np.intp)
    return (errors + 0.5 * ties) / count


# ---------------------------------------------------------------------------
# full evaluation over an item set
# ---------------------------------------------------------------------------

def _token_name(token) -> str:
    return f"token ({token.file_id}, {token.onset}, {token.offset})"


def _token_error(token, message) -> ValidationError:
    return _at(token.where, f"{_token_name(token)}: {message}")


def _extract(tokens, file_ids, onsets, offsets, root, metric) -> tuple:
    """Check every token against its utterance and store the kept ones.

    ``file_ids``, ``onsets`` and ``offsets`` are the tokens' columns. The
    utterances are taken from the archive directory ``root`` in order of
    first use: first each one's frame count, dimension and rate
    (``io_formats.feature_header``), then each one's frames, read once. A
    token's frames run from floor(onset * rate) to floor(offset * rate),
    the offset exclusive and clamped at the utterance end. Each token is
    checked in turn: its utterance exists, its frame indices are finite,
    its frames are not empty (else it is dropped, with a warning), its
    frame dimension is the first kept token's, and the metric accepts its
    frames. The first token in item order that fails a check is the
    error, and only the dropped tokens before it are logged. An
    utterance that fails to read, or whose frames are not the shape its
    header gave, is the error unless a token before its first user fails.

    Unless a token fails, the utterances holding kept tokens are prepared
    one at a time, as their frames are read and checked, into one store
    sized from their headers. Returns ``(kept, store, dropped, clamped)``:
    kept item indices; the ``Prepared`` store whose sequences are the
    kept tokens; the counts.
    """
    n = len(tokens)
    # utterance -> its position in order of first use
    index = {f: i for i, f in enumerate(dict.fromkeys(file_ids))}
    utt = np.fromiter(map(index.__getitem__, file_ids), np.intp, n)
    users = np.unique(utt, return_index=True)[1].tolist()
    shapes, failure = [], None
    for file_id, user in zip(index, users):
        try:
            shapes.append(io_formats.feature_header(root, file_id))
        except (OSError, ValueError) as exc:
            # raised once the tokens before its first user pass their checks
            failure, n = exc, user
            break
    utt = utt[:n]
    lengths = np.array([t for t, _, _ in shapes], dtype=np.int64)
    rate = np.array([r for _, _, r in shapes], dtype=np.float64)[utt]
    length = lengths[utt]
    # a header rate the full read rejects (not finite and positive) may
    # give no index; that read then fails before the utterance's tokens
    # are checked
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.floor(np.array(onsets[:n]) * rate)
        stop = np.floor(np.array(offsets[:n]) * rate)
    # offset > onset, so a finite stop bounds the start; a start past the
    # end moves to the end, where the token stays empty
    unindexed = ~np.isfinite(stop)
    clamp = stop > length
    start = np.where(unindexed, 0, np.minimum(start, length)).astype(np.int64)
    stop = np.where(unindexed, 0, np.minimum(stop, length)).astype(np.int64)
    empty = ~unindexed & (stop <= start)
    kept = ~unindexed & ~empty

    dim = np.array([d for _, d, _ in shapes], dtype=np.intp)[utt]
    # the first kept token sets the frame dimension
    first = int(np.argmax(kept)) if kept.any() else None
    mismatch = kept if first is None else kept & (dim != dim[first])

    # the first row of each utterance holding kept tokens in the store
    sizes = lengths * np.isin(np.arange(len(shapes)), utt[kept])
    rows = np.cumsum(sizes) - sizes
    # a store only for a run that no token's header facts fail
    fill = failure is None and not (unindexed | mismatch).any()
    parts, rejects = (), []
    for u, (file_id, user, shape) in enumerate(zip(index, users, shapes)):
        try:
            fs = io_formats.read_feature_archive(root, file_id)
            if (len(fs), fs.dim, fs.frame_rate) != shape:
                raise FormatError(
                    f"{fs.where}: {len(fs)} x {fs.dim} frames at rate "
                    f"{fs.frame_rate}, but {shape[0]} x {shape[1]} at rate "
                    f"{shape[2]} when its header was read")
        except (OSError, ValueError) as exc:
            failure, n = exc, user
            break
        bad, reason = invalid_frames(fs.frames, metric)
        rejects.append(bad)
        if fill and sizes[u]:
            if not parts:
                parts = empty_parts(metric, int(sizes.sum()), fs.dim)
            prepare_into(parts, rows[u], fs.frames, metric)
    # the frames the metric rejects, counted along the utterances read
    # back to back
    utt, start, stop = utt[:n], start[:n], stop[:n]
    seen = np.concatenate([[0], *rejects]).cumsum()
    base = (np.cumsum(lengths) - lengths)[utt]
    rejected = (kept & ~mismatch)[:n] & (seen[base + stop] > seen[base + start])

    failed = np.flatnonzero((unindexed | mismatch)[:n] | rejected)
    end = int(failed[0]) if failed.size else n
    for i in np.flatnonzero(empty[:end]).tolist():
        log.warning("dropping token (%s, %s, %s): empty frame extraction",
                    file_ids[i], onsets[i], offsets[i])
    if end < n:
        if unindexed[end]:
            raise _token_error(tokens[end], "no finite frame index at frame "
                                            f"rate {float(rate[end])}")
        if mismatch[end]:
            raise _token_error(tokens[end], f"frame dimension {dim[end]} differs "
                                            f"from {dim[first]} in "
                                            f"{_token_name(tokens[first])}")
        raise _token_error(tokens[end], reason)
    if isinstance(failure, FileNotFoundError):
        raise _token_error(tokens[n], failure) from None
    if failure is not None:
        raise failure
    store = Prepared(parts, rows[utt[kept]] + start[kept], (stop - start)[kept])
    return np.flatnonzero(kept), store, int(empty.sum()), int((clamp & kept).sum())


def _ranks(values) -> tuple:
    """The sorted distinct ``values``, and each value's index among them."""
    distinct = sorted(set(values))
    rank = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, values), np.intp, len(values))


def abx_evaluate(items, features, mode: str, metric="angular",
                 where=None) -> AbxResult:
    """Evaluate the ABX error rate over an item set.

    ``features`` is an archive directory. The tokens' columns are taken
    out once and checked as arrays (see ``_extract``): the first token in
    item-file order that fails a check is an error naming it, led by its
    ``where``; no frame is checked again. Kept tokens are ordered by
    context, centre phone and speaker, each category one range of that.

    Every context's cells are enumerated from those ranges, contexts in
    sorted order, and the contexts are evaluated a group at a time: a
    group grows while its (a, b, x) comparisons stay within
    ``SCORE_COMPARISONS``, and a larger context runs alone; its (token,
    probe) pairs are at most twice its comparisons. The utterances
    holding kept tokens are prepared into one store as they are read,
    each token being rows of that store, however tokens overlap. A
    group's pairs take one DTW pass and its cells one ``_score_cells``
    call. Memory: the store, one utterance, one group and the largest
    context's comparisons.

    Cells lacking enough tokens are skipped with a logged reason; an item
    set producing no valid cell at all is an error, led by ``where`` (the
    item file) when it is given. The result counts
    dropped (empty) tokens, clamped offsets and skipped cells.
    """
    if mode not in ("within", "across"):
        raise ValueError(f"unknown ABX mode {mode!r}")
    if metric not in FRAME_METRICS:
        raise ValueError(f"unknown frame metric {metric!r}")
    tokens = list(items)
    columns = attrgetter("file_id", "onset", "offset", "center", "left", "right",
                         "speaker")
    file_ids, onsets, offsets, centers, lefts, rights, speakers = \
        zip(*map(columns, tokens)) if tokens else [()] * 7
    kept, store, dropped, clamped = _extract(tokens, file_ids, onsets, offsets,
                                             features, metric)

    contexts, ctx = _ranks(list(zip(lefts, rights)))
    phones, phone = _ranks(centers)
    talkers, talker = _ranks(speakers)
    ctx, phone, talker = ctx[kept], phone[kept], talker[kept]
    # categories: kept tokens by context, centre and speaker, item order within
    members = np.lexsort((talker, phone, ctx))
    starts, sizes = _runs(ctx[members], phone[members], talker[members])
    cat_ctx, cat_phone, cat_talker = (v[members[starts]] for v in (ctx, phone, talker))

    # (c1, c2) category pairs of one context and speaker, c1's phone first,
    # in aggregation order: context, phone pair, speaker
    by_talker = np.lexsort((cat_phone, cat_talker, cat_ctx))
    head, size = _runs(cat_ctx[by_talker], cat_talker[by_talker])
    run, i, j = _product(size, size)
    c1, c2 = (by_talker[head[run] + k][i < j] for k in (i, j))
    order = np.lexsort((cat_talker[c1], cat_phone[c2], cat_phone[c1], cat_ctx[c1]))
    c1, c2 = c1[order], c2[order]
    # each symmetrized cell probes (a1, b1) with x1's tokens and (b1, a1)
    # with x2's
    if mode == "within":
        small = (sizes[c1] < 2) | (sizes[c2] < 2)
        for k in np.flatnonzero(small).tolist():
            log.info("skipping within cell %s/%s @%s %s: "
                     "needs 2+ tokens on both sides",
                     phones[cat_phone[c1[k]]], phones[cat_phone[c2[k]]],
                     talkers[cat_talker[c1[k]]], contexts[cat_ctx[c1[k]]])
        skipped = int(small.sum())
        a1, b1 = c1[~small], c2[~small]
        x1, x2 = a1, b1
    else:  # every ordered pair of the speakers a phone pair shares
        head, size = _runs(cat_ctx[c1], cat_phone[c1], cat_phone[c2])
        run, p, q = _product(size, size)
        p, q = ((head[run] + k)[p != q] for k in (p, q))
        a1, b1, x1, x2 = c1[p], c2[p], c1[q], c2[q]
        skipped = 0
    if not a1.size:
        raise _at(where, f"no valid ABX cells in {mode} mode")
    cells = tuple(np.column_stack(pair).ravel()
                  for pair in ((a1, b1), (b1, a1), (x1, x2)))

    compares = np.bincount(cat_ctx[cells[0]], _comparisons(cells, sizes),
                           len(contexts)).tolist()
    groups = []  # [first, last] context of each group
    scored = cat_ctx[a1][_runs(cat_ctx[a1])[0]]  # the contexts with cells
    for c in scored.tolist():
        if groups and compared + compares[c] <= SCORE_COMPARISONS:
            groups[-1][1] = c
            compared += compares[c]
        else:
            groups.append([c, c])
            compared = compares[c]

    cell_ctx = cat_ctx[cells[0]]
    means = []
    for first, last in groups:
        d_lo, d_hi = np.searchsorted(cell_ctx, [first, last + 1]).tolist()
        scores = _score_cells(store, members, (starts, sizes),
                              tuple(v[d_lo:d_hi] for v in cells), metric)
        # each cell's two directions are adjacent: their mean, in order
        means.append((scores[0::2] + scores[1::2]) / 2)
    means = np.concatenate(means).tolist()

    # speaker assignments -> context -> phone pair, uniform means at each
    # level; a (context, phone pair)'s cells are adjacent
    by_pair: dict = {}  # phone pair -> its context means, in context order
    head, size = _runs(cat_ctx[a1], cat_phone[a1], cat_phone[b1])
    for h, k, p1, p2 in zip(head.tolist(), size.tolist(),
                            cat_phone[a1[head]].tolist(), cat_phone[b1[head]].tolist()):
        run = means[h:h + k]
        by_pair.setdefault((phones[p1], phones[p2]), []).append(sum(run) / k)
    pair_scores = {}
    for pair in sorted(by_pair):
        context_means = by_pair[pair]
        pair_scores[pair] = sum(context_means) / len(context_means)
    aggregate = sum(pair_scores.values()) / len(pair_scores)

    return AbxResult(
        mode=mode,
        error_rate=100.0 * aggregate,
        cell_count=a1.size,
        by_phone_pair={f"{p1}-{p2}": 100.0 * s
                       for (p1, p2), s in sorted(pair_scores.items())},
        dropped_tokens=dropped,
        clamped_tokens=clamped,
        skipped_cells=skipped,
    )
