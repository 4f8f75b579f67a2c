"""Shared test fixtures: independent oracles and a synthetic mini-benchmark.

The oracles here deliberately re-derive everything from first principles
(exhaustive enumeration, direct summation) so the engine under test never
checks itself.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from zrc_eval import abx, distance, io_formats, metrics, sampler
from zrc_eval.distance import KL_EPS
from zrc_eval.errors import ValidationError
from zrc_eval.types import FeatureSequence, UnitSequence

# every property test replays the same examples, keeps none between runs
# and has no per-example deadline; each @settings only sets max_examples
settings.register_profile("zrc-eval", derandomize=True, database=None, deadline=None)
settings.load_profile("zrc-eval")

# ---------------------------------------------------------------------------
# Frame distance oracles: one pair of vectors, by direct summation
# ---------------------------------------------------------------------------

def angular_frame_distance(x, y) -> float:
    """Angle between two vectors in radians, in [0, pi]. Scale-invariant.

    Computed as 2*arcsin(chord/2) over the unit-normalized vectors, which
    equals the arccos of the clamped normalized dot product but stays
    exactly 0 for identical directions.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angular distance undefined for zero-norm vectors")
    chord = np.linalg.norm(x / nx - y / ny)
    return float(2.0 * math.asin(min(1.0, 0.5 * chord)))


def kl_frame_distance(p, q) -> float:
    """KL divergence sum(p * ln(p/q)) between two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    for v in (p, q):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-6:
            raise ValueError("KL distance requires probability vectors")
    p = np.maximum(p, KL_EPS)
    q = np.maximum(q, KL_EPS)
    return float(np.sum(p * np.log(p / q)))


def pair_costs(x, y, metric: str) -> np.ndarray:
    """The T x S framewise costs of one raw pair of frame matrices: both
    prepared into one store, then ``distance.frame_cost_matrix`` over
    x's rows against y's."""
    store = distance.prepare([x, y], metric)
    return distance.frame_cost_matrix(store.parts, np.arange(len(x)),
                                      len(x) + np.arange(len(y)), metric)


# ---------------------------------------------------------------------------
# DTW oracle: exhaustive monotone-path enumeration
# ---------------------------------------------------------------------------

_STEP_PRIORITY = {(1, 1): 0, (1, 0): 1, (0, 1): 2}


@lru_cache(maxsize=None)
def monotone_paths(t: int, s: int) -> tuple:
    """All monotone paths from (0, 0) to (t-1, s-1) with steps
    (1,0), (0,1), (1,1)."""
    if t == 1 and s == 1:
        return (((0, 0),),)
    paths = []
    if t > 1 and s > 1:
        paths += [p + ((t - 1, s - 1),) for p in monotone_paths(t - 1, s - 1)]
    if t > 1:
        paths += [p + ((t - 1, s - 1),) for p in monotone_paths(t - 1, s)]
    if s > 1:
        paths += [p + ((t - 1, s - 1),) for p in monotone_paths(t, s - 1)]
    return tuple(paths)


def _reverse_priorities(path) -> tuple:
    prios = []
    for k in range(len(path) - 1, 0, -1):
        step = (path[k][0] - path[k - 1][0], path[k][1] - path[k - 1][1])
        prios.append(_STEP_PRIORITY[step])
    return tuple(prios)


def dtw_oracle(cost) -> float:
    """Path-averaged DTW distance by exhaustive path enumeration.

    Among minimum-sum paths, picks the one the diagonal-first backtrack
    would (lexicographically smallest reversed step priorities) and
    returns its mean framewise cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    t, s = cost.shape
    best_total = None
    for path in monotone_paths(t, s):
        total = 0.0
        for i, j in path:
            total += cost[i, j]
        if best_total is None or total < best_total:
            best_total = total
            best = [(path, _reverse_priorities(path))]
        elif total == best_total:
            best.append((path, _reverse_priorities(path)))
    chosen = min(best, key=lambda item: item[1])[0]
    return best_total / len(chosen)


def dtw_oracle_fast(cost) -> float:
    """Same contract as :func:`dtw_oracle`, vectorized for acceptance runs.

    Path sums use numpy's pairwise accumulation rather than the DP's
    left-to-right order, so tie DETECTION can differ by rounding; use it
    only on continuous random inputs where exact ties do not occur.
    """
    cost = np.asarray(cost, dtype=np.float64)
    ii, jj, mask, lengths, prios = _path_arrays(*cost.shape)
    sums = (cost[ii, jj] * mask).sum(axis=1)
    best_total = sums.min()
    candidates = np.flatnonzero(sums == best_total)
    chosen = min(candidates, key=lambda k: prios[k])
    return float(best_total) / int(lengths[chosen])


@lru_cache(maxsize=None)
def _path_arrays(t: int, s: int):
    paths = monotone_paths(t, s)
    length = max(len(p) for p in paths)
    ii = np.zeros((len(paths), length), dtype=np.intp)
    jj = np.zeros((len(paths), length), dtype=np.intp)
    mask = np.zeros((len(paths), length), dtype=np.float64)
    for k, path in enumerate(paths):
        for step, (i, j) in enumerate(path):
            ii[k, step], jj[k, step], mask[k, step] = i, j, 1.0
    lengths = np.array([len(p) for p in paths], dtype=np.intp)
    prios = tuple(_reverse_priorities(p) for p in paths)
    return ii, jj, mask, lengths, prios


# ---------------------------------------------------------------------------
# ABX oracle: direct triple loop
# ---------------------------------------------------------------------------

def abx_oracle(a_tokens, b_tokens, dist, x_tokens=None) -> float:
    """Direct evaluation of the asymmetric cell score."""
    xs = a_tokens if x_tokens is None else x_tokens
    total, count = 0.0, 0
    for xi, x in enumerate(xs):
        d_bx = [dist(b, x) for b in b_tokens]
        for ai, a in enumerate(a_tokens):
            if x_tokens is None and ai == xi:
                continue
            d_ax = dist(a, x)
            for db in d_bx:
                if db < d_ax:
                    total += 1.0
                elif db == d_ax:
                    total += 0.5
                count += 1
    return total / count


def dtw_reference(metric):
    """The per-pair DTW distance of ``metric``, one ``dtw_distance`` call
    per pair: the reference the ABX engine's distances are compared to."""
    return lambda x, y: distance.dtw_distance(x, y, metric)


@contextmanager
def per_pair_abx(dist):
    """Within the block, ``abx`` gets each requested (token, probe)
    distance from ``dist(token frames, probe frames)``, one call per pair
    in request order: ``abx.prepare_into`` copies each utterance's raw
    frames into the store's first component, and ``abx.dtw_pairs``
    becomes a loop over its tokens' rows of that component. Grouping,
    tables and cell scoring are the engine's own; the metric name only
    passes the name checks."""
    def identity(parts, at, frames, metric):
        parts[0][at:at + len(frames)] = frames

    def pairs(store, rows, cols, metric):
        frames = [store.parts[0][o:o + n] for o, n in
                  zip(store.offsets.tolist(), store.lengths.tolist())]
        return np.array([dist(frames[i], frames[j])
                         for i, j in zip(rows.tolist(), cols.tolist())],
                        dtype=np.float64)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abx, "prepare_into", identity)
        patch.setattr(abx, "dtw_pairs", pairs)
        yield


def context_scores(tokens, directions, metric="angular"):
    """The directed cell scores of one context holding ``tokens`` (frame
    matrices), through the engine's own scorer, ``abx._score_cells``.
    Each direction is ``(a_idx, b_idx, x_idx, skip_same)``: token indices
    on each side, and whether x runs over the a tokens, each a token
    then never being its own probe. Each distinct index list is one
    category. The tokens go through ``abx.prepare_into`` into one store,
    back to back; ``abx.prepare_into`` and ``abx.dtw_pairs`` are looked
    up at call time, so ``per_pair_abx`` intercepts them."""
    categories: dict = {}  # index list -> category id
    for a_idx, b_idx, x_idx, _ in directions:
        for idx in (a_idx, b_idx, x_idx):
            categories.setdefault(tuple(idx), len(categories))
    members = [i for idx in categories for i in idx]
    sizes = np.array([len(idx) for idx in categories], dtype=np.intp)
    cells = np.array([[categories[tuple(a)], categories[tuple(b)],
                       categories[tuple(a if same else x)]]
                      for a, b, x, same in directions], dtype=np.intp)
    lengths = np.array([len(x) for x in tokens], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    parts = distance.empty_parts(metric, int(lengths.sum()), np.shape(tokens[0])[1])
    for at, x in zip(offsets.tolist(), tokens):
        abx.prepare_into(parts, at, x, metric)
    return abx._score_cells(distance.Prepared(parts, offsets, lengths),
                            np.array(members, dtype=np.intp),
                            (np.cumsum(sizes) - sizes, sizes), tuple(cells.T), metric)


def cell_score(a, b, metric="angular", x=None) -> float:
    """The directed cell score e(A, B) in [0, 1]. With ``x`` unset the
    probes are ``a``'s own tokens, the token playing a left out; else the
    probes are the pool ``x`` (the across-speaker case)."""
    a, b, x = list(a), list(b), None if x is None else list(x)
    A, B = range(len(a)), range(len(a), len(a) + len(b))
    X = A if x is None else range(len(a) + len(b), len(a) + len(b) + len(x))
    return float(context_scores(a + b + (x or []), [(A, B, X, x is None)], metric)[0])


def symmetrized_score(a, b, metric="angular") -> float:
    """The mean of a within cell's two directed scores, as ``abx_evaluate``
    takes it: both directions of one context, probes from each side."""
    A, B = range(len(a)), range(len(a), len(a) + len(b))
    scores = context_scores(list(a) + list(b), [(A, B, A, True), (B, A, B, True)],
                            metric)
    return float((scores[0] + scores[1]) / 2)


# ---------------------------------------------------------------------------
# ABX reference: tokens one by one, then context by context, each context
# with its own cell lists, comparison indices, requests and distance table
# ---------------------------------------------------------------------------

REFERENCE_LOG = logging.getLogger("abx-reference")


def _index_product(*axes):
    """Flat index arrays over the Cartesian product of each cell's lists:
    one array per axis, then the cell of each combination, cell by cell,
    the last axis varying fastest."""
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


def _context_comparisons(n, directions) -> tuple:
    """``(count, ax, bx)``: each direction's number of comparisons and the
    table entries ``a * n + x`` and ``b * n + x`` of every comparison.
    Each direction is ``(a_idx, b_idx, x_idx, skip_same)``."""
    a_idx, b_idx, x_idx, skip_same = zip(*directions)
    a, b, x, cell = _index_product(a_idx, b_idx, x_idx)
    keep = ~(np.array(skip_same)[cell] & (a == x))
    a, b, x = a[keep], b[keep], x[keep]
    return np.bincount(cell[keep], minlength=len(directions)), a * n + x, b * n + x


def _context_requests(n, ax, bx) -> tuple:
    """The (token, probe) pairs the comparisons read, each once, row-major."""
    need = np.zeros(n * n, dtype=bool)
    need[ax] = True
    need[bx] = True
    need = need.reshape(n, n)
    np.fill_diagonal(need, False)  # d(x, x) is never compared
    return np.nonzero(need)


def _context_cells(by_center, mode, context) -> tuple:
    """The symmetrized cells of one context, in aggregation order, each
    ``(phone_pair, [direction, direction])``, and the number of within
    cells skipped for lack of tokens."""
    cells = []
    skipped = 0
    centers = sorted(by_center)
    for i, c1 in enumerate(centers):
        for c2 in centers[i + 1:]:
            cat1, cat2 = by_center[c1], by_center[c2]
            speakers = sorted(set(cat1) & set(cat2))
            if mode == "within":
                for speaker in speakers:
                    a_idx, b_idx = cat1[speaker], cat2[speaker]
                    if len(a_idx) < 2 or len(b_idx) < 2:
                        REFERENCE_LOG.info(
                            "skipping within cell %s/%s @%s %s: "
                            "needs 2+ tokens on both sides",
                            c1, c2, speaker, context)
                        skipped += 1
                        continue
                    cells.append(((c1, c2), [(a_idx, b_idx, a_idx, True),
                                             (b_idx, a_idx, b_idx, True)]))
            else:
                for s1 in speakers:
                    for s2 in speakers:
                        if s1 != s2:
                            cells.append(((c1, c2), [
                                (cat1[s1], cat2[s1], cat1[s2], False),
                                (cat2[s1], cat1[s1], cat2[s2], False)]))
    return cells, skipped


def _reference_token_name(token) -> str:
    return f"token ({token.file_id}, {token.onset}, {token.offset})"


def abx_reference(items, features, mode, metric="angular"):
    """``abx.abx_evaluate`` token by token and context by context.

    Each token is read, spanned and checked in item-file order; each
    context then builds its cells, its comparison indices, its requested
    pairs (one ``dtw_pairs`` call) and its NaN-filled distance table, and
    its cells are scored from that table. Logs go to ``REFERENCE_LOG``
    with the engine's texts."""
    loaded: dict = {}
    contexts: dict = {}  # (left, right) -> ([frames], center -> speaker -> [index])
    first = None
    rejected: dict = {}
    dropped = clamped = 0
    for token in items:
        if token.file_id not in loaded:
            try:
                loaded[token.file_id] = io_formats.read_feature_archive(
                    features, token.file_id)
            except FileNotFoundError as exc:
                raise ValidationError(
                    f"{_reference_token_name(token)}: {exc}") from None
        fs = loaded[token.file_id]
        start = math.floor(token.onset * fs.frame_rate)
        stop = math.floor(token.offset * fs.frame_rate)
        clamp, stop = stop > len(fs), min(stop, len(fs))
        if stop <= start:
            REFERENCE_LOG.warning("dropping token (%s, %s, %s): empty frame extraction",
                                  token.file_id, token.onset, token.offset)
            dropped += 1
            continue
        clamped += clamp
        frames = fs.frames[start:stop]
        if first is None:
            first = (token, frames.shape[1])
        elif frames.shape[1] != first[1]:
            raise ValidationError(
                f"{_reference_token_name(token)}: frame dimension {frames.shape[1]} "
                f"differs from {first[1]} in {_reference_token_name(first[0])}")
        if token.file_id not in rejected:
            rejected[token.file_id] = distance.invalid_frames(fs.frames, metric)
        bad, reason = rejected[token.file_id]
        if bad[start:stop].any():
            raise ValidationError(f"{_reference_token_name(token)}: {reason}")
        tokens, by_center = contexts.setdefault((token.left, token.right), ([], {}))
        by_center.setdefault(token.center, {}) \
                 .setdefault(token.speaker, []).append(len(tokens))
        tokens.append(frames)

    per_pair_context: dict = {}  # phone pair -> context -> [cell mean]
    cell_count = skipped = 0
    for context in sorted(contexts):
        tokens, by_center = contexts[context]
        cells, skipped_here = _context_cells(by_center, mode, context)
        skipped += skipped_here
        if not cells:
            continue
        n = len(tokens)
        count, ax, bx = _context_comparisons(
            n, [d for _, both in cells for d in both])
        rows, cols = _context_requests(n, ax, bx)
        table = np.full((n, n), np.nan)
        table[rows, cols] = distance.dtw_pairs(distance.prepare(tokens, metric),
                                               rows, cols, metric)
        flat = table.reshape(-1)
        starts = np.cumsum(count) - count
        errors = np.add.reduceat(flat[bx] < flat[ax], starts, dtype=np.intp)
        ties = np.add.reduceat(flat[bx] == flat[ax], starts, dtype=np.intp)
        scores = (errors + 0.5 * ties) / count
        for (pair, _), mean in zip(cells, ((scores[0::2] + scores[1::2]) / 2).tolist()):
            per_pair_context.setdefault(pair, {}).setdefault(context, []).append(mean)
        cell_count += len(cells)
    if not cell_count:
        raise ValidationError(f"no valid ABX cells in {mode} mode")
    pair_scores = {}
    for pair in sorted(per_pair_context):
        means = [sum(v) / len(v) for _, v in sorted(per_pair_context[pair].items())]
        pair_scores[pair] = sum(means) / len(means)
    aggregate = sum(pair_scores.values()) / len(pair_scores)
    return abx.AbxResult(
        mode=mode,
        error_rate=100.0 * aggregate,
        cell_count=cell_count,
        by_phone_pair={f"{p1}-{p2}": 100.0 * s
                       for (p1, p2), s in sorted(pair_scores.items())},
        dropped_tokens=dropped,
        clamped_tokens=clamped,
        skipped_cells=skipped,
    )


# ---------------------------------------------------------------------------
# rank-correlation oracle: average ranks + Pearson
# ---------------------------------------------------------------------------

def average_ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_oracle(a, b) -> float:
    """Pearson correlation of average ranks, scaled by 100."""
    ra, rb = average_ranks(a), average_ranks(b)
    return float(np.corrcoef(ra, rb)[0, 1]) * 100.0


def similarity_score(records, reprs: dict, subset: str = "synthetic") -> float:
    """The semantic score of one vector per utterance: ``layer_sweep`` over
    one layer of one-row matrices, mean pooled (the mean of one row is
    that row, exactly)."""
    return metrics.layer_sweep([{u: v[None] for u, v in reprs.items()}],
                               records, subset, ("mean",))[2]


def record_similarities(records, reprs: dict, subset: str) -> list:
    """Each record's model similarity over one vector per utterance, for
    any number of records."""
    records = list(records)
    return metrics._similarities(records, metrics._token_plan(records, subset), reprs)


# ---------------------------------------------------------------------------
# sampler oracles: exhaustive enumeration
# ---------------------------------------------------------------------------

def outcome_rows(cs) -> list:
    """Per anchor, per candidate: the comparison outcomes in half-credit
    units (2 anchor wins, 1 tie, 0 candidate wins), one per score,
    compared element by element in Python."""
    return [[tuple(2 if sa > sc else 1 if sa == sc else 0
                   for sa, sc in zip(anchor.scores, cand_scores))
             for _, cand_scores in anchor.candidates]
            for anchor in cs.anchors]


def balance_objective(chosen: dict, cs) -> float:
    """The balance objective of one set of choices, anchor_id -> candidate
    index."""
    return sampler.stratum_objectives({None: chosen}, cs)[None]


def word_assignment_minimum(cs) -> float:
    """Minimum balance objective over every complete assignment."""
    import itertools

    outcomes = outcome_rows(cs)
    n = len(cs.anchors)
    best = None
    for combo in itertools.product(*[range(len(rows)) for rows in outcomes]):
        sums = [0] * cs.n_scores
        for idx, ci in enumerate(combo):
            sums = [s + o for s, o in zip(sums, outcomes[idx][ci])]
        num = sum(abs(s - n) for s in sums)
        if best is None or num < best:
            best = num
    return best / (2.0 * n)


def sentence_subset_minimum(pool, k_target: int) -> float:
    """Minimum balance objective over every k-subset of the pool."""
    import itertools

    outcomes = outcome_rows(pool)
    best = None
    for subset in itertools.combinations(range(len(pool.anchors)), k_target):
        sums = [0] * pool.n_scores
        for idx in subset:
            sums = [s + o for s, o in zip(sums, outcomes[idx][0])]
        num = sum(abs(s - k_target) for s in sums)
        if best is None or num < best:
            best = num
    return best / (2.0 * k_target)


# ---------------------------------------------------------------------------
# synthetic mini-benchmark
# ---------------------------------------------------------------------------

def build_mini_benchmark(root: Path, seed: int = 20210) -> Path:
    """Write a small, fully synthetic benchmark bundle under ``root``.

    40 triphone tokens with features, 200 unit sequences, 50 lexical
    pairs, 50 syntactic pairs with an external score table, 20 similarity
    records over two hidden-state layers, and a 60-anchor candidate set.
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)

    # --- triphone tokens + features ---------------------------------------
    feat_dir = root / "features"
    centers = ("B", "P")
    contexts = (("AH", "T"), ("IY", "K"))
    speakers = ("spk1", "spk2")
    phone_means = {"B": np.array([3.0, 0.0, 0.0, 0.0]),
                   "P": np.array([0.0, 3.0, 0.0, 0.0])}
    spk_shift = {"spk1": np.zeros(4), "spk2": np.array([0.0, 0.0, 0.5, 0.0])}
    tokens = []
    n_tok = 0
    for left, right in contexts:
        for center in centers:
            for speaker in speakers:
                for _ in range(5):
                    file_id = f"tok{n_tok:03d}"
                    n_frames = int(rng.integers(3, 7))
                    frames = (phone_means[center] + spk_shift[speaker]
                              + 0.05 * rng.standard_normal((n_frames, 4)))
                    fs = FeatureSequence(file_id, 100.0, frames)
                    fmt = "text" if n_tok % 2 else "binary"
                    io_formats.write_feature_archive(feat_dir, fs, fmt)
                    tokens.append(
                        f"{file_id} 0.0 {n_frames / 100.0} "
                        f"{center} {left} {right} {speaker}")
                    n_tok += 1
    item_path = root / "items.item"
    item_path.write_text(io_formats.ITEM_HEADER + "\n" + "\n".join(tokens) + "\n")

    # --- unit sequences -----------------------------------------------------
    sequences = []
    for i in range(200):
        length = int(rng.integers(4, 13))
        units = rng.integers(0, 12, size=length)
        sequences.append(UnitSequence(f"u{i:03d}", units.tolist()))
    io_formats.write_unit_sequences(sequences, root / "units.txt")

    # --- lexical pairs (scored via an n-gram model over units.txt) ---------
    with open(root / "pairs.tsv", "w") as fh:
        fh.write("pair_id\taccepted_id\trejected_id\tparadigm\tvoice\n")
        for i in range(50):
            fh.write(f"p{i:03d}\tu{i:03d}\tu{i + 50:03d}"
                     f"\tbin{i % 3}\tv{i % 4}\n")

    # --- syntactic pairs with an external score table ----------------------
    with open(root / "spairs.tsv", "w") as fh:
        fh.write("pair_id\taccepted_id\trejected_id\tparadigm\n")
        for i in range(50):
            fh.write(f"s{i:03d}\tg{i:03d}\tb{i:03d}\tpara{i % 5}\n")
    scores = {}
    for i in range(50):
        scores[f"g{i:03d}"] = float(-rng.uniform(5.0, 40.0))
        scores[f"b{i:03d}"] = float(-rng.uniform(5.0, 40.0))
    io_formats.write_external_scores(scores, root / "sscores.tsv")

    # --- similarity gold + two hidden-state layers --------------------------
    words = [f"w{i:02d}" for i in range(15)]
    hidden_dirs = (root / "hidden0", root / "hidden1")
    word_vec = {w: rng.standard_normal(8) for w in words}
    for word in words:
        for voice in ("A", "B"):
            utt = f"{word}_{voice}"
            for li, hdir in enumerate(hidden_dirs):
                frames = (word_vec[word] * (li + 1)
                          + 0.1 * rng.standard_normal((int(rng.integers(3, 8)), 8)))
                io_formats.write_feature_archive(hdir, FeatureSequence(utt, 100.0, frames),
                                                 "binary")
    with open(root / "gold.tsv", "w") as fh:
        fh.write("word_a\tword_b\tscore\tdataset\trefs_a\trefs_b\n")
        for i in range(20):
            wa, wb = words[i % 15], words[(i * 7 + 3) % 15]
            if wa == wb:
                wb = words[(i * 7 + 4) % 15]
            score = float(np.round(rng.uniform(0, 10), 2))
            refs_a = f"A:{wa}_A,B:{wa}_B"
            refs_b = f"A:{wb}_A,B:{wb}_B"
            fh.write(f"{wa}\t{wb}\t{score}\tds{i % 2}\t{refs_a}\t{refs_b}\n")

    # --- candidate set -------------------------------------------------------
    anchors = []
    for i in range(60):
        stratum = f"f{i % 2}:l{i % 3}"
        cands = tuple(
            (f"c{i:03d}_{k}", (float(rng.normal()), float(rng.normal())))
            for k in range(3))
        anchors.append(sampler.AnchorEntry(
            f"a{i:03d}", stratum,
            (float(rng.normal()), float(rng.normal())), cands))
    sampler.write_candidate_set(sampler.CandidateSet(anchors),
                                root / "candidates.tsv")
    return root


@pytest.fixture(scope="session")
def mini_benchmark(tmp_path_factory) -> Path:
    return build_mini_benchmark(tmp_path_factory.mktemp("mini"))


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Expose each phase's outcome on the item (acceptance banner lines)."""
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)
