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

import numpy as np

from .distance import dtw_distance
from .errors import ValidationError
from .io_formats import FeatureArchive
from .types import FeatureSequence, UnitSequence

log = logging.getLogger(__name__)


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
class AbxCategory:
    """All tokens sharing one phone triple and one speaker."""

    phone_triple: tuple  # (left, center, right)
    speaker: str
    tokens: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class AbxResult:
    mode: str
    error_rate: float  # percent in [0, 100]
    cell_count: int
    by_phone_pair: dict = field(default_factory=dict)  # percent per pair


def _token_matrices(category) -> list:
    if isinstance(category, AbxCategory):
        return list(category.tokens)
    return list(category)


def _as_dist(metric):
    """Accept a frame-metric name or any pairwise distance callable."""
    if callable(metric):
        return metric
    return lambda x, y: dtw_distance(x, y, metric)


def asymmetric_abx(a, b, metric="angular", x=None) -> float:
    """Asymmetric cell score e(A, B) in [0, 1].

    ``a``/``b`` are AbxCategory values or plain lists of frame matrices;
    ``metric`` is a frame-metric name or a pairwise distance callable.
    With ``x`` unset, probes are drawn from ``a`` itself (excluding the
    token playing a), which requires at least two a-tokens. Passing a
    separate probe pool ``x`` (across-speaker case) lifts that
    requirement.
    """
    a_tokens = _token_matrices(a)
    b_tokens = _token_matrices(b)
    if not b_tokens:
        raise ValidationError("category B is empty")
    if x is None:
        if len(a_tokens) < 2:
            raise ValidationError(
                f"need at least 2 tokens in A to draw (a, x) pairs, got {len(a_tokens)}")
        x_tokens = []
    else:
        x_tokens = _token_matrices(x)
        if not a_tokens or not x_tokens:
            raise ValidationError("categories A and X must be non-empty")
    tokens = a_tokens + b_tokens + x_tokens
    na, nb = len(a_tokens), len(b_tokens)
    a_idx = range(na)
    x_idx = a_idx if x is None else range(na + nb, len(tokens))
    return _score_cell(a_idx, range(na, na + nb), x_idx,
                       _CachedDist(tokens, metric), skip_same=x is None)


def symmetrized_cell(a, b, metric="angular") -> float:
    """Mean of the two directed cell scores; needs 2+ tokens per side."""
    return 0.5 * (asymmetric_abx(a, b, metric) + asymmetric_abx(b, a, metric))


# ---------------------------------------------------------------------------
# full evaluation over an item set
# ---------------------------------------------------------------------------

def extract_token_frames(archive: FeatureArchive, token) -> np.ndarray | None:
    """Slice a token's frames out of its utterance; None when empty.

    Frame indices are floor(time * rate) for both onset and offset, the
    offset being exclusive.
    """
    try:
        fs = archive.load(token.file_id)
    except FileNotFoundError:
        raise ValidationError(
            f"token ({token.file_id}, {token.onset}, {token.offset}): "
            f"utterance {token.file_id!r} missing from archive") from None
    rate = fs.frame_rate
    start = math.floor(token.onset * rate)
    stop = math.floor(token.offset * rate)
    stop = min(stop, len(fs))
    if stop <= start:
        return None
    return fs.frames[start:stop]


class _CachedDist:
    """Pairwise token distance with memoization on (token index, probe index)."""

    def __init__(self, matrices, metric):
        self._matrices = matrices
        self._dist = _as_dist(metric)
        self._cache: dict = {}

    def __call__(self, i: int, j: int) -> float:
        key = (i, j)
        value = self._cache.get(key)
        if value is None:
            value = self._dist(self._matrices[i], self._matrices[j])
            self._cache[key] = value
        return value


def _score_cell(a_idx, b_idx, x_idx, dist, skip_same: bool) -> float:
    """Directed cell score over token indices; ``dist`` maps (i, j) to d."""
    total = 0.0
    count = 0
    for x in x_idx:
        d_ax = [dist(a, x) for a in a_idx if not (skip_same and a == x)]
        d_bx = [dist(b, x) for b in b_idx]
        for da in d_ax:
            for db in d_bx:
                if db < da:
                    total += 1.0
                elif db == da:
                    total += 0.5
                count += 1
    if count == 0:
        raise ValidationError("empty ABX cell")
    return total / count


def abx_evaluate(items, features, mode: str, metric="angular") -> AbxResult:
    """Evaluate the ABX error rate over an item set.

    ``features`` is a FeatureArchive or a directory path. Cells lacking
    enough tokens are skipped with a logged reason; an item set producing
    no valid cell at all is an error.
    """
    if mode not in ("within", "across"):
        raise ValueError(f"unknown ABX mode {mode!r}")
    archive = features if isinstance(features, FeatureArchive) else FeatureArchive(features)

    matrices = []
    groups: dict = {}  # (left, right) -> center -> speaker -> [token index]
    for token in items:
        frames = extract_token_frames(archive, token)
        if frames is None:
            log.warning("dropping token (%s, %s, %s): empty frame extraction",
                        token.file_id, token.onset, token.offset)
            continue
        idx = len(matrices)
        matrices.append(frames)
        groups.setdefault((token.left, token.right), {}) \
              .setdefault(token.center, {}) \
              .setdefault(token.speaker, []).append(idx)

    dist = _CachedDist(matrices, metric)

    # A job is one symmetrized cell: two directed scores to average.
    jobs = []  # (phone_pair, context, [(a_idx, b_idx, x_idx, skip_same), ...])
    for context in sorted(groups):
        by_center = groups[context]
        centers = sorted(by_center)
        for i, c1 in enumerate(centers):
            for c2 in centers[i + 1:]:
                pair = (c1, c2)
                cat1, cat2 = by_center[c1], by_center[c2]
                if mode == "within":
                    for speaker in sorted(set(cat1) & set(cat2)):
                        a_idx, b_idx = cat1[speaker], cat2[speaker]
                        if len(a_idx) < 2 or len(b_idx) < 2:
                            log.info(
                                "skipping within cell %s/%s @%s %s: "
                                "needs 2+ tokens on both sides",
                                c1, c2, speaker, context)
                            continue
                        jobs.append((pair, context, [
                            (a_idx, b_idx, a_idx, True),
                            (b_idx, a_idx, b_idx, True),
                        ]))
                else:
                    speakers = sorted(set(cat1) & set(cat2))
                    for s1 in speakers:
                        for s2 in speakers:
                            if s1 == s2:
                                continue
                            jobs.append((pair, context, [
                                (cat1[s1], cat2[s1], cat1[s2], False),
                                (cat2[s1], cat1[s1], cat2[s2], False),
                            ]))

    if not jobs:
        raise ValidationError(f"no valid ABX cells in {mode} mode")

    cell_scores = []
    for _, _, directions in jobs:
        scores = [_score_cell(a, b, x, dist, skip) for a, b, x, skip in directions]
        cell_scores.append(sum(scores) / len(scores))

    # speaker assignments -> context -> phone pair, uniform means at each level
    per_pair_context: dict = {}
    for (pair, context, _), score in zip(jobs, cell_scores):
        per_pair_context.setdefault(pair, {}).setdefault(context, []).append(score)

    pair_scores = {}
    for pair in sorted(per_pair_context):
        context_means = [sum(v) / len(v)
                         for _, v in sorted(per_pair_context[pair].items())]
        pair_scores[pair] = sum(context_means) / len(context_means)
    aggregate = sum(pair_scores.values()) / len(pair_scores)

    return AbxResult(
        mode=mode,
        error_rate=100.0 * aggregate,
        cell_count=len(jobs),
        by_phone_pair={f"{p1}-{p2}": 100.0 * s
                       for (p1, p2), s in sorted(pair_scores.items())},
    )
