"""The four benchmark scores over pairs, pooled embeddings and gold tables.

* paired accuracy - fraction of pairs whose accepted member outscores the
  rejected one (lexical and syntactic tasks); ties earn half credit by
  default so a constant scorer sits exactly at chance
* semantic similarity - cosine similarity between pooled hidden states,
  correlated against human judgments with Spearman's rho (x100)

Spearman's rho is the Pearson correlation of average ranks: each input
gets its ranks (ties share the mean of their positions, an exact
half-integer), the two rank vectors are stacked as the rows of one
2 x n array, and ``np.corrcoef`` correlates them. A tier-1 test pins the
result ``==`` to the reference rank correlation of the ``test`` extra.

Only comparisons matter: both scores are invariant under strictly
increasing transformations of the model outputs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import ValidationError, _at

POOLINGS = ("mean", "max", "min")


@dataclass
class AccuracyReport:
    overall: float
    per_tag: dict = field(default_factory=dict)     # "key=value" -> accuracy
    tag_counts: dict = field(default_factory=dict)  # "key=value" -> pair count
    pair_count: int = 0
    tie_count: int = 0


def paired_accuracy(pairs, scores: dict, tie_policy: str = "half",
                    where=None) -> AccuracyReport:
    """Score accepted-vs-rejected pairs against a log-score table.

    ``tie_policy`` is 'half' (ties earn 0.5) or 'zero'. The overall
    accuracy is the mean over pairs, not the mean of per-tag means. A
    pair without a score is an error led by the pair's ``where``, and no
    pairs at all one led by ``where`` (the pairs' file) when it is given.
    """
    if tie_policy not in ("half", "zero"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    if not pairs:
        raise _at(where, "no pairs to score")
    outcomes = []
    tags: dict = {}
    ties = 0
    for pair in pairs:
        try:
            accepted = scores[pair.accepted_id]
            rejected = scores[pair.rejected_id]
        except KeyError as exc:
            raise _at(pair.where, f"pair {pair.pair_id}: no score for utterance "
                                  f"{exc.args[0]!r}") from None
        if accepted > rejected:
            outcome = 1.0
        elif accepted == rejected:
            outcome = 0.5 if tie_policy == "half" else 0.0
            ties += 1
        else:
            outcome = 0.0
        outcomes.append(outcome)
        for key, value in pair.tags.items():
            tags.setdefault(f"{key}={value}", []).append(outcome)

    return AccuracyReport(
        overall=sum(outcomes) / len(outcomes),
        per_tag={k: sum(v) / len(v) for k, v in sorted(tags.items())},
        tag_counts={k: len(v) for k, v in sorted(tags.items())},
        pair_count=len(outcomes),
        tie_count=ties,
    )


# ---------------------------------------------------------------------------
# pooled embeddings and similarity
# ---------------------------------------------------------------------------

def pool(hidden, kind: str = "mean") -> np.ndarray:
    """Elementwise mean/max/min over the time axis of a T x D matrix."""
    hidden = np.asarray(hidden, dtype=np.float64)
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ValidationError("pooling needs a non-empty T x D matrix")
    if kind == "mean":
        return hidden.mean(axis=0)
    if kind == "max":
        return hidden.max(axis=0)
    if kind == "min":
        return hidden.min(axis=0)
    raise ValueError(f"unknown pooling {kind!r}")


# token pairs whose operands one stacked product gathers at a time:
# bounds the two gathered P x D blocks
COSINE_PAIRS = 1 << 12


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two P x D stacks, each row pair through the
    same dot routine as ``np.dot`` on the two rows alone."""
    return np.matmul(x[:, None, :], y[:, :, None]).reshape(-1)


def _cosines(vectors: list, a: np.ndarray, b: np.ndarray,
             where_of=lambda k: None) -> np.ndarray:
    """``np.dot(x, y) / (norm(x) * norm(y))`` for every pair ``x =
    vectors[a[k]]``, ``y = vectors[b[k]]``.

    Vectors are stacked once per shape; each vector's norm is the square
    root of its stacked self-product (as ``np.linalg.norm`` computes it)
    and the pairs' dot products are stacked ``matmul`` slices, a bounded
    block of pairs at a time. The first pair of mismatched shapes or with
    a zero vector raises, mismatch first, led by ``where_of(k)`` for that
    pair ``k``.
    """
    shapes: dict = {}  # shape -> its stack's index
    group = np.array([shapes.setdefault(v.shape, len(shapes)) for v in vectors],
                     dtype=np.intp)
    row = np.empty(len(vectors), dtype=np.intp)  # row in its stack
    norms = np.empty(len(vectors))
    stacks = []
    for g in range(len(shapes)):
        members = np.flatnonzero(group == g)
        row[members] = np.arange(members.size)
        x = np.stack([vectors[i] for i in members.tolist()]).reshape(members.size, -1)
        norms[members] = np.sqrt(_dots(x, x))
        stacks.append(x)
    bad = (group[a] != group[b]) | (norms[a] == 0.0) | (norms[b] == 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        x, y = vectors[a[k]], vectors[b[k]]
        if x.shape != y.shape:
            raise _at(where_of(k), f"dimension mismatch: {x.shape} vs {y.shape}")
        raise _at(where_of(k), "cosine undefined for zero vectors")
    dots = np.empty(a.size)
    for g, x in enumerate(stacks):
        pick = np.flatnonzero(group[a] == g)
        for start in range(0, pick.size, COSINE_PAIRS):
            k = pick[start:start + COSINE_PAIRS]
            dots[k] = _dots(x[row[a[k]]], x[row[b[k]]])
    return dots / (norms[a] * norms[b])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties (by ``==``, so -0.0 ties 0.0)
    sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    # positions starts+1 .. ends average to (starts + ends + 1) / 2, exactly
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(model_scores, human_scores) -> float:
    """Spearman's rho with average ranks for ties, on a -100..100 scale."""
    model_scores = np.asarray(model_scores, dtype=np.float64)
    human_scores = np.asarray(human_scores, dtype=np.float64)
    if len(model_scores) < 2:
        raise ValidationError("rank correlation needs at least 2 observations")
    if (model_scores == model_scores[0]).all() or (human_scores == human_scores[0]).all():
        raise ValidationError("rank correlation undefined (constant input)")
    if np.isnan(model_scores).any() or np.isnan(human_scores).any():
        raise ValidationError("rank correlation undefined (NaN input)")
    ranks = np.stack([_average_ranks(model_scores), _average_ranks(human_scores)])
    return float(np.corrcoef(ranks)[1, 0]) * 100.0


def record_refs(record) -> tuple:
    """The (voice, utt_id) refs of both words of a gold record.

    A word with no refs falls back to the word itself as its only
    utterance key.
    """
    return (record.refs_a or (("", record.word_a),),
            record.refs_b or (("", record.word_b),))


def _token_pairs(record, subset: str) -> list:
    """The (utt_a, utt_b) token pairs a record's similarity averages over:
    same-voice pairs (synthetic), or all but single-token ones (natural)."""
    refs_a, refs_b = record_refs(record)
    if subset == "synthetic":
        pairs = [(ua, ub) for va, ua in refs_a for vb, ub in refs_b if va == vb]
    elif subset == "natural":
        pairs = [(ua, ub) for _, ua in refs_a for _, ub in refs_b if ua != ub]
    else:
        raise ValueError(f"unknown similarity subset {subset!r}")
    if not pairs:
        raise _at(record.where, f"({record.word_a}, {record.word_b}): no "
                                f"comparable token pairs for the {subset} subset")
    return pairs


def _token_plan(records, subset: str) -> tuple:
    """Every record's token pairs, flattened, as ``(names, sizes,
    failure)``: ``names`` holds each pair's two utterances in record and
    pair order and ``sizes`` each record's number of pairs. Collection
    stops at the first record without comparable pairs; ``failure`` is
    its error, else None.
    """
    names, sizes = [], []
    for record in records:
        try:
            pairs = _token_pairs(record, subset)
        except ValidationError as exc:
            return names, sizes, exc
        names.extend(chain.from_iterable(pairs))
        sizes.append(len(pairs))
    return names, sizes, None


def _similarities(records: list, plan: tuple, reprs: dict) -> list:
    """Model similarity of each record of a ``_token_plan``: the mean cosine
    over its token pairs, in pair order.

    Each representation is converted to float64 once and all the cosines
    come from one ``_cosines`` call. Errors are those of scoring the
    records one by one, pair by pair, led by the failing record's
    ``where``: a missing representation, or a record without comparable
    pairs, is reported only if no earlier pair has mismatched shapes or a
    zero vector.
    """
    names, sizes, failure = plan
    ends = list(accumulate(sizes))  # each record's pairs end here

    def owner(pair):
        return records[bisect.bisect_right(ends, pair)]

    absent = [utt for utt in dict.fromkeys(names) if utt not in reprs]
    if absent:
        first = min(map(names.index, absent))
        pair = first // 2
        record = owner(pair)
        failure = _at(record.where, f"({record.word_a}, {record.word_b}): no "
                                    f"representation for utterance {names[first]!r}")
        names = names[:2 * pair]
    rows: dict = {}  # utterance -> its index in vectors
    flat = np.array([rows.setdefault(utt, len(rows)) for utt in names],
                    dtype=np.intp)
    vectors = [np.asarray(reprs[utt], dtype=np.float64) for utt in rows]
    sims = _cosines(vectors, flat[0::2], flat[1::2],
                    lambda k: owner(k).where).tolist() if names else []
    if failure is not None:
        raise failure
    return [sum(sims[end - size:end]) / size for end, size in zip(ends, sizes)]


def layer_sweep(layer_archives, records, subset: str = "synthetic",
                poolings=POOLINGS, where=None):
    """Pick the (layer, pooling) pair maximizing the dev similarity score.

    ``layer_archives`` maps each layer index to a dict of utt_id -> T x D
    hidden-state matrix; a record's similarity is its mean cosine over its
    token pairs (``_token_pairs``). Returns the winner's ``(layer, pooling,
    score, record similarities)``; ties go to the lower layer, then the
    earlier pooling.
    An error about one record is led by its ``where``, and fewer than 2
    records by ``where`` (the records' file) when it is given.
    """
    if not layer_archives:
        raise ValidationError("layer sweep needs at least one layer")
    records = list(records)
    plan = None  # the records' token pairs, collected once for every layer
    best = None
    for layer_index, archive in enumerate(layer_archives):
        for kind in poolings:
            reprs = {utt: pool(mat, kind) for utt, mat in archive.items()}
            if plan is None:
                if len(records) < 2:
                    raise _at(where, "similarity scoring needs at least 2 records")
                plan = _token_plan(records, subset)
            sims = _similarities(records, plan, reprs)
            score = spearman(sims, [r.human_score for r in records])
            if best is None or score > best[2]:
                best = (layer_index, kind, score, sims)
    return best
