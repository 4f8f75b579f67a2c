"""The four benchmark scores over pairs, pooled embeddings and gold tables.

* paired accuracy - fraction of pairs whose accepted member outscores the
  rejected one (lexical and syntactic tasks); ties earn half credit by
  default so a constant scorer sits exactly at chance
* semantic similarity - cosine similarity between pooled hidden states,
  correlated against human judgments with Spearman's rho (x100)

Only comparisons matter: both scores are invariant under strictly
increasing transformations of the model outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import ValidationError

POOLINGS = ("mean", "max", "min")


@dataclass
class AccuracyReport:
    overall: float
    per_tag: dict = field(default_factory=dict)     # "key=value" -> accuracy
    tag_counts: dict = field(default_factory=dict)  # "key=value" -> pair count
    pair_count: int = 0
    tie_count: int = 0


def paired_accuracy(pairs, scores: dict, tie_policy: str = "half") -> AccuracyReport:
    """Score accepted-vs-rejected pairs against a log-score table.

    ``tie_policy`` is 'half' (ties earn 0.5) or 'zero'. The overall
    accuracy is the mean over pairs, not the mean of per-tag means.
    """
    if tie_policy not in ("half", "zero"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    if not pairs:
        raise ValidationError("no pairs to score")
    outcomes = []
    tags: dict = {}
    ties = 0
    for pair in pairs:
        try:
            accepted = scores[pair.accepted_id]
            rejected = scores[pair.rejected_id]
        except KeyError as exc:
            raise ValidationError(
                f"pair {pair.pair_id}: no score for utterance {exc.args[0]!r}") from None
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


def _vector(embedding) -> tuple:
    """An embedding as float64, with its norm: the cosine's operands."""
    x = np.asarray(embedding, dtype=np.float64)
    return x, np.linalg.norm(x)


def _cosine(x, nx, y, ny) -> float:
    if x.shape != y.shape:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("cosine undefined for zero vectors")
    return float(np.dot(x, y) / (nx * ny))


def semantic_distance(ex, ey) -> float:
    """Cosine similarity between two pooled embeddings, in [-1, 1]."""
    return _cosine(*_vector(ex), *_vector(ey))


def spearman(model_scores, human_scores) -> float:
    """Spearman's rho with average ranks for ties, on a -100..100 scale."""
    model_scores = np.asarray(model_scores, dtype=np.float64)
    human_scores = np.asarray(human_scores, dtype=np.float64)
    if len(model_scores) < 2:
        raise ValidationError("rank correlation needs at least 2 observations")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        rho = stats.spearmanr(model_scores, human_scores).statistic
    if not np.isfinite(rho):
        raise ValidationError("rank correlation undefined (constant input)")
    return float(rho) * 100.0


def record_refs(record) -> tuple:
    """The (voice, utt_id) refs of both words of a gold record.

    A word with no refs falls back to the word itself as its only
    utterance key.
    """
    return (record.refs_a or (("", record.word_a),),
            record.refs_b or (("", record.word_b),))


def record_similarity(record, reprs: dict, subset: str,
                      vectors: dict | None = None) -> float:
    """Model similarity for one gold record.

    The synthetic subset averages cosine over same-voice token pairs;
    the natural subset averages over all cross-word token pairs (minus
    any pair built from one single token). ``vectors`` caches each
    utterance's converted embedding and norm across calls.
    """
    refs_a, refs_b = record_refs(record)
    if subset == "synthetic":
        pairs = [(ua, ub) for va, ua in refs_a for vb, ub in refs_b if va == vb]
    elif subset == "natural":
        pairs = [(ua, ub) for _, ua in refs_a for _, ub in refs_b if ua != ub]
    else:
        raise ValueError(f"unknown similarity subset {subset!r}")
    if not pairs:
        raise ValidationError(
            f"({record.word_a}, {record.word_b}): no comparable token pairs "
            f"for the {subset} subset")
    vectors = {} if vectors is None else vectors
    sims = []
    for ua, ub in pairs:
        for utt in (ua, ub):
            if utt not in vectors:
                if utt not in reprs:
                    raise ValidationError(
                        f"({record.word_a}, {record.word_b}): no representation "
                        f"for utterance {utt!r}")
                vectors[utt] = _vector(reprs[utt])
        sims.append(_cosine(*vectors[ua], *vectors[ub]))
    return sum(sims) / len(sims)


def similarity_score(records, reprs: dict, subset: str = "synthetic") -> float:
    """Spearman correlation (x100) of model vs human similarities; each
    representation is converted, and its norm taken, once per call."""
    records = list(records)
    if len(records) < 2:
        raise ValidationError("similarity scoring needs at least 2 records")
    vectors: dict = {}
    model = [record_similarity(r, reprs, subset, vectors) for r in records]
    human = [r.human_score for r in records]
    return spearman(model, human)


def layer_sweep(layer_archives, records, subset: str = "synthetic",
                poolings=POOLINGS):
    """Pick the (layer, pooling) pair maximizing the dev similarity score.

    ``layer_archives`` maps each layer index to a dict of utt_id -> T x D
    hidden-state matrix. Ties go to the lower layer index, then to the
    earlier pooling in ``poolings``.
    """
    if not layer_archives:
        raise ValidationError("layer sweep needs at least one layer")
    best = None
    for layer_index, archive in enumerate(layer_archives):
        for kind in poolings:
            reprs = {utt: pool(mat, kind) for utt, mat in archive.items()}
            score = similarity_score(records, reprs, subset)
            if best is None or score > best[2]:
                best = (layer_index, kind, score)
    return best
