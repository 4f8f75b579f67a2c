"""Pseudo-probability computation over discretized unit sequences.

Two scoring routes share the PseudoProbability output:

* n-gram models with additive smoothing, scored left to right by the
  chain rule (the classic control models),
* span scoring for masked models: sliding windows of ``m_d + 1`` tokens
  with stride ``delta_t``, each conditioned on the untouched remainder
  of the sequence, log-probabilities read from a window table (computed
  out of process) and summed over windows.

All log-probabilities are natural logs and may be unnormalized; only
comparisons between paired inputs are meaningful.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, ValidationError, _at, _named
from .io_formats import _rows
from .types import UnitSequence

# sentinels used in n-gram contexts; real units are non-negative
_START = -2
_END = -1


@dataclass(frozen=True)
class PseudoProbability:
    """Natural-log score of a whole input; finite by construction."""

    log_score: float

    def __post_init__(self):
        if not math.isfinite(self.log_score):
            raise ValidationError("non-finite pseudo-probability")


@dataclass(frozen=True)
class SpanConfig:
    """Decoding span size and temporal sliding size for span scoring."""

    m_d: int = 15
    delta_t: int = 5

    def __post_init__(self):
        if self.m_d < 1 or self.delta_t < 1:
            raise ValidationError(
                f"span parameters must be >= 1, got m_d={self.m_d} "
                f"delta_t={self.delta_t}")


# ---------------------------------------------------------------------------
# n-gram models
# ---------------------------------------------------------------------------

class NgramModel:
    """Additively smoothed n-gram model over integer units.

    Conditionals are P(u | h) = (count(h, u) + alpha) / (count(h) +
    alpha * (V + 1)) where the prediction alphabet is the training
    vocabulary plus one end-of-sequence symbol. Sequences are padded
    with n - 1 start symbols; the vocabulary is closed over the
    training units.
    """

    def __init__(self, order: int, alpha: float, vocab, counts: dict):
        if order < 1:
            raise ValidationError(f"order must be >= 1, got {order}")
        if not 0 < alpha < math.inf:
            raise ValidationError(f"alpha must be finite and positive, got {alpha}")
        self.order = order
        self.alpha = float(alpha)
        self.vocab = tuple(sorted(set(int(u) for u in vocab)))
        self._vocab_set = frozenset(self.vocab)
        self.counts = counts  # context tuple -> {unit or _END: count}
        self._totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
        # the least probability, alpha over the largest denominator, bounds
        # every other from below: it must not round to 0 (log(0) fails)
        try:
            denom = (max(self._totals.values(), default=0)
                     + self.alpha * (len(self.vocab) + 1))
        except OverflowError:
            raise ValidationError("a context's total count is out of float range") from None
        if not self.alpha / denom > 0:
            raise ValidationError(
                f"alpha {alpha} puts a smoothed probability out of float range")
        self._logprobs: dict = {}  # context + (target,) -> log P(target | context)

    def _logprob(self, key: tuple) -> float:
        """log P(key[-1] | key[:-1]) over checked units, computed on first
        use and then read from the model's table."""
        value = self._logprobs.get(key)
        if value is None:
            ctx, target = key[:-1], key[-1]
            bucket = self.counts.get(ctx, {})
            count = bucket.get(target, 0)
            total = self._totals.get(ctx, 0)
            denom = total + self.alpha * (len(self.vocab) + 1)
            value = self._logprobs[key] = math.log((count + self.alpha) / denom)
        return value

    def _chain_rule(self, units: tuple) -> float:
        """Sum of the chain-rule terms of ``units`` and the end symbol, left
        to right from 0.0; an out-of-vocabulary unit raises where it is
        first met."""
        n = self.order
        tokens = (_START,) * (n - 1) + tuple(units) + (_END,)
        table = self._logprobs
        total = 0.0
        # every n-gram in the table holds checked units, and the context of
        # a missing one holds earlier targets: only its target needs a check
        for key in zip(*(tokens[k:] for k in range(n))):
            term = table.get(key)
            if term is None:
                if key[-1] != _END and key[-1] not in self._vocab_set:
                    raise ValidationError(
                        f"unit {key[-1]} not in the model vocabulary")
                term = self._logprob(key)
            total += term
        return total

    # -- JSON persistence ---------------------------------------------------

    @staticmethod
    def _token_str(token: int) -> str:
        if token == _START:
            return "<s>"
        if token == _END:
            return "</s>"
        return str(token)

    @staticmethod
    def _token_int(text: str) -> int:
        if text == "<s>":
            return _START
        if text == "</s>":
            return _END
        try:
            return int(text)
        except ValueError:
            raise FormatError(f"non-integer token {text!r}") from None

    def to_json(self) -> dict:
        counts = {}
        for ctx in sorted(self.counts):
            key = " ".join(self._token_str(t) for t in ctx)
            counts[key] = {self._token_str(u): c
                           for u, c in sorted(self.counts[ctx].items())}
        return {"order": self.order, "alpha": self.alpha,
                "vocab": list(self.vocab), "counts": counts}

    @classmethod
    def from_json(cls, doc: dict) -> "NgramModel":
        order = _integer(doc["order"], "order", 1)
        vocab = [_integer(u, "vocab") for u in doc["vocab"]]
        targets = set(vocab) | {_END}
        if not isinstance(doc["counts"], dict) or not doc["counts"]:
            raise FormatError("'counts' is not a non-empty JSON object")
        counts = {}
        for key, bucket in doc["counts"].items():
            if not isinstance(bucket, dict):
                raise FormatError(f"counts for context {key!r} are not a JSON object")
            ctx = tuple(cls._token_int(t) for t in key.split())
            if len(ctx) != order - 1:
                raise FormatError(f"context {key!r} is not {order - 1} tokens long")
            where = f"counts[{json.dumps(key)}]"
            counts[ctx] = {}
            for u, c in bucket.items():
                target = cls._token_int(u)
                if target not in targets:
                    # a count no conditional predicts would still enter count(h)
                    raise FormatError(f"{where}[{json.dumps(u)}]: target is "
                                      "neither in vocab nor </s>")
                counts[ctx][target] = _integer(c, f"{where}[{json.dumps(u)}]")
        alpha = doc["alpha"]
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise FormatError(f"alpha: expected a number, got {json.dumps(alpha)}")
        return cls(order, float(alpha), vocab, counts)


def _integer(value, key: str, least: int = 0) -> int:
    """``value`` if it is a JSON integer >= ``least``; a boolean, a float
    such as 1.9 or 1e999, or a string is a FormatError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FormatError(
            f"{key}: expected an integer >= {least}, got {json.dumps(value)}")
    return value


def save_ngram_model(model: NgramModel, path) -> None:
    Path(path).write_text(json.dumps(model.to_json(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_ngram_model(path) -> NgramModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid model JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: model JSON is not an object")
    for key in ("order", "alpha", "vocab", "counts"):
        if key not in doc:
            raise FormatError(f"{path}: model JSON is missing {key!r}")
    try:
        return NgramModel.from_json(doc)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def ngram_train(corpus, order: int, alpha: float = 1.0, where=None) -> NgramModel:
    """Train an additively smoothed n-gram model on unit sequences; an
    empty corpus is an error led by ``where`` (its file) when it is given."""
    corpus = list(corpus)
    if not corpus:
        raise _at(where, "cannot train an n-gram model on an empty corpus")
    grams: Counter = Counter()  # context + (target,) -> count
    vocab: set[int] = set()
    for seq in corpus:
        units = tuple(seq.units) if isinstance(seq, UnitSequence) else tuple(seq)
        vocab.update(units)
        tokens = (_START,) * (order - 1) + units + (_END,)
        grams.update(zip(*(tokens[k:] for k in range(order))))
    counts: dict = {}
    for gram, count in grams.items():
        counts.setdefault(gram[:-1], {})[gram[-1]] = count
    return NgramModel(order, alpha, vocab, counts)


def chain_rule_logprob(model: NgramModel, seq: UnitSequence,
                       per_token: bool = False) -> PseudoProbability:
    """Left-to-right log-probability, including the end-symbol term.

    Each term is log P(u | h) from the model's counts, as the class
    docstring defines it, computed on its n-gram's first use and then read
    from the model's table; terms are summed left to right from 0.0. Pairs
    are length-matched by construction, so raw scores are the default;
    ``per_token`` divides by the sequence length. An out-of-vocabulary
    unit is an error led by the sequence's ``where``.
    """
    total = _named(seq.where, model._chain_rule, seq.units)
    if per_token:
        total /= len(seq.units)
    return PseudoProbability(total)


# ---------------------------------------------------------------------------
# masked-window scoring
# ---------------------------------------------------------------------------

def span_windows(length: int, cfg: SpanConfig) -> list[tuple[int, int]]:
    """Half-open, 0-based windows visited by span scoring over T tokens."""
    return [(start, min(start + cfg.m_d + 1, length))
            for start in range(0, length, cfg.delta_t)]


def span_pseudo_logprob(table, seq: UnitSequence,
                        cfg: SpanConfig | None = None,
                        per_token: bool = False) -> PseudoProbability:
    """Sum of masked-window log-probabilities over sliding spans.

    ``table`` is any mapping of ``(utt_id, i, j)``, i/j the window's
    1-based inclusive bounds as in the masked-score format, to log
    P(window | the remaining tokens); windows that would run past T are
    clamped at T, and a window missing from the table is a
    ValidationError naming it, led by the sequence's ``where``.
    ``per_token`` divides the sum by the sequence length.
    """
    cfg = cfg or SpanConfig()
    total = 0.0
    for start, stop in span_windows(len(seq.units), cfg):
        try:
            total += table[seq.utt_id, start + 1, stop]
        except KeyError:
            raise _at(seq.where, f"no masked score for window ({seq.utt_id}, "
                                 f"{start + 1}, {stop})") from None
    if per_token:
        total /= len(seq.units)
    return _named(seq.where, PseudoProbability, total)


def read_masked_scores(path) -> dict:
    """Read a masked-score table: ``utt_id\\ti\\tj\\tlog_p`` per line."""
    table: dict = {}
    for lineno, cols in _rows(path, width=4):
        if lineno == 1 and cols == ["utt_id", "i", "j", "log_p"]:
            continue
        utt_id = cols[0]
        try:
            i, j, logp = int(cols[1]), int(cols[2]), float(cols[3])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: malformed window row") from None
        if not math.isfinite(logp):
            raise ValidationError(
                f"{path}: line {lineno}: non-finite log_p for {utt_id!r}")
        key = (utt_id, i, j)
        if key in table:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate window {key}")
        table[key] = logp
    return table


def write_masked_scores(table: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("utt_id\ti\tj\tlog_p\n")
        for utt_id, i, j in sorted(table):
            fh.write(f"{utt_id}\t{i}\t{j}\t{table[(utt_id, i, j)]:.6f}\n")
