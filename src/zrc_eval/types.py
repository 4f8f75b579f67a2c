"""Core domain types shared by the readers, metrics and scorers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _at


@dataclass(frozen=True)
class TriphoneToken:
    """One labelled speech fragment: a center phone with its context.

    Onset/offset are in seconds relative to the start of ``file_id``.
    ``where`` is the ``"<path>: line N"`` the token was read from, None
    when built in code, as in UnitSequence, ScoredPair and
    SimilarityRecord: it leads the record's errors and is left out of
    ``==``, hash and repr.
    """

    file_id: str
    onset: float
    offset: float
    center: str
    left: str
    right: str
    speaker: str
    where: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise _at(self.where, f"non-finite onset/offset ({self.onset}, "
                                  f"{self.offset}) in {self.file_id}")
        if self.onset < 0:
            raise _at(self.where, f"negative onset {self.onset} in {self.file_id}")
        if self.offset <= self.onset:
            raise _at(self.where,
                      f"offset {self.offset} <= onset {self.onset} in {self.file_id}")
        for label in (self.center, self.left, self.right):
            if not label:
                raise _at(self.where, f"empty phone label in {self.file_id}")


class FeatureSequence:
    """A timed matrix of frames for one utterance (T x D, float64); ``where``
    is its file, None when built in code, and ``==`` and repr leave it out."""

    __slots__ = ("utt_id", "frame_rate", "frames", "where")

    def __init__(self, utt_id: str, frame_rate: float, frames,
                 where: str | None = None):
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(
                f"{utt_id}: frames must be a non-empty T x D matrix, "
                f"got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise ValidationError(f"{utt_id}: non-finite value in frames")
        if not (frame_rate > 0):
            raise ValidationError(f"{utt_id}: frame rate must be positive")
        if frame_rate == math.inf:
            raise ValidationError(f"{utt_id}: frame rate must be finite")
        self.utt_id = utt_id
        self.frame_rate = float(frame_rate)
        self.frames = frames
        self.where = where

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __len__(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FeatureSequence)
                and self.utt_id == other.utt_id
                and self.frame_rate == other.frame_rate
                and self.frames.shape == other.frames.shape
                and bool(np.array_equal(self.frames, other.frames)))

    def __repr__(self) -> str:
        t, d = self.frames.shape
        return f"FeatureSequence({self.utt_id!r}, rate={self.frame_rate}, {t}x{d})"


@dataclass(frozen=True)
class UnitSequence:
    """Discretized pseudo-text for one utterance: cluster indices in order."""

    utt_id: str
    units: tuple[int, ...]
    where: str | None = field(default=None, compare=False, repr=False)

    def __init__(self, utt_id: str, units, where: str | None = None):
        units = tuple(map(int, units))
        if not units:
            raise _at(where, f"{utt_id}: empty unit sequence")
        if min(units) < 0:
            raise _at(where, f"{utt_id}: negative unit index")
        object.__setattr__(self, "utt_id", utt_id)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "where", where)

    def __len__(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ScoredPair:
    """A matched accepted/rejected stimulus pair (word/nonword, sentence pair)."""

    pair_id: str
    accepted_id: str
    rejected_id: str
    tags: dict = field(default_factory=dict)
    where: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.accepted_id == self.rejected_id:
            raise _at(self.where,
                      f"pair {self.pair_id}: accepted and rejected ids are identical")


@dataclass
class SimilarityRecord:
    """A human-scored word pair with the utterances realizing each word.

    ``refs_a``/``refs_b`` are (voice, utt_id) tuples; several tokens per
    word are allowed. Scores live on a 0-10 scale.
    """

    word_a: str
    word_b: str
    human_score: float
    dataset: str
    refs_a: tuple = ()
    refs_b: tuple = ()
    where: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.human_score <= 10.0):
            raise _at(self.where, f"({self.word_a}, {self.word_b}): score "
                                  f"{self.human_score} outside [0, 10]")


@dataclass
class MetricReport:
    """A metric run: aggregate score, per-subset breakdown, config echo.

    ``counts`` holds the number of items behind each subset score where the
    metric defines one (accuracy metrics); correlation subsets carry record
    counts. The aggregate is always computed from the underlying items, not
    from the subset scores.
    """

    metric: str
    aggregate: float
    subsets: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.aggregate):
            raise ValidationError(f"{self.metric}: non-finite aggregate score")
