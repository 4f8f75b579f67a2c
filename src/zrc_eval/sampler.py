"""Stochastic balancing sampler for paired benchmark construction.

Given anchors (words, or sentence pairs) with M score functions each, the
sampler picks one candidate counterpart per anchor (word mode) or a
subset of pairs (sentence mode) so that every score function classifies
the resulting pairs at as close to 50% accuracy as possible:

    objective = sum over m of | accuracy_of_score_m - 0.5 |

where accuracy counts anchor-beats-candidate comparisons, ties worth
half. Both modes run one search over ``(indices, quota)`` groups, each
balanced on its own. Word mode makes one group per stratum and picks one
candidate for every anchor in it; sentence mode makes one group of the
whole pool with quota ``k_target``, or one per stratum with the target
split by largest remainder, and picks ``quota`` anchors. A group whose
choice space (candidate tuples, or anchor subsets) has at most
EXACT_SEARCH_LIMIT members is solved by enumeration in
``itertools.product`` / ``itertools.combinations`` order, the first
minimum winning. Every other group is filled greedily, accepting a pick
when it does not worsen the group's running objective:

* word move: anchors in a seeded permutation, each taking the first
  acceptable candidate in a second permutation, else a seeded-random one;
* sentence move: one pair per step, the first acceptable one in the
  step's permutation of the unchosen pairs, else a seeded-random one; a
  trial depends only on the pair's outcome row, so each distinct row is
  scored once per step.

Restart r draws from ``default_rng(seed ^ r)`` and the restart with the
lowest objective wins, the earliest on ties. The restarts run in
lockstep: groups one after another, and within a group every restart is
a row of the same arrays. Each step makes every restart's own
``permutation`` call (and ``integers`` when nothing is acceptable), then
tests all restarts' candidates in one array step. Each restart's random
stream and acceptance rule are those of a one-by-one walk, so its picks
are the walk's. All comparisons are read from one N x C_max x M outcome
array, and objectives are compared in exact integer arithmetic
(half-credit units), so no decision depends on floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError, _at
from .io_formats import _rows

# groups with at most this many choices (see above) are solved exactly
EXACT_SEARCH_LIMIT = 4096


@dataclass(frozen=True)
class AnchorEntry:
    """One anchor with its M scores and its candidate counterparts;
    ``where`` is the ``"<path>: line N"`` of its first row, None when built
    in code, left out of ``==``, hash and repr."""

    anchor_id: str
    stratum: str
    scores: tuple
    candidates: tuple  # ((candidate_id, scores), ...)
    where: str | None = field(default=None, compare=False, repr=False)


@dataclass
class CandidateSet:
    anchors: list

    def __post_init__(self):
        if not self.anchors:
            raise ValidationError("candidate set is empty")
        m = len(self.anchors[0].scores)
        if m < 1:
            raise ValidationError("need at least one score dimension")
        seen = set()
        for anchor in self.anchors:
            if anchor.anchor_id in seen:
                raise ValidationError(f"duplicate anchor {anchor.anchor_id!r}")
            seen.add(anchor.anchor_id)
            if len(anchor.scores) != m:
                raise ValidationError(
                    f"anchor {anchor.anchor_id!r}: inconsistent score count")
            if not anchor.candidates:
                raise ValidationError(
                    f"anchor {anchor.anchor_id!r} has no candidates")
            ids = set()
            for k, (cand_id, scores) in enumerate(anchor.candidates):
                if cand_id == SELF_MARKER:
                    raise _at(anchor.where, f"anchor {anchor.anchor_id!r}: candidate "
                                            f"id {SELF_MARKER!r} is reserved")
                if cand_id in ids:
                    raise _at(anchor.where, f"duplicate candidate {cand_id!r} for "
                                            f"{anchor.anchor_id!r}")
                ids.add(cand_id)
                if len(scores) != m:
                    raise ValidationError(
                        f"candidate {cand_id!r}: inconsistent score count")
                # the anchor's own scores are checked once, with its first candidate
                for value in (*scores, *anchor.scores) if k == 0 else scores:
                    if not math.isfinite(value):
                        raise ValidationError(
                            f"anchor {anchor.anchor_id!r}: non-finite score")

    @classmethod
    def _checked(cls, anchors: list):
        """A set whose anchors the caller (the file reader) has already
        checked against every rule of ``__post_init__``."""
        cs = cls.__new__(cls)
        cs.anchors = anchors
        return cs

    @property
    def n_scores(self) -> int:
        return len(self.anchors[0].scores)


@dataclass
class Assignment:
    """Chosen candidate per anchor plus the balance objective achieved."""

    chosen: dict  # anchor_id -> candidate index
    objective: float
    seed: int
    restart_index: int
    restart_objectives: list = field(default_factory=list)


def _outcomes(cs: CandidateSet):
    """Comparison outcomes in half-credit units, and candidate counts.

    ``outcomes[i, c, m]`` is 2 when anchor i beats its candidate c on score
    m, 1 on a tie and 0 when the candidate wins. The array is N x C_max x M
    (int8); slots from ``counts[i]`` on are padding and are never chosen.
    """
    counts = np.array([len(a.candidates) for a in cs.anchors], dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    cand = np.array([scores for a in cs.anchors for _, scores in a.candidates],
                    dtype=np.float64)
    anchor = np.array([a.scores for a in cs.anchors], dtype=np.float64)[owner]
    outcomes = np.zeros((len(counts), int(counts.max()), cs.n_scores), dtype=np.int8)
    outcomes[owner, slot] = 2 * (anchor > cand) + (anchor == cand)
    return outcomes, counts


def _accepts(trial, n: int, num, m: int):
    """Exact test obj(n + 1 picks) <= obj(n picks) from their numerators
    ``trial`` and ``num`` (scalars or arrays), where the numerator of
    ``sums`` over n picks is ``sum(|sums - n|)`` = 2n obj; no picks
    score m/2."""
    return trial <= m if n == 0 else trial * n <= num * (n + 1)


def stratum_objectives(chosen_by_stratum: dict, cs: CandidateSet) -> dict:
    """The balance objective of each stratum's choices (anchor_id ->
    candidate index), from one outcome array; no choices score m/2."""
    outcomes, counts = _outcomes(cs)
    m = cs.n_scores
    by_id = {a.anchor_id: i for i, a in enumerate(cs.anchors)}
    objectives = {}
    for stratum, chosen in chosen_by_stratum.items():
        n = len(chosen)
        if n == 0:
            objectives[stratum] = 0.5 * m
            continue
        idx = np.array([by_id[anchor_id] for anchor_id in chosen], dtype=np.int64)
        cand = np.array(list(chosen.values()), dtype=np.int64)
        bad = np.flatnonzero((cand < 0) | (cand >= counts[idx]))
        if len(bad):
            raise ValidationError(f"anchor {cs.anchors[idx[bad[0]]].anchor_id!r}: "
                                  f"candidate index {cand[bad[0]]} out of range")
        sums = outcomes[idx, cand].sum(axis=0)
        objectives[stratum] = int(np.abs(sums - n).sum()) / (2.0 * n)
    return objectives


def _strata(cs: CandidateSet) -> dict:
    """Anchor indices of each stratum, in file order, strata sorted."""
    strata: dict = {}
    for idx, anchor in enumerate(cs.anchors):
        strata.setdefault(anchor.stratum, []).append(idx)
    return {s: strata[s] for s in sorted(strata)}


def sample_word_pairs(cs: CandidateSet, seed: int = 0,
                      restarts: int = 8) -> Assignment:
    """Choose one candidate per anchor, balancing every score to ~50%.

    One group per stratum, quota = its size (see the module docstring).
    """
    groups = [(indices, len(indices)) for indices in _strata(cs).values()]
    return _balance(cs, groups, True, seed, restarts)


def sample_sentence_pairs(pool: CandidateSet, k_target: int, seed: int = 0,
                          per_stratum: bool = False,
                          restarts: int = 8) -> Assignment:
    """Choose ``k_target`` pairs out of a scored pool, balancing to ~50%.

    Every anchor in ``pool`` carries exactly one candidate (the pair's
    other member). With ``per_stratum`` each stratum with a non-zero
    largest-remainder quota is a group, else the whole pool is one (see
    the module docstring).
    """
    for anchor in pool.anchors:
        if len(anchor.candidates) != 1:
            raise _at(anchor.where, f"anchor {anchor.anchor_id!r}: sentence pools "
                                    "carry exactly one candidate per anchor")
    n_total = len(pool.anchors)
    if not (1 <= k_target <= n_total):
        raise ValidationError(
            f"k_target must be in [1, {n_total}], got {k_target}")
    strata = _strata(pool)
    if per_stratum:
        quotas = _largest_remainder(
            {s: len(v) for s, v in strata.items()}, k_target)
        groups = [(strata[s], quotas[s]) for s in strata if quotas[s] > 0]
    else:
        groups = [([i for indices in strata.values() for i in indices], k_target)]
    return _balance(pool, groups, False, seed, restarts)


def _balance(cs: CandidateSet, groups: list, one_per_anchor: bool,
             seed: int, restarts: int) -> Assignment:
    """The shared search: ``quota`` (anchor, candidate) picks per group,
    one candidate per anchor if ``one_per_anchor``, else ``quota`` anchors
    with their only candidate. Groups run in order; within a group all
    restarts run in lockstep, restart r along axis 0 of every array."""
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    outcomes, counts = _outcomes(cs)
    rngs = [np.random.default_rng(seed ^ r) for r in range(restarts)]
    anchors, cands = [], []
    sums = np.zeros((restarts, cs.n_scores), dtype=np.int64)
    for indices, quota in groups:
        exact = _exact_group(indices, quota, one_per_anchor, outcomes, counts)
        if exact is not None:
            picks = [np.tile(part, (restarts, 1)) for part in exact]
        elif one_per_anchor:
            picks = _walk_anchors(rngs, indices, outcomes, counts)
        else:
            picks = _scan_pairs(rngs, indices, quota, outcomes[:, 0])
        anchors.append(picks[0])
        cands.append(picks[1])
        sums += picks[2]
    total_n = sum(quota for _, quota in groups)
    nums = np.abs(sums - total_n).sum(axis=1).tolist()
    best = nums.index(min(nums))
    chosen = np.concatenate(anchors, axis=1)[best].tolist()
    cand = np.concatenate(cands, axis=1)[best].tolist()
    return Assignment(
        chosen={cs.anchors[idx].anchor_id: ci for idx, ci in zip(chosen, cand)},
        objective=nums[best] / (2.0 * total_n),
        seed=seed,
        restart_index=best,
        restart_objectives=[num / (2.0 * total_n) for num in nums],
    )


def _exact_group(indices, quota: int, one_per_anchor: bool, outcomes, counts):
    """The group's first optimal picks in enumeration order, as anchor and
    candidate index arrays, and their sums; None when its choice space is
    larger than EXACT_SEARCH_LIMIT. Choices are scored a block at a time,
    as indices into the flattened outcome array."""
    c_max, m = outcomes.shape[1:]
    if one_per_anchor:
        sizes = counts[indices].tolist()
        space = math.prod(sizes)
        choices = itertools.product(
            *[range(i * c_max, i * c_max + c) for i, c in zip(indices, sizes)])
    else:
        space = math.comb(len(indices), quota)
        choices = itertools.combinations([i * c_max for i in indices], quota)
    if space > EXACT_SEARCH_LIMIT:
        return None
    flat = outcomes.reshape(-1, m)
    best = None
    # blocks of about 2^16 indices bound the memory a large quota takes
    while block := list(itertools.islice(choices, max(1, (1 << 16) // quota))):
        sums = flat[np.array(block)].sum(axis=1)
        nums = np.abs(sums - quota).sum(axis=1)
        k = int(nums.argmin())
        if best is None or nums[k] < best[0]:
            best = (nums[k], block[k], sums[k])
    return (*np.divmod(np.array(best[1]), c_max), best[2])


def _walk_anchors(rngs, indices, outcomes, counts):
    """Word move: one candidate per anchor, walking both permutations.

    Step n takes every restart's n-th anchor in its own permutation and
    scores all of that anchor's candidates in one R x C_max array, then
    tests them in the restart's candidate permutation; positions past the
    anchor's own count never pass.
    """
    n_restarts = len(rngs)
    size = len(indices)
    c_max, m = outcomes.shape[1:]
    order = np.asarray(indices)[np.array([rng.permutation(size) for rng in rngs])]
    rows = outcomes[order]  # R x size x C_max x M
    sizes = counts[order]
    valid = np.arange(c_max) < sizes[..., None]
    sizes = sizes.T.tolist()
    lanes = np.arange(n_restarts)
    perm = np.zeros((n_restarts, c_max), dtype=np.int64)
    picks = np.empty((n_restarts, size), dtype=np.int64)
    sums = np.zeros((n_restarts, m), dtype=np.int64)
    num = np.zeros(n_restarts, dtype=np.int64)
    for n in range(size):
        for r, rng in enumerate(rngs):
            perm[r, :sizes[n][r]] = rng.permutation(sizes[n][r])
        trial = np.abs(rows[:, n] + (sums - (n + 1))[:, None]).sum(axis=2)
        hits = _accepts(trial, n, num[:, None], m)[lanes[:, None], perm] & valid[:, n]
        first = hits.argmax(axis=1)
        ci = perm[lanes, first]
        for r in np.flatnonzero(~hits[lanes, first]).tolist():
            ci[r] = rngs[r].integers(sizes[n][r])
        picks[:, n] = ci
        num = trial[lanes, ci]
        sums += rows[lanes, n, ci]
    return order, picks, sums


def _scan_pairs(rngs, indices, quota: int, rows):
    """Sentence move: ``quota`` steps, each scanning all unchosen pairs.

    Every restart has the same number L of unchosen pairs at a step, so
    the step's permutations stack into R x L. A trial depends only on the
    pair's outcome row, so each of the group's distinct rows is scored
    once per restart and the scores are gathered in permutation order.
    """
    n_restarts = len(rngs)
    distinct, code = np.unique(rows[indices], axis=0, return_inverse=True)
    m = rows.shape[1]
    lanes = np.arange(n_restarts)
    unchosen = np.tile(np.asarray(indices, dtype=np.int64), (n_restarts, 1))
    codes = np.tile(code.reshape(-1), (n_restarts, 1))
    picks = np.empty((n_restarts, quota), dtype=np.int64)
    sums = np.zeros((n_restarts, m), dtype=np.int64)
    num = np.zeros(n_restarts, dtype=np.int64)
    for n in range(quota):
        left = unchosen.shape[1]
        perm = np.array([rng.permutation(left) for rng in rngs])
        trial = np.abs(distinct + (sums - (n + 1))[:, None]).sum(axis=2)
        hits = _accepts(trial, n, num[:, None], m)[lanes[:, None],
                                                     codes[lanes[:, None], perm]]
        first = hits.argmax(axis=1)
        pos = perm[lanes, first]
        for r in np.flatnonzero(~hits[lanes, first]).tolist():
            pos[r] = rngs[r].integers(left)
        k = codes[lanes, pos]
        picks[:, n] = unchosen[lanes, pos]
        num = trial[lanes, k]
        sums += distinct[k]
        keep = np.ones(unchosen.shape, dtype=bool)
        keep[lanes, pos] = False
        unchosen = unchosen[keep].reshape(n_restarts, left - 1)
        codes = codes[keep].reshape(n_restarts, left - 1)
    return picks, np.zeros_like(picks), sums


def _largest_remainder(sizes: dict, k_target: int) -> dict:
    total = sum(sizes.values())
    quotas = {}
    remainders = []
    assigned = 0
    for key in sorted(sizes):
        exact = k_target * sizes[key] / total
        quotas[key] = int(exact)
        assigned += quotas[key]
        remainders.append((-(exact - quotas[key]), key))
    remainders.sort()
    for _, key in remainders[:k_target - assigned]:
        quotas[key] += 1
    return quotas


# ---------------------------------------------------------------------------
# candidate-set and assignment files
# ---------------------------------------------------------------------------

SELF_MARKER = "@self"


def read_candidate_set(path) -> CandidateSet:
    """Read a candidate TSV: anchor_id, stratum, candidate_id, s_1..s_M.

    Anchor rows carry candidate_id '@self'; all other rows are that
    anchor's candidates, kept in file order. Every rule of
    ``CandidateSet`` is checked here, once, naming the line.
    """
    rows = _rows(path, header=True)
    header = next(rows)[1] or []
    if header[:3] != ["anchor_id", "stratum", "candidate_id"] or len(header) < 4:
        raise FormatError(
            f"{path}: header must be anchor_id, stratum, candidate_id, "
            "then one or more score columns")
    # anchor_id -> [first line, stratum, @self scores, {candidate_id: scores}]
    anchors: dict = {}
    for lineno, cols in rows:
        anchor_id, stratum, cand_id = cols[:3]
        try:
            scores = tuple(map(float, cols[3:]))
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: non-numeric score") from None
        if not all(map(math.isfinite, scores)):
            raise ValidationError(f"{path}: line {lineno}: non-finite score")
        entry = anchors.get(anchor_id)
        if entry is None:
            entry = anchors[anchor_id] = [lineno, stratum, None, {}]
        if cand_id == SELF_MARKER:
            if entry[2] is not None:
                raise ValidationError(
                    f"{path}: line {lineno}: duplicate @self row for "
                    f"{anchor_id!r}")
            entry[2] = scores
        elif cand_id in entry[3]:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate candidate "
                f"{cand_id!r} for {anchor_id!r}")
        else:
            entry[3][cand_id] = scores
    if not anchors:
        raise ValidationError(f"{path}: line 2: candidate set is empty")
    entries = []
    for anchor_id, (line, stratum, own, cands) in anchors.items():
        if own is None or not cands:
            what = "@self row" if own is None else "candidates"
            raise ValidationError(f"{path}: line {line}: anchor "
                                  f"{anchor_id!r} has no {what}")
        entries.append(AnchorEntry(anchor_id, stratum, own, tuple(cands.items()),
                                   f"{path}: line {line}"))
    return CandidateSet._checked(entries)


def write_candidate_set(cs: CandidateSet, path) -> None:
    m = cs.n_scores
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["anchor_id", "stratum", "candidate_id"]
                           + [f"s_{i + 1}" for i in range(m)]) + "\n")
        for anchor in cs.anchors:
            fh.write("\t".join([anchor.anchor_id, anchor.stratum, SELF_MARKER]
                               + [repr(float(s)) for s in anchor.scores]) + "\n")
            for cand_id, scores in anchor.candidates:
                fh.write("\t".join([anchor.anchor_id, anchor.stratum, cand_id]
                                   + [repr(float(s)) for s in scores]) + "\n")


def write_assignment(assignment: Assignment, cs: CandidateSet, path) -> None:
    """Write chosen pairs as a TSV, one row per anchor, sorted by anchor id."""
    by_id = {a.anchor_id: a for a in cs.anchors}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("anchor_id\tcandidate_id\tstratum\n")
        for anchor_id in sorted(assignment.chosen):
            anchor = by_id[anchor_id]
            cand_id = anchor.candidates[assignment.chosen[anchor_id]][0]
            fh.write(f"{anchor_id}\t{cand_id}\t{anchor.stratum}\n")
