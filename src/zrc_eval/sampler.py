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
  step's permutation of the unchosen pairs, found by scoring them all in
  one array, else a seeded-random one.

Restart r draws from ``default_rng(seed ^ r)`` (the moves make the same
``permutation``/``integers`` calls as a one-by-one walk) and the restart
with the lowest objective wins, the earliest on ties. Objectives are
compared in exact integer arithmetic (half-credit units), so no decision
depends on floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .io_formats import _rows

# groups with at most this many choices (see above) are solved exactly
EXACT_SEARCH_LIMIT = 4096


@dataclass(frozen=True)
class AnchorEntry:
    """One anchor with its M scores and its candidate counterparts."""

    anchor_id: str
    stratum: str
    scores: tuple
    candidates: tuple  # ((candidate_id, scores), ...)


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
            for k, (cand_id, scores) in enumerate(anchor.candidates):
                if len(scores) != m:
                    raise ValidationError(
                        f"candidate {cand_id!r}: inconsistent score count")
                # the anchor's own scores are checked once, with its first candidate
                for value in (*scores, *anchor.scores) if k == 0 else scores:
                    if not math.isfinite(value):
                        raise ValidationError(
                            f"anchor {anchor.anchor_id!r}: non-finite score")

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


def _outcomes(cs: CandidateSet) -> list:
    """Per anchor, per candidate: comparison outcomes in half-credit units.

    2 = anchor wins, 1 = tie, 0 = candidate wins, one entry per score m.
    """
    table = []
    for anchor in cs.anchors:
        rows = []
        for _, cand_scores in anchor.candidates:
            rows.append(tuple(
                2 if sa > sc else 1 if sa == sc else 0
                for sa, sc in zip(anchor.scores, cand_scores)))
        table.append(rows)
    return table


def _numerator(sums, n: int) -> int:
    """Integer numerator of the objective: obj = numerator / (2n)."""
    return sum(abs(s - n) for s in sums)


def _accepts(trial, n: int, num: int, m: int):
    """Exact test obj(n + 1 picks) <= obj(n picks) from their numerators,
    ``trial`` (a scalar or an array) and ``num``; no picks score m/2."""
    return trial <= m if n == 0 else trial * n <= num * (n + 1)


def _objective_value(sums, n: int, m: int) -> float:
    return 0.5 * m if n == 0 else _numerator(sums, n) / (2.0 * n)


def balance_objective(assignment, cs: CandidateSet) -> float:
    """Eq-style balance objective of a (possibly partial) assignment."""
    chosen = assignment.chosen if isinstance(assignment, Assignment) else assignment
    return _stratum_objectives({None: chosen}, cs)[None]


def _stratum_objectives(chosen_by_stratum: dict, cs: CandidateSet) -> dict:
    """``balance_objective`` of each stratum's choices, from one outcome table."""
    outcomes = _outcomes(cs)
    m = cs.n_scores
    by_id = {a.anchor_id: i for i, a in enumerate(cs.anchors)}
    objectives = {}
    for stratum, chosen in chosen_by_stratum.items():
        sums = [0] * m
        for anchor_id, cand_idx in chosen.items():
            row = outcomes[by_id[anchor_id]][cand_idx]
            sums = [s + o for s, o in zip(sums, row)]
        objectives[stratum] = _objective_value(sums, len(chosen), m)
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
            raise ValidationError(
                f"anchor {anchor.anchor_id!r}: sentence pools carry exactly "
                "one candidate per anchor")
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
    with their only candidate."""
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    outcomes = _outcomes(cs)
    m = cs.n_scores
    exact = [_exact_group(indices, quota, one_per_anchor, outcomes, m)
             for indices, quota in groups]
    if not one_per_anchor:
        rows = np.array([row[0] for row in outcomes], dtype=np.int64)
    total_n = sum(quota for _, quota in groups)

    best = None
    restart_objs = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        chosen: dict = {}
        total_sums = [0] * m
        for g, (indices, quota) in enumerate(groups):
            if exact[g] is not None:
                picks, sums = exact[g]
            elif one_per_anchor:
                picks, sums = _walk_anchors(rng, indices, outcomes, m)
            else:
                picks, sums = _scan_pairs(rng, indices, quota, rows, m)
            for idx, ci in picks:
                chosen[cs.anchors[idx].anchor_id] = ci
            total_sums = [t + s for t, s in zip(total_sums, sums)]
        num = _numerator(total_sums, total_n)
        restart_objs.append(num / (2.0 * total_n))
        if best is None or num < best[0]:
            best = (num, r, chosen)

    return Assignment(
        chosen=best[2],
        objective=best[0] / (2.0 * total_n),
        seed=seed,
        restart_index=best[1],
        restart_objectives=restart_objs,
    )


def _exact_group(indices, quota: int, one_per_anchor: bool, outcomes, m: int):
    """The group's first optimal picks in enumeration order, and their sums;
    None when its choice space is larger than EXACT_SEARCH_LIMIT."""
    if one_per_anchor:
        space = math.prod(len(outcomes[i]) for i in indices)
    else:
        space = math.comb(len(indices), quota)
    if space > EXACT_SEARCH_LIMIT:
        return None
    if one_per_anchor:
        choices = itertools.product(
            *[[(i, ci) for ci in range(len(outcomes[i]))] for i in indices])
    else:
        choices = itertools.combinations([(i, 0) for i in indices], quota)
    best = None
    for picks in choices:
        sums = [0] * m
        for idx, ci in picks:
            sums = [s + o for s, o in zip(sums, outcomes[idx][ci])]
        num = _numerator(sums, quota)
        if best is None or num < best[0]:
            best = (num, picks, sums)
    return best[1], best[2]


def _walk_anchors(rng, indices, outcomes, m: int):
    """Word move: one candidate per anchor, walking both permutations."""
    picks = []
    sums = [0] * m
    num = 0
    for n, pos in enumerate(rng.permutation(len(indices))):
        idx = indices[int(pos)]
        rows = outcomes[idx]
        for ci in rng.permutation(len(rows)):
            trial = [s + o for s, o in zip(sums, rows[ci])]
            trial_num = _numerator(trial, n + 1)
            if _accepts(trial_num, n, num, m):
                break
        else:
            ci = rng.integers(len(rows))
            trial = [s + o for s, o in zip(sums, rows[ci])]
            trial_num = _numerator(trial, n + 1)
        picks.append((idx, int(ci)))
        sums, num = trial, trial_num
    return picks, sums


def _scan_pairs(rng, indices, quota: int, rows, m: int):
    """Sentence move: ``quota`` steps, each scanning all unchosen pairs."""
    picks = []
    unchosen = np.asarray(indices, dtype=np.int64)
    sums = np.zeros(m, dtype=np.int64)
    num = 0
    for n in range(quota):
        order = rng.permutation(len(unchosen))
        trial = np.abs(rows[unchosen] + (sums - (n + 1))).sum(axis=1)
        hits = _accepts(trial, n, num, m)[order]
        first = int(np.argmax(hits))
        if hits[first]:
            pos = int(order[first])
        else:
            pos = int(rng.integers(len(unchosen)))
        accepted = int(unchosen[pos])
        num = int(trial[pos])
        unchosen = np.concatenate((unchosen[:pos], unchosen[pos + 1:]))
        sums += rows[accepted]
        picks.append((accepted, 0))
    return picks, sums.tolist()


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
    anchor's candidates, kept in file order.
    """
    rows = _rows(path, header=True)
    header = next(rows)[1] or []
    if header[:3] != ["anchor_id", "stratum", "candidate_id"] or len(header) < 4:
        raise FormatError(
            f"{path}: header must be anchor_id, stratum, candidate_id, "
            "then one or more score columns")
    anchors: dict = {}
    order = []
    for lineno, cols in rows:
        anchor_id, stratum, cand_id = cols[:3]
        try:
            scores = tuple(float(c) for c in cols[3:])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: non-numeric score") from None
        if not all(map(math.isfinite, scores)):
            raise ValidationError(f"{path}: line {lineno}: non-finite score")
        if anchor_id not in anchors:
            anchors[anchor_id] = {"stratum": stratum, "self": None,
                                  "cands": [], "line": lineno}
            order.append(anchor_id)
        entry = anchors[anchor_id]
        if cand_id == SELF_MARKER:
            if entry["self"] is not None:
                raise ValidationError(
                    f"{path}: line {lineno}: duplicate @self row for "
                    f"{anchor_id!r}")
            entry["self"] = scores
        else:
            if any(cand_id == cid for cid, _ in entry["cands"]):
                raise ValidationError(
                    f"{path}: line {lineno}: duplicate candidate "
                    f"{cand_id!r} for {anchor_id!r}")
            entry["cands"].append((cand_id, scores))
    if not order:
        raise ValidationError(f"{path}: line 2: candidate set is empty")
    entries = []
    for anchor_id in order:
        entry = anchors[anchor_id]
        if entry["self"] is None or not entry["cands"]:
            what = "@self row" if entry["self"] is None else "candidates"
            raise ValidationError(f"{path}: line {entry['line']}: anchor "
                                  f"{anchor_id!r} has no {what}")
        entries.append(AnchorEntry(
            anchor_id, entry["stratum"], entry["self"], tuple(entry["cands"])))
    return CandidateSet(entries)


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


def read_assignment(path) -> list:
    rows = _rows(path, width=3, header=True)
    if next(rows)[1] != ["anchor_id", "candidate_id", "stratum"]:
        raise FormatError(f"{path}: unexpected assignment header")
    return [tuple(cols) for _, cols in rows]
