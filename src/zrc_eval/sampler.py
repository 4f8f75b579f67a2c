"""Stochastic balancing sampler for paired benchmark construction.

Given anchors (words, or sentence pairs) with M score functions each, the
sampler picks one candidate counterpart per anchor (word mode) or a
subset of pairs (sentence mode) so that every score function classifies
the resulting pairs at as close to 50% accuracy as possible:

    objective = sum over m of | accuracy_of_score_m - 0.5 |

where accuracy counts anchor-beats-candidate comparisons, ties worth
half. Strata whose choice space is small enough to enumerate are solved
exactly; everywhere else greedy passes run in seeded random order,
accepting a choice when it does not increase the running objective, with
several independent restarts keeping the best final assignment.
Accuracies are compared in exact integer arithmetic (half-credit units),
so acceptance decisions never depend on floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

# strata with at most this many complete assignments are solved exactly
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
            for cand_id, scores in anchor.candidates:
                if len(scores) != m:
                    raise ValidationError(
                        f"candidate {cand_id!r}: inconsistent score count")
                for value in tuple(scores) + tuple(anchor.scores):
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


def _not_worse(sums_new, n_new: int, sums_old, n_old: int, m: int) -> bool:
    """Exact test for obj(new) <= obj(old); an empty list scores m/2."""
    if n_new == 0 and n_old == 0:
        return True
    if n_old == 0:
        return 2 * _numerator(sums_new, n_new) <= m * 2 * n_new
    if n_new == 0:
        return m * 2 * n_old <= 2 * _numerator(sums_old, n_old)
    return _numerator(sums_new, n_new) * n_old <= _numerator(sums_old, n_old) * n_new


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
        n = 0
        for anchor_id, cand_idx in chosen.items():
            row = outcomes[by_id[anchor_id]][cand_idx]
            sums = [s + o for s, o in zip(sums, row)]
            n += 1
        objectives[stratum] = _objective_value(sums, n, m)
    return objectives


def _exact_word_stratum(indices, outcomes, m: int):
    """Globally optimal per-stratum choices by enumeration.

    Returns (choice per index, outcome sums). Deterministic: the first
    minimum in lexicographic choice order wins.
    """
    n = len(indices)
    best = None
    for combo in itertools.product(*[range(len(outcomes[i])) for i in indices]):
        sums = [0] * m
        for idx, ci in zip(indices, combo):
            sums = [s + o for s, o in zip(sums, outcomes[idx][ci])]
        num = _numerator(sums, n)
        if best is None or num < best[0]:
            best = (num, combo, sums)
    return best[1], best[2]


def sample_word_pairs(cs: CandidateSet, seed: int = 0,
                      restarts: int = 8) -> Assignment:
    """Choose one candidate per anchor, balancing every score to ~50%.

    Each stratum is balanced independently. Strata with at most
    EXACT_SEARCH_LIMIT complete assignments are solved by enumeration
    (the stochastic search cannot beat that and occasionally misses exact
    optima on tie-heavy toys); larger strata run a greedy pass visiting
    anchors in seeded random order and keeping the first candidate that
    does not worsen the stratum's running objective, or a seeded-random
    one when every candidate worsens it. The best of ``restarts``
    independent passes wins; restart r uses the RNG seed ``seed ^ r``.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    outcomes = _outcomes(cs)
    m = cs.n_scores
    strata: dict = {}
    for idx, anchor in enumerate(cs.anchors):
        strata.setdefault(anchor.stratum, []).append(idx)

    exact: dict = {}
    for stratum in sorted(strata):
        indices = strata[stratum]
        space = 1
        for idx in indices:
            space *= len(outcomes[idx])
            if space > EXACT_SEARCH_LIMIT:
                break
        if space <= EXACT_SEARCH_LIMIT:
            exact[stratum] = _exact_word_stratum(indices, outcomes, m)

    best_chosen = None
    best_key = None
    restart_objs = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        chosen: dict = {}
        total_sums = [0] * m
        for stratum in sorted(strata):
            indices = strata[stratum]
            if stratum in exact:
                combo, sums = exact[stratum]
                for idx, ci in zip(indices, combo):
                    chosen[cs.anchors[idx].anchor_id] = ci
                total_sums = [t + s for t, s in zip(total_sums, sums)]
                continue
            sums = [0] * m
            n = 0
            for pos in rng.permutation(len(indices)):
                idx = indices[int(pos)]
                rows = outcomes[idx]
                accepted = None
                for ci in rng.permutation(len(rows)):
                    row = rows[int(ci)]
                    trial = [s + o for s, o in zip(sums, row)]
                    if _not_worse(trial, n + 1, sums, n, m):
                        accepted = int(ci)
                        break
                if accepted is None:
                    accepted = int(rng.integers(len(rows)))
                row = rows[accepted]
                sums = [s + o for s, o in zip(sums, row)]
                n += 1
                chosen[cs.anchors[idx].anchor_id] = accepted
                total_sums = [t + o for t, o in zip(total_sums, row)]
        num = _numerator(total_sums, len(cs.anchors))
        restart_objs.append(num / (2.0 * len(cs.anchors)))
        if best_key is None or num < best_key[0]:
            best_key = (num, r)
            best_chosen = chosen

    return Assignment(
        chosen=best_chosen,
        objective=best_key[0] / (2.0 * len(cs.anchors)),
        seed=seed,
        restart_index=best_key[1],
        restart_objectives=restart_objs,
    )


def sample_sentence_pairs(pool: CandidateSet, k_target: int, seed: int = 0,
                          per_stratum: bool = False,
                          restarts: int = 8) -> Assignment:
    """Choose ``k_target`` pairs out of a scored pool, balancing to ~50%.

    Every anchor in ``pool`` carries exactly one candidate (the pair's
    other member). Pools with at most EXACT_SEARCH_LIMIT subsets of the
    target size are solved by enumeration; otherwise additions that do
    not worsen the running objective are accepted, and after a full
    fruitless pass over the unchosen pairs a seeded-random one is added.
    With ``per_stratum``, the target is split across strata
    proportionally (largest remainder) and each stratum is sampled
    independently.

    Each greedy step computes the trial numerators of all unchosen pairs
    in one array and takes the first acceptable one in the step's
    permutation order. That is the pair a one-by-one walk of the
    permutation would stop at, and the step draws the same ``permutation``
    and ``integers`` calls, so the RNG stream and the chosen sets are those
    of the walk.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    for anchor in pool.anchors:
        if len(anchor.candidates) != 1:
            raise ValidationError(
                f"anchor {anchor.anchor_id!r}: sentence pools carry exactly "
                "one candidate per anchor")
    n_total = len(pool.anchors)
    if not (1 <= k_target <= n_total):
        raise ValidationError(
            f"k_target must be in [1, {n_total}], got {k_target}")
    outcomes = _outcomes(pool)
    m = pool.n_scores
    rows = np.array([row[0] for row in outcomes], dtype=np.int64)

    strata: dict = {}
    for idx, anchor in enumerate(pool.anchors):
        strata.setdefault(anchor.stratum, []).append(idx)
    if per_stratum:
        quotas = _largest_remainder(
            {s: len(v) for s, v in strata.items()}, k_target)
        groups = [(s, strata[s], quotas[s]) for s in sorted(strata) if quotas[s] > 0]
    else:
        all_indices = [i for s in sorted(strata) for i in strata[s]]
        groups = [("", all_indices, k_target)]

    exact: dict = {}
    for name, indices, quota in groups:
        if math.comb(len(indices), quota) <= EXACT_SEARCH_LIMIT:
            best = None
            for subset in itertools.combinations(indices, quota):
                sums = [0] * m
                for idx in subset:
                    sums = [s + o for s, o in zip(sums, outcomes[idx][0])]
                num = _numerator(sums, quota)
                if best is None or num < best[0]:
                    best = (num, subset, sums)
            exact[name] = (best[1], best[2])

    best_chosen = None
    best_key = None
    restart_objs = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        chosen: dict = {}
        total_sums = [0] * m
        total_n = 0
        for name, indices, quota in groups:
            if name in exact:
                subset, sums = exact[name]
                for idx in subset:
                    chosen[pool.anchors[idx].anchor_id] = 0
                total_sums = [t + s for t, s in zip(total_sums, sums)]
                total_n += quota
                continue
            unchosen = np.asarray(indices, dtype=np.int64)
            sums = np.zeros(m, dtype=np.int64)
            n = 0
            num = 0  # _numerator(sums, n)
            while n < quota:
                # every trial numerator at once; the first acceptable one in
                # permutation order is where the walk over it would stop
                order = rng.permutation(len(unchosen))
                trial = np.abs(rows[unchosen] + (sums - (n + 1))).sum(axis=1)
                if n == 0:  # against the empty list, which scores m/2
                    ok = trial <= m
                else:
                    ok = trial * n <= num * (n + 1)
                hits = ok[order]
                first = int(np.argmax(hits))
                if hits[first]:
                    pos = int(order[first])
                else:
                    pos = int(rng.integers(len(unchosen)))
                accepted = int(unchosen[pos])
                num = int(trial[pos])
                unchosen = np.concatenate((unchosen[:pos], unchosen[pos + 1:]))
                row = outcomes[accepted][0]
                sums += row
                n += 1
                chosen[pool.anchors[accepted].anchor_id] = 0
                total_sums = [t + o for t, o in zip(total_sums, row)]
                total_n += 1
        num = _numerator(total_sums, total_n)
        restart_objs.append(num / (2.0 * total_n))
        if best_key is None or num < best_key[0]:
            best_key = (num, r)
            best_chosen = chosen

    return Assignment(
        chosen=best_chosen,
        objective=best_key[0] / (2.0 * total_n),
        seed=seed,
        restart_index=best_key[1],
        restart_objectives=restart_objs,
    )


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
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:3] != ["anchor_id", "stratum", "candidate_id"] or len(header) < 4:
            raise FormatError(
                f"{path}: header must be anchor_id, stratum, candidate_id, "
                "then one or more score columns")
        m = len(header) - 3
        anchors: dict = {}
        order = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != len(header):
                raise FormatError(
                    f"{path}: line {lineno}: expected {len(header)} columns, "
                    f"got {len(cols)}")
            anchor_id, stratum, cand_id = cols[:3]
            try:
                scores = tuple(float(c) for c in cols[3:])
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: non-numeric score") from None
            if anchor_id not in anchors:
                anchors[anchor_id] = {"stratum": stratum, "self": None, "cands": []}
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
    entries = []
    for anchor_id in order:
        entry = anchors[anchor_id]
        if entry["self"] is None:
            raise ValidationError(f"{path}: anchor {anchor_id!r} has no @self row")
        entries.append(AnchorEntry(
            anchor_id, entry["stratum"], entry["self"], tuple(entry["cands"])))
    cs = CandidateSet(entries)
    if cs.n_scores != m:
        raise FormatError(f"{path}: score column count mismatch")
    return cs


def write_candidate_set(cs: CandidateSet, path) -> None:
    m = cs.n_scores
    with open(path, "w") as fh:
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
    with open(path, "w") as fh:
        fh.write("anchor_id\tcandidate_id\tstratum\n")
        for anchor_id in sorted(assignment.chosen):
            anchor = by_id[anchor_id]
            cand_id = anchor.candidates[assignment.chosen[anchor_id]][0]
            fh.write(f"{anchor_id}\t{cand_id}\t{anchor.stratum}\n")


def read_assignment(path) -> list:
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["anchor_id", "candidate_id", "stratum"]:
            raise FormatError(f"{path}: unexpected assignment header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise FormatError(
                    f"{path}: line {lineno}: expected 3 columns, got {len(cols)}")
            rows.append(tuple(cols))
    return rows
