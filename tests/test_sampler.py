"""Balance objective and the greedy samplers vs exhaustive enumeration."""

import itertools
import math
import re

import numpy as np
import pytest

from conftest import (balance_objective, outcome_rows, sentence_subset_minimum,
                      word_assignment_minimum)
from zrc_eval import sampler
from zrc_eval.errors import ValidationError
from zrc_eval.sampler import AnchorEntry, CandidateSet


def anchor(aid, a_scores, cand_scores, stratum="s"):
    cands = tuple((f"{aid}c{k}", tuple(sc)) for k, sc in enumerate(cand_scores))
    return AnchorEntry(aid, stratum, tuple(a_scores), cands)


def fixed_set(outcome_rows):
    """Build a 1-score CandidateSet with prescribed win/tie/loss candidates.

    outcome_rows: per anchor, a list of outcomes from ('win','tie','loss')
    describing each candidate relative to the anchor.
    """
    value = {"win": -1.0, "tie": 0.0, "loss": 1.0}
    anchors = []
    for i, row in enumerate(outcome_rows):
        anchors.append(anchor(f"a{i}", [0.0], [[value[o]] for o in row]))
    return CandidateSet(anchors)


class TestBalanceObjective:
    def test_half_wins_is_zero(self):
        cs = fixed_set([["win"], ["loss"], ["win"], ["loss"]])
        chosen = {f"a{i}": 0 for i in range(4)}
        assert balance_objective(chosen, cs) == 0.0

    def test_all_wins_is_half(self):
        cs = fixed_set([["win"]] * 6)
        chosen = {f"a{i}": 0 for i in range(6)}
        assert balance_objective(chosen, cs) == 0.5

    def test_two_scores_direct_evaluation(self):
        # accuracies (0.75, 0.25) -> |0.25| + |-0.25| = 0.5
        anchors = [
            anchor("a0", [1.0, 0.0], [[0.0, 1.0]]),  # win m1, loss m2
            anchor("a1", [1.0, 0.0], [[0.0, 1.0]]),
            anchor("a2", [1.0, 0.0], [[0.0, 1.0]]),
            anchor("a3", [0.0, 1.0], [[1.0, 0.0]]),  # loss m1, win m2
        ]
        cs = CandidateSet(anchors)
        chosen = {f"a{i}": 0 for i in range(4)}
        assert balance_objective(chosen, cs) == 0.5

    def test_empty_assignment_is_m_times_half(self):
        anchors = [anchor("a0", [1.0, 2.0, 3.0], [[0.0, 0.0, 0.0]])]
        cs = CandidateSet(anchors)
        assert balance_objective({}, cs) == 1.5

    def test_tie_counts_half(self):
        cs = fixed_set([["tie"], ["tie"]])
        chosen = {"a0": 0, "a1": 0}
        assert balance_objective(chosen, cs) == 0.0


class TestWordSampler:
    def test_forced_assignment_with_single_candidates(self):
        cs = fixed_set([["win"], ["win"], ["loss"]])
        got = sampler.sample_word_pairs(cs, seed=0, restarts=4)
        assert got.chosen == {"a0": 0, "a1": 0, "a2": 0}
        assert got.objective == pytest.approx(abs(2 / 3 - 0.5) + 0.0, abs=1e-12)

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(0)
        anchors = [anchor(f"a{i}", rng.normal(size=2),
                          rng.normal(size=(3, 2)), stratum=f"st{i % 2}")
                   for i in range(30)]
        cs = CandidateSet(anchors)
        g1 = sampler.sample_word_pairs(cs, seed=123, restarts=6)
        g2 = sampler.sample_word_pairs(cs, seed=123, restarts=6)
        assert g1.chosen == g2.chosen
        assert g1.objective == g2.objective
        assert g1.restart_objectives == g2.restart_objectives

    def test_returned_objective_is_best_of_restarts(self):
        rng = np.random.default_rng(1)
        anchors = [anchor(f"a{i}", rng.normal(size=1), rng.normal(size=(2, 1)))
                   for i in range(20)]
        cs = CandidateSet(anchors)
        got = sampler.sample_word_pairs(cs, seed=7, restarts=10)
        assert len(got.restart_objectives) == 10
        assert got.objective == min(got.restart_objectives)
        assert got.restart_objectives[got.restart_index] == got.objective
        assert balance_objective(got.chosen, cs) == pytest.approx(
            got.objective, abs=1e-12)

    def test_toy_instances_reach_exhaustive_minimum(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n = int(rng.integers(1, 5))
            anchors = []
            for i in range(n):
                k = int(rng.integers(1, 3))
                # integer scores make ties likely
                anchors.append(anchor(f"a{i}", [float(rng.integers(0, 3))],
                                      [[float(rng.integers(0, 3))]
                                       for _ in range(k)]))
            cs = CandidateSet(anchors)
            got = sampler.sample_word_pairs(cs, seed=trial, restarts=16)
            assert got.objective == pytest.approx(
                word_assignment_minimum(cs), abs=1e-12)

    def test_monotone_transform_of_one_score_dim(self):
        rng = np.random.default_rng(3)
        anchors = [anchor(f"a{i}", rng.normal(size=2), rng.normal(size=(3, 2)))
                   for i in range(25)]
        cs = CandidateSet(anchors)
        base = sampler.sample_word_pairs(cs, seed=5, restarts=4)

        def warp(v):
            return float(np.expm1(2.0 * v) + 1.0)

        warped = CandidateSet([
            AnchorEntry(a.anchor_id, a.stratum,
                        (warp(a.scores[0]), a.scores[1]),
                        tuple((cid, (warp(s[0]), s[1]))
                              for cid, s in a.candidates))
            for a in cs.anchors])
        got = sampler.sample_word_pairs(warped, seed=5, restarts=4)
        assert got.chosen == base.chosen
        assert got.objective == base.objective

    def test_stratified_balance_on_large_synthetic(self):
        rng = np.random.default_rng(4)
        anchors = []
        for i in range(1500):
            stratum = f"st{i % 3}"
            anchors.append(anchor(f"a{i:04d}", rng.normal(size=1),
                                  rng.normal(size=(4, 1)), stratum=stratum))
        cs = CandidateSet(anchors)
        got = sampler.sample_word_pairs(cs, seed=11, restarts=4)
        outcomes = outcome_rows(cs)
        by_id = {a.anchor_id: i for i, a in enumerate(cs.anchors)}
        for stratum in ("st0", "st1", "st2"):
            total, n = 0, 0
            for a in cs.anchors:
                if a.stratum != stratum:
                    continue
                total += outcomes[by_id[a.anchor_id]][got.chosen[a.anchor_id]][0]
                n += 1
            assert n >= 500
            accuracy = total / (2.0 * n)
            assert 0.45 <= accuracy <= 0.55


class TestSentenceSampler:
    def _pool(self, rng, n, m=1, strata=1):
        anchors = []
        for i in range(n):
            anchors.append(anchor(f"p{i:03d}", rng.normal(size=m),
                                  [rng.normal(size=m)], stratum=f"st{i % strata}"))
        return CandidateSet(anchors)

    def test_whole_pool_when_target_is_n(self):
        rng = np.random.default_rng(5)
        pool = self._pool(rng, 12)
        got = sampler.sample_sentence_pairs(pool, 12, seed=0, restarts=2)
        assert set(got.chosen) == {a.anchor_id for a in pool.anchors}
        assert got.objective == pytest.approx(
            balance_objective(got.chosen, pool), abs=1e-12)

    def test_subset_reaches_exhaustive_minimum(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            pool = self._pool(np.random.default_rng(trial), 8)
            got = sampler.sample_sentence_pairs(pool, 4, seed=trial, restarts=70)
            assert got.objective == pytest.approx(
                sentence_subset_minimum(pool, 4), abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        pool = self._pool(rng, 20, m=2, strata=2)
        g1 = sampler.sample_sentence_pairs(pool, 10, seed=3, restarts=4,
                                           per_stratum=True)
        g2 = sampler.sample_sentence_pairs(pool, 10, seed=3, restarts=4,
                                           per_stratum=True)
        assert g1.chosen == g2.chosen and g1.objective == g2.objective

    def test_per_stratum_respects_quotas(self):
        rng = np.random.default_rng(8)
        pool = self._pool(rng, 30, strata=3)
        got = sampler.sample_sentence_pairs(pool, 12, seed=1, restarts=2,
                                            per_stratum=True)
        by_stratum = {}
        lookup = {a.anchor_id: a.stratum for a in pool.anchors}
        for aid in got.chosen:
            by_stratum[lookup[aid]] = by_stratum.get(lookup[aid], 0) + 1
        assert by_stratum == {"st0": 4, "st1": 4, "st2": 4}

    def test_target_above_pool_is_error(self):
        rng = np.random.default_rng(9)
        pool = self._pool(rng, 5)
        with pytest.raises(ValidationError, match="k_target"):
            sampler.sample_sentence_pairs(pool, 6, seed=0)

    def test_multi_candidate_pool_is_error(self):
        cs = fixed_set([["win", "loss"]])
        with pytest.raises(ValidationError, match="exactly"):
            sampler.sample_sentence_pairs(cs, 1, seed=0)


def numerator(sums, n):
    """Integer numerator of the objective: obj = numerator / (2n)."""
    return sum(abs(s - n) for s in sums)


def not_worse(sums_new, n_new, sums_old, n_old, m):
    """Exact test for obj(new) <= obj(old); an empty list scores m/2."""
    num_new = numerator(sums_new, n_new)
    num_old = numerator(sums_old, n_old)
    if n_new == 0 and n_old == 0:
        return True
    if n_old == 0:
        return 2 * num_new <= m * 2 * n_new
    if n_new == 0:
        return m * 2 * n_old <= 2 * num_old
    return num_new * n_old <= num_old * n_new


def best_of(results):
    """(chosen, objective, restart objectives, restart index) of the
    restart with the lowest numerator, the earliest on ties."""
    best = min(range(len(results)), key=lambda r: (results[r][0], r))
    return (results[best][1], results[best][2],
            [obj for _, _, obj in results], best)


def walk_word_pairs(cs, seed, restarts, fallbacks=None):
    """Word sampler with its own exact enumeration and a walk whose
    acceptance test recomputes both objectives, one restart after another.

    The reference for ``sample_word_pairs``: same strata, enumeration
    order, RNG calls and acceptance rule. Each seeded-random pick is
    logged to ``fallbacks`` as (restart, stratum, step).
    """
    outcomes = outcome_rows(cs)
    m = cs.n_scores
    strata = {}
    for idx, a in enumerate(cs.anchors):
        strata.setdefault(a.stratum, []).append(idx)
    exact = {}
    for stratum in sorted(strata):
        indices = strata[stratum]
        if math.prod(len(outcomes[i]) for i in indices) > sampler.EXACT_SEARCH_LIMIT:
            continue
        best = None
        for combo in itertools.product(*[range(len(outcomes[i])) for i in indices]):
            sums = [0] * m
            for idx, ci in zip(indices, combo):
                sums = [s + o for s, o in zip(sums, outcomes[idx][ci])]
            num = numerator(sums, len(indices))
            if best is None or num < best[0]:
                best = (num, combo, sums)
        exact[stratum] = (best[1], best[2])
    results = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        chosen, total_sums = {}, [0] * m
        for stratum in sorted(strata):
            indices = strata[stratum]
            if stratum in exact:
                combo, sums = exact[stratum]
                chosen.update((cs.anchors[idx].anchor_id, ci)
                              for idx, ci in zip(indices, combo))
                total_sums = [t + s for t, s in zip(total_sums, sums)]
                continue
            sums, n = [0] * m, 0
            for step, pos in enumerate(rng.permutation(len(indices))):
                idx = indices[int(pos)]
                rows = outcomes[idx]
                accepted = None
                for ci in rng.permutation(len(rows)):
                    trial = [s + o for s, o in zip(sums, rows[int(ci)])]
                    if not_worse(trial, n + 1, sums, n, m):
                        accepted = int(ci)
                        break
                if accepted is None:
                    accepted = int(rng.integers(len(rows)))
                    if fallbacks is not None:
                        fallbacks.append((r, stratum, step))
                row = rows[accepted]
                sums = [s + o for s, o in zip(sums, row)]
                n += 1
                chosen[cs.anchors[idx].anchor_id] = accepted
                total_sums = [t + o for t, o in zip(total_sums, row)]
        num = numerator(total_sums, len(cs.anchors))
        results.append((num, chosen, num / (2.0 * len(cs.anchors))))
    return best_of(results)


def walk_sentence_pairs(pool, k_target, seed, per_stratum, restarts,
                        fallbacks=None):
    """Sentence sampler visiting each step's permutation one pair at a
    time, one restart after another.

    The reference for ``sample_sentence_pairs``: same quotas, exact
    enumeration, RNG calls and acceptance rule, with the greedy step
    written as a walk. Each seeded-random pick is logged to ``fallbacks``
    as (restart, group, step).
    """
    outcomes = outcome_rows(pool)
    m = pool.n_scores
    strata = {}
    for idx, a in enumerate(pool.anchors):
        strata.setdefault(a.stratum, []).append(idx)
    if per_stratum:
        quotas = sampler._largest_remainder(
            {s: len(v) for s, v in strata.items()}, k_target)
        groups = [(s, strata[s], quotas[s]) for s in sorted(strata) if quotas[s] > 0]
    else:
        groups = [("", [i for s in sorted(strata) for i in strata[s]], k_target)]
    exact = {}
    for name, indices, quota in groups:
        if math.comb(len(indices), quota) <= sampler.EXACT_SEARCH_LIMIT:
            best = None
            for subset in itertools.combinations(indices, quota):
                sums = [0] * m
                for idx in subset:
                    sums = [s + o for s, o in zip(sums, outcomes[idx][0])]
                num = numerator(sums, quota)
                if best is None or num < best[0]:
                    best = (num, subset, sums)
            exact[name] = (best[1], best[2])
    results = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        chosen, total_sums, total_n = {}, [0] * m, 0
        for name, indices, quota in groups:
            if name in exact:
                subset, sums = exact[name]
                chosen.update((pool.anchors[idx].anchor_id, 0) for idx in subset)
                total_sums = [t + s for t, s in zip(total_sums, sums)]
                total_n += quota
                continue
            unchosen, sums, n = list(indices), [0] * m, 0
            while n < quota:
                accepted = None
                for pos in rng.permutation(len(unchosen)):
                    idx = unchosen[int(pos)]
                    trial = [s + o for s, o in zip(sums, outcomes[idx][0])]
                    if not_worse(trial, n + 1, sums, n, m):
                        accepted = idx
                        break
                if accepted is None:
                    accepted = unchosen[int(rng.integers(len(unchosen)))]
                    if fallbacks is not None:
                        fallbacks.append((r, name, n))
                unchosen.remove(accepted)
                row = outcomes[accepted][0]
                sums = [s + o for s, o in zip(sums, row)]
                n += 1
                chosen[pool.anchors[accepted].anchor_id] = 0
                total_sums = [t + o for t, o in zip(total_sums, row)]
                total_n += 1
        num = numerator(total_sums, total_n)
        results.append((num, chosen, num / (2.0 * total_n)))
    return best_of(results)


def assert_matches(got, reference):
    chosen, objective, objectives, index = reference
    assert got.chosen == chosen
    assert got.objective == objective
    assert got.restart_objectives == objectives
    assert got.restart_index == index


class TestBalance:
    """Both public samplers against their walk references."""

    @pytest.mark.parametrize("integer", [False, True])
    def test_words_match_walk(self, integer):
        # strata of 1-4 anchors are enumerated (at most 6^4 choices), strata
        # of 9-30 anchors with 2-6 candidates each are not; from two strata
        # on, a set has both
        rng = np.random.default_rng(60 + integer)
        for trial in range(25):
            anchors = []
            m = 1 + trial % 3
            for s in range(int(rng.integers(1, 4))):
                small = (s + trial) % 2 == 0
                size = int(rng.integers(1, 5) if small else rng.integers(9, 31))
                for i in range(size):
                    k = int(rng.integers(1 if small else 2, 7))
                    if integer:  # three values per score: ties everywhere
                        a, c = rng.integers(0, 3, size=m), rng.integers(0, 3, size=(k, m))
                    else:
                        a, c = rng.normal(size=m) + 0.2, rng.normal(size=(k, m))
                    anchors.append(anchor(f"a{s}_{i:02d}", a.astype(float),
                                          c.astype(float), stratum=f"st{s}"))
            cs = CandidateSet(anchors)
            restarts = int(rng.integers(1, 6))
            got = sampler.sample_word_pairs(cs, seed=trial, restarts=restarts)
            assert_matches(got, walk_word_pairs(cs, trial, restarts))

    def test_planted_word_tie_takes_first_in_product_order(self):
        # (0, 1) and (1, 0) both reach objective 0; product order visits
        # (0, 1) first
        cs = fixed_set([["win", "loss"], ["win", "loss"]])
        got = sampler.sample_word_pairs(cs, seed=3, restarts=2)
        assert got.chosen == {"a0": 0, "a1": 1}
        assert got.restart_objectives == [0.0, 0.0] and got.restart_index == 0
        assert_matches(got, walk_word_pairs(cs, 3, 2))

    def test_planted_sentence_tie_takes_first_in_combination_order(self):
        # {p0, p2}, {p0, p3}, {p1, p2}, {p1, p3} all reach objective 0
        pool = fixed_set([["win"], ["win"], ["loss"], ["loss"]])
        got = sampler.sample_sentence_pairs(pool, 2, seed=3, restarts=2)
        assert got.chosen == {"a0": 0, "a2": 0}
        assert got.restart_objectives == [0.0, 0.0] and got.restart_index == 0
        assert_matches(got, walk_sentence_pairs(pool, 2, 3, False, 2))

    def test_zero_restarts_is_error(self):
        cs = fixed_set([["win"], ["loss"]])
        with pytest.raises(ValidationError, match="restarts"):
            sampler.sample_word_pairs(cs, seed=0, restarts=0)
        with pytest.raises(ValidationError, match="restarts"):
            sampler.sample_sentence_pairs(cs, 1, seed=0, restarts=0)


class TestSentenceScan:
    """The vectorised greedy step against the one-by-one walk."""

    def _pool(self, rng, n, m, strata, integer):
        anchors = []
        for i in range(n):
            if integer:  # three values per score: ties everywhere
                a, c = rng.integers(0, 3, size=(2, m)).astype(float)
            else:
                a, c = rng.normal(size=m) + 0.3, rng.normal(size=m)
            anchors.append(anchor(f"p{i:03d}", a, [c], stratum=f"st{i % strata}"))
        return CandidateSet(anchors)

    @pytest.mark.parametrize("per_stratum", [False, True])
    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_walk(self, per_stratum, integer):
        rng = np.random.default_rng(40 + 2 * per_stratum + integer)
        for trial in range(12):
            n = int(rng.integers(14, 90))
            pool = self._pool(rng, n, int(rng.integers(1, 5)),
                              int(rng.integers(1, 4)), integer)
            k = n if trial % 4 == 0 else int(rng.integers(1, n))
            got = sampler.sample_sentence_pairs(
                pool, k, seed=trial, per_stratum=per_stratum, restarts=3)
            assert_matches(got, walk_sentence_pairs(pool, k, trial, per_stratum, 3))

    def test_stratum_objectives_match_balance_objective(self):
        rng = np.random.default_rng(44)
        pool = self._pool(rng, 60, 3, 4, integer=True)
        got = sampler.sample_sentence_pairs(pool, 25, seed=2, restarts=2)
        by_stratum = {}
        for a in pool.anchors:
            if a.anchor_id in got.chosen:
                by_stratum.setdefault(a.stratum, {})[a.anchor_id] = 0
        assert sampler.stratum_objectives(by_stratum, pool) == {
            s: balance_objective(chosen, pool)
            for s, chosen in by_stratum.items()}


class TestLockstep:
    """Restarts in lockstep against the one-by-one walks: candidate padding,
    steps where only some restarts fall back to a seeded-random pick, and
    more distinct outcome rows than unchosen pairs."""

    @staticmethod
    def mixed_steps(fallbacks, restarts):
        """(group, step) pairs where some restarts fell back and others not."""
        by_step = {}
        for r, group, step in fallbacks:
            by_step.setdefault((group, step), set()).add(r)
        return [key for key, fell in by_step.items() if len(fell) < restarts]

    @pytest.mark.parametrize("restarts", [1, 2, 16])
    def test_words_with_padding_and_mixed_fallbacks(self, restarts):
        rng = np.random.default_rng(70)
        anchors = []
        for i in range(40):  # one stratum, 1-6 candidates: padded, not enumerable
            k = 1 + i % 6
            anchors.append(anchor(f"a{i:02d}", rng.integers(0, 3, size=2).astype(float),
                                  rng.integers(0, 3, size=(k, 2)).astype(float)))
        cs = CandidateSet(anchors)
        fallbacks = []
        got = sampler.sample_word_pairs(cs, seed=9, restarts=restarts)
        assert_matches(got, walk_word_pairs(cs, 9, restarts, fallbacks))
        assert fallbacks
        assert restarts == 1 or self.mixed_steps(fallbacks, restarts)

    @pytest.mark.parametrize("restarts", [1, 2, 16])
    @pytest.mark.parametrize("k", [100, 98])
    def test_sentences_down_to_the_last_pairs(self, restarts, k):
        # k == n is one enumerated subset (L shrinks to 1 there); k == n - 2
        # is the smallest final L of a greedy scan (3 pairs), as any quota
        # closer to its group's size leaves at most EXACT_SEARCH_LIMIT subsets
        rng = np.random.default_rng(71)
        pool = CandidateSet([
            anchor(f"p{i:03d}", rng.integers(0, 3, size=6).astype(float),
                   [rng.integers(0, 3, size=6).astype(float)])
            for i in range(100)])
        assert len({rows[0] for rows in outcome_rows(pool)}) > 100 - k + 1
        fallbacks = []
        got = sampler.sample_sentence_pairs(pool, k, seed=4, restarts=restarts)
        assert_matches(got, walk_sentence_pairs(pool, k, 4, False, restarts,
                                                fallbacks))
        if k < 100:
            assert fallbacks
            assert restarts == 1 or self.mixed_steps(fallbacks, restarts)

    def test_enumeration_across_blocks_keeps_the_first_minimum(self):
        # 40 anchors, 12 with two candidates: 4,096 tuples, scored in blocks
        # of 65,536 // 40 = 1,638; 62 pairs choose 60: 1,891 subsets in
        # blocks of 1,092. Tie-heavy scores put minima in several blocks.
        rng = np.random.default_rng(73)
        cs = CandidateSet([
            anchor(f"a{i:02d}", rng.integers(0, 3, size=2).astype(float),
                   rng.integers(0, 3, size=(1 + (i < 12), 2)).astype(float))
            for i in range(40)])
        got = sampler.sample_word_pairs(cs, seed=1, restarts=2)
        assert_matches(got, walk_word_pairs(cs, 1, 2))
        pool = CandidateSet([
            anchor(f"p{i:02d}", rng.integers(0, 3, size=2).astype(float),
                   [rng.integers(0, 3, size=2).astype(float)])
            for i in range(62)])
        got = sampler.sample_sentence_pairs(pool, 60, seed=1, restarts=2)
        assert_matches(got, walk_sentence_pairs(pool, 60, 1, False, 2))

    def test_outcome_array_matches_elementwise_comparison(self):
        rng = np.random.default_rng(72)
        special = np.array([-0.0, 0.0, 1.0, 5e-324, -1e308, 1e308])
        for trial in range(40):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 25))
            if trial % 2:
                draw = lambda size: special[rng.integers(0, len(special), size=size)]
            else:
                draw = lambda size: rng.normal(size=size).round(int(rng.integers(0, 3)))
            cs = CandidateSet([anchor(f"a{i}", draw(m),
                                      draw((int(rng.integers(1, 7)), m)))
                               for i in range(n)])
            outcomes, counts = sampler._outcomes(cs)
            rows = outcome_rows(cs)
            assert outcomes.shape == (n, max(map(len, rows)), m)
            assert counts.tolist() == [len(r) for r in rows]
            for i, r in enumerate(rows):
                assert [tuple(o) for o in outcomes[i, :len(r)].tolist()] == r

    def test_out_of_range_candidate_index_is_error(self):
        cs = fixed_set([["win", "loss"], ["win"]])
        for bad in (2, -1):
            with pytest.raises(ValidationError, match="out of range"):
                balance_objective({"a0": bad, "a1": 0}, cs)


class TestCandidateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        anchors = [anchor(f"a{i}", rng.normal(size=2), rng.normal(size=(2, 2)),
                          stratum=f"f{i % 2}") for i in range(5)]
        cs = CandidateSet(anchors)
        path = tmp_path / "c.tsv"
        sampler.write_candidate_set(cs, path)
        loaded = sampler.read_candidate_set(path)
        assert loaded.anchors == cs.anchors

    @pytest.mark.parametrize("cands, message", [
        ((("c", (1.0,)), ("c", (2.0,))), "duplicate candidate 'c' for 'a'"),
        ((("c", (1.0,)), ("@self", (2.0,))), "anchor 'a': candidate id '@self' is reserved"),
    ])
    def test_direct_set_keeps_the_file_rules(self, cands, message):
        # the reader rejects both, as a duplicate candidate and a duplicate
        # @self row; the anchor's where leads the error when it is set
        for where in (None, "src.tsv: line 9"):
            with pytest.raises(ValidationError) as exc:
                CandidateSet([AnchorEntry("a", "s", (0.0,), cands, where)])
            assert str(exc.value) == (f"{where}: {message}" if where else message)

    def test_every_accepted_set_reads_back(self, tmp_path):
        # candidate ids drawn with repeats and '@self': whatever the
        # constructor accepts, the file it is written to reads back ==
        rng = np.random.default_rng(13)
        path = tmp_path / "c.tsv"
        accepted = 0
        for _ in range(200):
            anchors = [AnchorEntry(f"a{i}", f"s{i % 2}", (float(rng.normal()),),
                                   tuple((str(rng.choice(["c", "d", "e", "@self"])),
                                          (float(rng.normal()),))
                                         for _ in range(int(rng.integers(1, 4)))))
                       for i in range(int(rng.integers(1, 4)))]
            try:
                cs = CandidateSet(anchors)
            except ValidationError:
                continue
            accepted += 1
            sampler.write_candidate_set(cs, path)
            assert sampler.read_candidate_set(path).anchors == cs.anchors
        assert accepted >= 20

    def test_missing_self_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n"
                        "a0\ts\tc0\t1.0\n")
        with pytest.raises(ValidationError, match="line 2: .*@self"):
            sampler.read_candidate_set(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_cites_line(self, tmp_path, value):
        path = tmp_path / "c.tsv"
        path.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n"
                        "a0\ts\t@self\t1.0\n"
                        f"a0\ts\tc0\t{value}\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: line 3: non-finite score")):
            sampler.read_candidate_set(path)

    @pytest.mark.parametrize("a_scores, cand_scores", [
        ([math.nan], [[0.0], [1.0]]),   # the anchor's own score
        ([0.0], [[1.0], [math.inf]]),   # a later candidate's score
    ])
    def test_direct_non_finite_score_is_error(self, a_scores, cand_scores):
        good = anchor("a0", [0.0], [[1.0], [2.0]])
        with pytest.raises(ValidationError,
                           match=re.escape("anchor 'a1': non-finite score")):
            CandidateSet([good, anchor("a1", a_scores, cand_scores)])

    def test_header_only_cites_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 2: ") + ".*empty"):
            sampler.read_candidate_set(path)

    def test_anchor_without_candidates_cites_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n"
                        "a0\ts\t@self\t1.0\n"
                        "a0\ts\tc0\t0.0\n"
                        "a1\ts\t@self\t1.0\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: line 4: anchor 'a1' has no "
                                           "candidates")):
            sampler.read_candidate_set(path)

    def test_assignment_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        anchors = [anchor(f"a{i}", rng.normal(size=1), rng.normal(size=(2, 1)))
                   for i in range(6)]
        cs = CandidateSet(anchors)
        got = sampler.sample_word_pairs(cs, seed=0, restarts=2)
        path = tmp_path / "a.tsv"
        sampler.write_assignment(got, cs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "anchor_id\tcandidate_id\tstratum"
        rows = [tuple(line.split("\t")) for line in lines[1:]]
        assert len(rows) == 6
        assert [r[0] for r in rows] == sorted(got.chosen)
