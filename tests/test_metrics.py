"""Paired accuracy, pooling, cosine similarity and rank correlation."""

import numpy as np
import pytest
from scipy import stats  # the Spearman oracle only; the package never imports it

from conftest import record_similarities, similarity_score, spearman_oracle
from zrc_eval import metrics
from zrc_eval.errors import ValidationError
from zrc_eval.types import ScoredPair, SimilarityRecord


def make_pairs(rows):
    """rows: list of (accepted_score, rejected_score, tags)."""
    pairs, scores = [], {}
    for i, (sa, sr, tags) in enumerate(rows):
        pairs.append(ScoredPair(f"p{i}", f"a{i}", f"r{i}", tags))
        scores[f"a{i}"] = sa
        scores[f"r{i}"] = sr
    return pairs, scores


class TestPairedAccuracy:
    def test_all_wins(self):
        pairs, scores = make_pairs([(-1.0, -2.0, {}), (0.0, -0.5, {})])
        assert metrics.paired_accuracy(pairs, scores).overall == 1.0

    def test_all_ties_half_policy(self):
        pairs, scores = make_pairs([(-1.0, -1.0, {})] * 3)
        report = metrics.paired_accuracy(pairs, scores, "half")
        assert report.overall == 0.5
        assert report.tie_count == 3

    def test_all_ties_zero_policy(self):
        pairs, scores = make_pairs([(-1.0, -1.0, {})] * 3)
        assert metrics.paired_accuracy(pairs, scores, "zero").overall == 0.0

    def test_hand_enumerated_mixture(self):
        pairs, scores = make_pairs([
            (-1.0, -2.0, {}),   # win
            (-3.0, -2.0, {}),   # loss
            (-2.0, -2.0, {}),   # tie
            (-0.5, -0.7, {}),   # win
        ])
        report = metrics.paired_accuracy(pairs, scores, "half")
        assert report.overall == (1 + 0 + 0.5 + 1) / 4
        assert report.overall == 0.625

    def test_per_tag_weighted_sum_matches_overall(self):
        rng = np.random.default_rng(0)
        rows = [(float(rng.normal()), float(rng.normal()),
                 {"bin": f"b{i % 3}", "voice": f"v{i % 2}"})
                for i in range(40)]
        pairs, scores = make_pairs(rows)
        report = metrics.paired_accuracy(pairs, scores)
        for key_prefix in ("bin", "voice"):
            tags = {k: v for k, v in report.per_tag.items()
                    if k.startswith(key_prefix + "=")}
            weighted = sum(report.tag_counts[k] * v for k, v in tags.items())
            assert weighted == pytest.approx(
                report.pair_count * report.overall, abs=1e-9)
            lo, hi = min(tags.values()), max(tags.values())
            assert lo - 1e-12 <= report.overall <= hi + 1e-12

    def test_missing_score_names_pair(self):
        pairs, scores = make_pairs([(-1.0, -2.0, {})])
        del scores["r0"]
        with pytest.raises(ValidationError, match="p0"):
            metrics.paired_accuracy(pairs, scores)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        rows = [(float(rng.normal()), float(rng.normal()), {}) for _ in range(30)]
        pairs, scores = make_pairs(rows)
        base = metrics.paired_accuracy(pairs, scores).overall
        for _ in range(20):
            a = float(rng.uniform(0.2, 4.0))
            b = float(rng.normal())
            warped = {k: np.expm1(a * v) + b for k, v in scores.items()}
            assert metrics.paired_accuracy(pairs, warped).overall == base


class TestPool:
    def test_single_frame_all_kinds(self):
        frame = np.array([[1.0, -2.0, 3.0]])
        for kind in metrics.POOLINGS:
            assert metrics.pool(frame, kind).tolist() == [1.0, -2.0, 3.0]

    def test_elementwise_max(self):
        assert metrics.pool([[1, 4], [3, 2]], "max").tolist() == [3.0, 4.0]

    def test_elementwise_min_and_mean(self):
        mat = [[1.0, 4.0], [3.0, 2.0]]
        assert metrics.pool(mat, "min").tolist() == [1.0, 2.0]
        assert metrics.pool(mat, "mean").tolist() == [2.0, 3.0]

    def test_constant_mean(self):
        assert metrics.pool(np.full((5, 2), 3.25), "mean").tolist() == [3.25, 3.25]

    def test_empty_is_error(self):
        with pytest.raises(ValidationError):
            metrics.pool(np.zeros((0, 3)), "mean")


def cosine(x, y) -> float:
    """The cosine of one pair of vectors, through ``metrics._cosines`` as
    every similarity is computed."""
    vectors = [np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)]
    return float(metrics._cosines(vectors, np.array([0]), np.array([1]))[0])


class TestSemanticDistance:
    def test_identical(self):
        v = np.array([1.0, 2.0, -1.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite(self):
        assert cosine([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(
            -1.0, abs=1e-15)

    def test_zero_vector_is_error(self):
        with pytest.raises(ValidationError, match="zero"):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_accepts_pooled_embedding(self):
        e1 = metrics.pool([[1.0, 0.0]])
        e2 = np.array([2.0, 0.0])
        assert cosine(e1, e2) == pytest.approx(1.0, abs=1e-15)


class TestSpearman:
    def test_closed_form_on_tie_free_input(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            a = rng.permutation(n).astype(float) + rng.uniform(0, 0.4, n)
            b = rng.permutation(n).astype(float) + rng.uniform(0, 0.4, n)
            ra = np.argsort(np.argsort(a)) + 1.0
            rb = np.argsort(np.argsort(b)) + 1.0
            d2 = float(np.sum((ra - rb) ** 2))
            closed = 100.0 * (1.0 - 6.0 * d2 / (n * (n * n - 1)))
            assert metrics.spearman(a, b) == pytest.approx(closed, abs=1e-12)

    def test_perfect_monotone_is_hundred(self):
        x = np.array([0.1, 0.5, 2.0, 7.0])
        assert metrics.spearman(x, x ** 3) == pytest.approx(100.0, abs=1e-12)
        assert metrics.spearman(x, -x) == pytest.approx(-100.0, abs=1e-12)

    def test_tied_inputs_match_average_rank_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 25))
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            assert metrics.spearman(a, b) == pytest.approx(
                spearman_oracle(a, b), abs=1e-12)

    def test_five_records_one_tie(self):
        human = [1.0, 2.0, 2.0, 4.0, 5.0]
        model = [0.1, 0.3, 0.2, 0.8, 0.9]
        assert metrics.spearman(model, human) == pytest.approx(
            spearman_oracle(model, human), abs=1e-12)

    def test_needs_two_observations(self):
        with pytest.raises(ValidationError):
            metrics.spearman([1.0], [1.0])

    def test_constant_input_is_error(self):
        with pytest.raises(ValidationError, match="constant"):
            metrics.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def scipy_spearman(a, b) -> float:
    return stats.spearmanr(a, b).statistic * 100


class TestSpearmanEqualsScipy:
    """``metrics.spearman`` is ``==`` to ``scipy.stats.spearmanr`` x 100."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_tie_heavy_inputs(self, seed):
        rng = np.random.default_rng(seed)
        compared = 0
        for _ in range(250):
            n = int(rng.integers(2, 80))
            levels_a, levels_b = rng.integers(1, 8, size=2)
            a = rng.integers(0, levels_a, n) * rng.choice([1.0, 0.1, 1e-9, 1e9])
            b = rng.integers(0, levels_b, n) + rng.choice([0.0, 0.5], n)
            if rng.random() < 0.3:
                b = rng.standard_normal(n)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert metrics.spearman(a, b) == scipy_spearman(a, b)
            compared += 1
        assert compared > 150

    @pytest.mark.parametrize("a, b", [
        ([1.0, 2.0], [3.0, 4.0]),
        ([1.0, 2.0], [4.0, 3.0]),
        ([-np.inf, 0.0, np.inf, 1.0], [1.0, 2.0, 3.0, 3.0]),
        ([np.inf, np.inf, -np.inf, 5.0, 5.0], [0.2, 0.1, 0.4, 0.3, 0.1]),
        ([-0.0, 0.0, 1.0, -0.0, 2.0], [5.0, 4.0, 3.0, 2.0, 1.0]),
        ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]),
    ], ids=["n2-up", "n2-down", "inf", "inf-ties", "signed-zero", "integers"])
    def test_edge_inputs(self, a, b):
        assert metrics.spearman(a, b) == scipy_spearman(a, b)

    @pytest.mark.parametrize("a, b, reason", [
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "constant"),
        ([1.0, 2.0, 3.0], [-0.0, 0.0, -0.0], "constant"),
        ([np.inf, np.inf], [1.0, 2.0], "constant"),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "NaN"),
        ([1.0, 2.0, 3.0], [np.nan, np.nan, np.nan], "NaN"),
    ])
    def test_undefined_is_validation_error(self, a, b, reason):
        with pytest.raises(ValidationError, match=f"undefined \\({reason} input\\)"):
            metrics.spearman(a, b)


def embedding(vec):
    return np.asarray(vec, dtype=np.float64)


def record(wa, wb, score, refs_a, refs_b, dataset="ds"):
    return SimilarityRecord(wa, wb, score, dataset, tuple(refs_a), tuple(refs_b))


class TestSimilarityScore:
    def _perfect_setup(self, invert=False):
        # cosine between w0 and wk decreases as k grows
        reprs = {}
        base = np.array([1.0, 0.0])
        records = []
        for k in range(1, 6):
            angle = 0.25 * k
            reprs[f"w{k}"] = embedding([np.cos(angle), np.sin(angle)])
            human = (10.0 - k) if not invert else float(k)
            records.append(record("w0", f"w{k}", human,
                                  [("", "w0")], [("", f"w{k}")]))
        reprs["w0"] = embedding(base)
        return records, reprs

    def test_perfect_monotone_gives_100(self):
        records, reprs = self._perfect_setup()
        assert similarity_score(records, reprs, "synthetic") == \
            pytest.approx(100.0, abs=1e-12)

    def test_perfect_antimonotone_gives_minus_100(self):
        records, reprs = self._perfect_setup(invert=True)
        assert similarity_score(records, reprs, "synthetic") == \
            pytest.approx(-100.0, abs=1e-12)

    def test_synthetic_averages_same_voice_pairs(self):
        reprs = {"a_A": embedding([1.0, 0.0]), "a_B": embedding([0.0, 1.0]),
                 "b_A": embedding([1.0, 1.0]), "b_B": embedding([1.0, -1.0])}
        rec = record("a", "b", 5.0,
                     [("A", "a_A"), ("B", "a_B")], [("A", "b_A"), ("B", "b_B")])
        got = record_similarities([rec], reprs, "synthetic")[0]
        expected = 0.5 * (cosine(reprs["a_A"], reprs["b_A"])
                          + cosine(reprs["a_B"], reprs["b_B"]))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_natural_averages_all_cross_pairs(self):
        reprs = {"a1": embedding([1.0, 0.0]), "a2": embedding([0.5, 0.5]),
                 "b1": embedding([0.0, 1.0])}
        rec = record("a", "b", 5.0, [("", "a1"), ("", "a2")], [("", "b1")])
        got = record_similarities([rec], reprs, "natural")[0]
        expected = 0.5 * (cosine(reprs["a1"], reprs["b1"])
                          + cosine(reprs["a2"], reprs["b1"]))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_missing_representation_is_error(self):
        rec = record("a", "b", 5.0, [("", "a")], [("", "b")])
        with pytest.raises(ValidationError, match="representation"):
            record_similarities([rec], {"a": embedding([1.0])}, "synthetic")

    def test_fewer_than_two_records_is_error(self):
        rec = record("a", "b", 5.0, [("", "a")], [("", "b")])
        with pytest.raises(ValidationError):
            similarity_score([rec], {}, "synthetic")

    def test_monotone_transform_invariance(self):
        records, reprs = self._perfect_setup()
        rng = np.random.default_rng(4)
        base = similarity_score(records, reprs, "synthetic")
        # warp every representation's agreement by shrinking angles uniformly
        for _ in range(5):
            scale = float(rng.uniform(0.5, 2.0))
            scaled = {k: v * scale for k, v in reprs.items()}
            assert similarity_score(records, scaled, "synthetic") == base


class TestLayerSweep:
    def _records(self):
        return [record("a", "b", 9.0, [("", "a")], [("", "b")]),
                record("a", "c", 1.0, [("", "a")], [("", "c")]),
                record("b", "c", 5.0, [("", "b")], [("", "c")])]

    def test_single_layer_single_pooling(self):
        rng = np.random.default_rng(5)
        archive = {u: rng.standard_normal((4, 3)) for u in "abc"}
        layer, kind, score, _ = metrics.layer_sweep(
            [archive], self._records(), poolings=("mean",))
        assert (layer, kind) == (0, "mean")

    def test_dominant_layer_wins(self):
        rng = np.random.default_rng(6)
        noise = {u: rng.standard_normal((4, 2)) for u in "abc"}
        aligned = {"a": np.array([[1.0, 0.0]]),
                   "b": np.array([[0.9, 0.1]]),
                   "c": np.array([[0.0, 1.0]])}
        layer, kind, score, _ = metrics.layer_sweep([noise, aligned], self._records())
        assert layer == 1
        assert score == pytest.approx(100.0, abs=1e-9)

    def test_exact_tie_prefers_lower_layer_and_mean(self):
        archive = {"a": np.array([[1.0, 0.0]]),
                   "b": np.array([[0.9, 0.1]]),
                   "c": np.array([[0.0, 1.0]])}
        layer, kind, _, _ = metrics.layer_sweep([archive, dict(archive)],
                                                self._records())
        assert (layer, kind) == (0, "mean")


def cosine_oracle(ex, ey) -> float:
    """One pair's cosine, as ``np.dot`` over the two ``np.linalg.norm``s."""
    x = np.asarray(ex, dtype=np.float64)
    y = np.asarray(ey, dtype=np.float64)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if x.shape != y.shape:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("cosine undefined for zero vectors")
    return float(np.dot(x, y) / (nx * ny))


def similarities_oracle(records, reprs, subset) -> list:
    """Record by record, pair by pair: the first failing step raises."""
    model = []
    for rec in records:
        refs_a, refs_b = metrics.record_refs(rec)
        if subset == "synthetic":
            pairs = [(ua, ub) for va, ua in refs_a for vb, ub in refs_b if va == vb]
        else:
            pairs = [(ua, ub) for _, ua in refs_a for _, ub in refs_b if ua != ub]
        if not pairs:
            raise ValidationError(
                f"({rec.word_a}, {rec.word_b}): no comparable token pairs "
                f"for the {subset} subset")
        sims = []
        for ua, ub in pairs:
            for utt in (ua, ub):
                if utt not in reprs:
                    raise ValidationError(
                        f"({rec.word_a}, {rec.word_b}): no representation "
                        f"for utterance {utt!r}")
            sims.append(cosine_oracle(reprs[ua], reprs[ub]))
        model.append(sum(sims) / len(sims))
    return model


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"error: {exc}"


def random_gold(rng, n_records, utts, valid=False):
    """Records with 1-3 refs a side, voices A or B; with ``valid``, word a
    draws from the first half of ``utts`` and word b from the second, and
    each side has a voice-A ref, so both subsets have pairs."""
    half = len(utts) // 2
    records = []
    for i in range(n_records):
        refs = []
        for pool in ((utts[:half], utts[half:]) if valid else (utts, utts)):
            side = [(str(rng.choice(["A", "B"])), str(rng.choice(pool)))
                    for _ in range(rng.integers(1, 4))]
            if valid:
                side[0] = ("A", side[0][1])
            refs.append(side)
        records.append(record(f"a{i}", f"b{i}", float(rng.uniform(0, 10)),
                              refs[0], refs[1]))
    return records


class TestStackedCosines:
    """All of a call's cosines come from one stacked product; every value is
    == to the per-pair ``np.dot`` loop and every error is the loop's."""

    @pytest.mark.parametrize("subset", ["synthetic", "natural"])
    @pytest.mark.parametrize("dim", [1, 3, 64, 256, 768])
    def test_equals_per_pair_loop(self, subset, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        utts = [f"u{i}" for i in range(30)]
        reprs = {u: rng.standard_normal(dim) * rng.uniform(0.01, 50) for u in utts}
        records = random_gold(rng, 60, utts, valid=True)
        want = similarities_oracle(records, reprs, subset)
        for block in (metrics.COSINE_PAIRS, 7, 1):
            monkeypatch.setattr(metrics, "COSINE_PAIRS", block)
            assert [record_similarities([r], reprs, subset)[0]
                    for r in records] == want
            assert similarity_score(records, reprs, subset) == \
                metrics.spearman(want, [r.human_score for r in records])

    def test_semantic_distance_is_the_dot_over_the_norms(self):
        rng = np.random.default_rng(9)
        for dim in (1, 2, 16, 100, 1000):
            for _ in range(20):
                x, y = rng.standard_normal((2, dim)) * rng.uniform(1e-3, 1e3, 2)[:, None]
                assert cosine(x, y) == cosine_oracle(x, y)

    def test_pairs_of_different_dimensions_in_one_call(self):
        reprs = {"a": embedding([1.0, 2.0]), "b": embedding([2.0, -1.5]),
                 "c": embedding([1.0, 0.0, 3.0]), "d": embedding([0.5, 2.0, 1.0])}
        records = [record("a", "b", 2.0, [("", "a")], [("", "b")]),
                   record("c", "d", 7.0, [("", "c")], [("", "d")]),
                   record("a", "a", 9.0, [("", "a")], [("", "a")])]
        assert metrics._similarities(
            records, metrics._token_plan(records, "synthetic"), reprs) == \
            similarities_oracle(records, reprs, "synthetic")

    @pytest.mark.parametrize("records, reprs", [
        # no comparable pairs in the second record; the third lacks a vector
        ([record("a", "b", 1, [("A", "a")], [("A", "b")]),
          record("a", "c", 2, [("A", "a")], [("B", "c")]),
          record("a", "x", 3, [("A", "a")], [("A", "x")])],
         {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]}),
        # a zero vector in an earlier pair of the record beats a missing one
        ([record("a", "b", 1, [("A", "a")], [("A", "b")]),
          record("a", "z", 2, [("A", "a"), ("B", "q")], [("A", "z"), ("B", "x")])],
         {"a": [1.0, 0.0], "b": [0.0, 1.0], "z": [0.0, 0.0], "q": [1.0, 2.0]}),
        # a missing second token is named, though its first token exists
        ([record("a", "b", 1, [("A", "a")], [("A", "b")]),
          record("a", "x", 2, [("A", "a")], [("A", "x")]),
          record("a", "z", 3, [("A", "a")], [("A", "z")])],
         {"a": [1.0, 0.0], "b": [0.0, 1.0], "z": [0.0, 0.0]}),
        # a mismatch in the first record beats a later zero vector
        ([record("a", "c", 1, [("A", "a")], [("A", "c")]),
          record("a", "z", 2, [("A", "a")], [("A", "z")])],
         {"a": [1.0, 0.0], "c": [1.0, 0.0, 2.0], "z": [0.0, 0.0]}),
        # a pair both mismatched and zero reports the mismatch
        ([record("a", "b", 1, [("A", "a")], [("A", "b")]),
          record("z", "c", 2, [("A", "z")], [("A", "c")])],
         {"a": [1.0, 0.0], "b": [0.0, 1.0], "z": [0.0, 0.0], "c": [1.0, 0.0, 2.0]}),
    ])
    def test_first_error_is_the_per_pair_loops(self, records, reprs):
        reprs = {u: embedding(v) for u, v in reprs.items()}
        want = outcome(similarities_oracle, records, reprs, "synthetic")
        assert want.startswith("error: ")
        assert outcome(similarity_score, records, reprs,
                       "synthetic") == want

    def test_fuzzed_errors_match_the_per_pair_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            utts = [f"u{i}" for i in range(8)]
            reprs = {}
            for u in utts:
                kind = rng.random()
                if kind < 0.1:
                    continue  # missing
                vec = rng.standard_normal(3 if rng.random() < 0.9 else 4)
                reprs[u] = vec * 0.0 if kind < 0.18 else vec
            records = random_gold(rng, 5, utts)
            for subset in ("synthetic", "natural"):
                want = outcome(similarities_oracle, records, reprs, subset)
                plan = metrics._token_plan(records, subset)
                got = outcome(metrics._similarities, records, plan, reprs)
                assert got == want, (trial, subset)
