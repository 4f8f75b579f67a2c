"""ABX cell scores and full evaluation against brute-force oracles."""

import re
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import (abx_oracle, abx_reference, cell_score, context_scores,
                      dtw_reference, per_pair_abx, symmetrized_score)
from zrc_eval import abx, distance, io_formats
from zrc_eval.distance import dtw_distance
from zrc_eval.errors import FormatError, ValidationError
from zrc_eval.types import FeatureSequence, TriphoneToken, UnitSequence


def record_pairs(patch) -> list:
    """Through ``patch``, have ``abx.dtw_pairs`` (whatever it is when
    called) also record each requested ``(token, probe, distance)``, in
    request order, into the returned list."""
    asked = []
    dtw_pairs = abx.dtw_pairs

    def recording(store, rows, cols, metric):
        dist = dtw_pairs(store, rows, cols, metric)
        asked.extend(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                         np.asarray(dist).tolist()))
        return dist

    patch.setattr(abx, "dtw_pairs", recording)
    return asked


def absdiff(a, b):
    """Scalar 1-D single-frame distance used by the hand oracles."""
    return abs(float(np.ravel(a)[0]) - float(np.ravel(b)[0]))


class TestOneHot:
    def test_single_unit(self):
        fs = abx.one_hot_encode(UnitSequence("u", [2]), 4)
        assert fs.frames.tolist() == [[0.0, 0.0, 1.0, 0.0]]
        assert fs.frame_rate == 100.0

    def test_sequence(self):
        fs = abx.one_hot_encode(UnitSequence("u", [0, 0, 1]), 2)
        assert fs.frames.tolist() == [[1, 0], [1, 0], [0, 1]]

    def test_argmax_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            units = rng.integers(0, 7, size=rng.integers(1, 15)).tolist()
            fs = abx.one_hot_encode(UnitSequence("u", units), 7)
            assert np.argmax(fs.frames, axis=1).tolist() == units

    def test_unit_out_of_range(self):
        with pytest.raises(ValidationError):
            abx.one_hot_encode(UnitSequence("u", [4]), 4)


class TestAsymmetricCell:
    def test_all_ties_give_half(self):
        token = np.eye(3)[[0, 0]]
        a = [token.copy() for _ in range(3)]
        b = [token.copy() for _ in range(2)]
        assert cell_score(a, b, "angular") == 0.5

    def test_separated_scalars_give_zero(self):
        # d(a, x) = 0.1 always beats d(b, x) >= 0.9
        a = [np.array([[0.0]]), np.array([[0.1]])]
        b = [np.array([[1.0]])]
        with per_pair_abx(absdiff):
            assert cell_score(a, b, "angular") == 0.0
        assert abx_oracle(a, b, absdiff) == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = [rng.standard_normal((rng.integers(1, 5), 3))
                 for _ in range(rng.integers(2, 6))]
            b = [rng.standard_normal((rng.integers(1, 5), 3))
                 for _ in range(rng.integers(1, 6))]
            dist = lambda x, y: dtw_distance(x, y, "angular")
            assert cell_score(a, b, "angular") == pytest.approx(
                abx_oracle(a, b, dist), abs=1e-12)

    def test_across_pool_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = [rng.standard_normal((3, 2)) for _ in range(rng.integers(1, 4))]
            b = [rng.standard_normal((3, 2)) for _ in range(rng.integers(1, 4))]
            x = [rng.standard_normal((3, 2)) for _ in range(rng.integers(1, 4))]
            dist = lambda u, v: dtw_distance(u, v, "angular")
            assert cell_score(a, b, "angular", x=x) == pytest.approx(
                abx_oracle(a, b, dist, x_tokens=x), abs=1e-12)

    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_table_holds_only_requested_directions(self, metric, monkeypatch):
        # a separate probe pool asks for d(a, x) and d(b, x) but never
        # d(x, a): the mirrored half of an angular pair is left out; each
        # requested pair goes to dtw_pairs once, in row-major order
        rng = np.random.default_rng(18)
        seqs = [rng.dirichlet(np.ones(3), size=int(rng.integers(1, 6)))
                for _ in range(6)]
        asked = record_pairs(monkeypatch)
        context_scores(seqs, [(range(2), range(2, 4), range(4, 6), False)], metric)
        assert [(i, j) for i, j, _ in asked] == [(i, j) for i in range(4)
                                                 for j in range(4, 6)]
        for i, j, d in asked:
            assert d == dtw_distance(seqs[i], seqs[j], metric)

    def test_needs_two_a_tokens(self):
        # probes drawn from A: one a-token leaves the cell no (a, x) pair
        with pytest.raises(ValidationError, match="empty ABX cell"):
            cell_score([np.ones((1, 2))], [np.ones((1, 2))], "angular")

    def test_score_in_unit_interval_and_half_for_constant_distance(self):
        rng = np.random.default_rng(3)
        a = [rng.standard_normal((2, 2)) for _ in range(3)]
        b = [rng.standard_normal((2, 2)) for _ in range(3)]
        with per_pair_abx(lambda x, y: 7.0):
            assert cell_score(a, b, "angular") == 0.5
        score = cell_score(a, b, "angular")
        assert 0.0 <= score <= 1.0

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        a = [rng.standard_normal((3, 2)) for _ in range(4)]
        b = [rng.standard_normal((3, 2)) for _ in range(3)]
        base_dist = dtw_reference("angular")
        with per_pair_abx(base_dist):
            base = cell_score(a, b, "angular")
        for _ in range(10):
            alpha = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.0, 2.0))
            warped = lambda x, y: np.expm1(alpha * base_dist(x, y)) + beta
            with per_pair_abx(warped):
                assert cell_score(a, b, "angular") == base

    def test_token_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = [rng.standard_normal((3, 2)) for _ in range(4)]
        b = [rng.standard_normal((3, 2)) for _ in range(3)]
        base = cell_score(a, b, "angular")
        perm_a = [a[i] for i in rng.permutation(4)]
        perm_b = [b[i] for i in rng.permutation(3)]
        assert cell_score(perm_a, perm_b, "angular") == pytest.approx(
            base, abs=1e-12)


class TestSymmetrizedCell:
    def test_trivial_means(self):
        zero = lambda x, y: absdiff(x, y)
        a = [np.array([[0.0]]), np.array([[0.1]])]
        b = [np.array([[1.0]]), np.array([[1.1]])]
        # both directions separate perfectly
        with per_pair_abx(zero):
            assert symmetrized_score(a, b, "angular") == 0.0

    def test_mean_of_directions(self):
        rng = np.random.default_rng(6)
        a = [rng.standard_normal((2, 3)) for _ in range(3)]
        b = [rng.standard_normal((2, 3)) for _ in range(3)]
        dist = lambda x, y: dtw_distance(x, y, "angular")
        expected = 0.5 * (abx_oracle(a, b, dist) + abx_oracle(b, a, dist))
        assert symmetrized_score(a, b, "angular") == pytest.approx(
            expected, abs=1e-12)


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------

def write_archive(tmp_path, utterances):
    for utt_id, frames in utterances.items():
        io_formats.write_feature_archive(
            tmp_path, FeatureSequence(utt_id, 100.0, frames), "binary")
    return tmp_path


def one_hot_tokens(unit, n, count, rng):
    return [np.eye(4)[[unit] * int(rng.integers(2, 5))] for _ in range(count)]


def build_items(categories, tmp_path):
    """categories: list of (center, left, right, speaker, [frame matrices])."""
    utterances = {}
    tokens = []
    k = 0
    for center, left, right, speaker, mats in categories:
        for mat in mats:
            utt = f"f{k:03d}"
            utterances[utt] = mat
            tokens.append(TriphoneToken(utt, 0.0, mat.shape[0] / 100.0,
                                        center, left, right, speaker))
            k += 1
    write_archive(tmp_path, utterances)
    return tokens


class TestAbxEvaluate:
    def test_perfectly_separated_is_zero(self, tmp_path):
        rng = np.random.default_rng(7)
        cats = [("B", "A", "T", "s1", one_hot_tokens(0, 4, 3, rng)),
                ("P", "A", "T", "s1", one_hot_tokens(1, 4, 3, rng))]
        tokens = build_items(cats, tmp_path)
        result = abx.abx_evaluate(tokens, tmp_path, "within", "angular")
        assert result.error_rate == 0.0

    def test_all_identical_is_exactly_fifty(self, tmp_path):
        frames = np.eye(4)[[2, 2, 2]]
        cats = [("B", "A", "T", "s1", [frames.copy() for _ in range(3)]),
                ("P", "A", "T", "s1", [frames.copy() for _ in range(3)])]
        tokens = build_items(cats, tmp_path)
        result = abx.abx_evaluate(tokens, tmp_path, "within", "angular")
        assert result.error_rate == 50.0

    def test_kl_metric_on_posteriorgrams(self, tmp_path):
        # one-hot rows are valid probability frames, so KL applies directly
        rng = np.random.default_rng(13)
        cats = [("B", "A", "T", "s1", one_hot_tokens(0, 4, 3, rng)),
                ("P", "A", "T", "s1", one_hot_tokens(1, 4, 3, rng))]
        tokens = build_items(cats, tmp_path)
        result = abx.abx_evaluate(tokens, tmp_path, "within", "kl")
        assert result.error_rate == 0.0

    def test_across_mode_identical_is_fifty(self, tmp_path):
        frames = np.eye(4)[[1, 1]]
        cats = []
        for center in ("B", "P"):
            for speaker in ("s1", "s2"):
                cats.append((center, "A", "T", speaker,
                             [frames.copy() for _ in range(2)]))
        tokens = build_items(cats, tmp_path)
        result = abx.abx_evaluate(tokens, tmp_path, "across", "angular")
        assert result.error_rate == 50.0

    def _random_setup(self, tmp_path, rng, speakers=("s1", "s2")):
        cats = []
        for left, right in (("A", "T"), ("I", "K"), ("A", "K")):
            for center in ("B", "P", "D"):
                for speaker in speakers:
                    if rng.random() < 0.2:
                        continue  # leave some holes to exercise skipping
                    mats = [rng.standard_normal((int(rng.integers(2, 6)), 3))
                            for _ in range(int(rng.integers(2, 5)))]
                    cats.append((center, left, right, speaker, mats))
        return build_items(cats, tmp_path)

    @staticmethod
    def _flat_oracle(tokens, archive_dir, mode):
        """Independent re-aggregation from scratch."""
        cats = {}
        for t in tokens:
            fs = io_formats.read_feature_archive(archive_dir, t.file_id)
            lo = int(np.floor(t.onset * fs.frame_rate))
            hi = int(np.floor(t.offset * fs.frame_rate))
            cats.setdefault(
                ((t.left, t.right), t.center, t.speaker), []).append(
                    fs.frames[lo:hi])
        dist = lambda x, y: dtw_distance(x, y, "angular")
        contexts = sorted({c for c, _, _ in cats})
        centers = sorted({p for _, p, _ in cats})
        speakers = sorted({s for _, _, s in cats})
        pair_scores = {}
        for i, p1 in enumerate(centers):
            for p2 in centers[i + 1:]:
                context_scores = []
                for ctx in contexts:
                    cell_scores = []
                    if mode == "within":
                        for s in speakers:
                            a = cats.get((ctx, p1, s), [])
                            b = cats.get((ctx, p2, s), [])
                            if len(a) >= 2 and len(b) >= 2:
                                cell_scores.append(0.5 * (
                                    abx_oracle(a, b, dist)
                                    + abx_oracle(b, a, dist)))
                    else:
                        for s1 in speakers:
                            for s2 in speakers:
                                if s1 == s2:
                                    continue
                                a1 = cats.get((ctx, p1, s1), [])
                                b1 = cats.get((ctx, p2, s1), [])
                                x1 = cats.get((ctx, p1, s2), [])
                                x2 = cats.get((ctx, p2, s2), [])
                                if a1 and b1 and x1 and x2:
                                    cell_scores.append(0.5 * (
                                        abx_oracle(a1, b1, dist, x_tokens=x1)
                                        + abx_oracle(b1, a1, dist, x_tokens=x2)))
                    if cell_scores:
                        context_scores.append(sum(cell_scores) / len(cell_scores))
                if context_scores:
                    pair_scores[(p1, p2)] = sum(context_scores) / len(context_scores)
        return 100.0 * sum(pair_scores.values()) / len(pair_scores), pair_scores

    @pytest.mark.parametrize("mode", ["within", "across"])
    def test_matches_flat_aggregation_oracle(self, tmp_path, monkeypatch, mode):
        rng = np.random.default_rng(8)
        tokens = self._random_setup(tmp_path, rng)
        result = abx.abx_evaluate(tokens, tmp_path, mode, "angular")
        expected, pair_scores = self._flat_oracle(tokens, tmp_path, mode)
        assert result.error_rate == pytest.approx(expected, abs=1e-12)
        for (p1, p2), score in pair_scores.items():
            assert result.by_phone_pair[f"{p1}-{p2}"] == pytest.approx(
                100.0 * score, abs=1e-12)
        # a small budget scores every context in a group of its own
        monkeypatch.setattr(abx, "SCORE_COMPARISONS", 7)
        assert abx.abx_evaluate(tokens, tmp_path, mode, "angular") == result

    @pytest.mark.parametrize("chunk_cells", [64, distance.CHUNK_CELLS])
    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_batched_engine_equals_callable_path(self, tmp_path, monkeypatch,
                                                 metric, mode, chunk_cells):
        # probability frames of mixed lengths (1-7) within every context; a
        # small chunk budget splits each context's pairs over many kernel
        # calls; the engine equals the per-pair dtw_distance reference
        monkeypatch.setattr(distance, "CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(14)
        cats = []
        for left, right in (("A", "T"), ("I", "K")):
            for center in ("B", "P", "D"):
                for speaker in ("s1", "s2", "s3"):
                    mats = [rng.dirichlet(np.ones(3), size=int(rng.integers(1, 8)))
                            for _ in range(int(rng.integers(2, 5)))]
                    cats.append((center, left, right, speaker, mats))
        tokens = build_items(cats, tmp_path)
        batched = abx.abx_evaluate(tokens, tmp_path, mode, metric)
        with per_pair_abx(dtw_reference(metric)):
            called = abx.abx_evaluate(tokens, tmp_path, mode, metric)
        assert batched == called

    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_group_budget_invariance(self, tmp_path, monkeypatch, metric, mode):
        # one-hot frames of mixed lengths (1-6) tie often; a budget of one
        # comparison runs every context alone, a mid budget groups a few
        # contexts (140-288 comparisons each within, 453-864 across) and a
        # huge one takes them all in one DTW pass
        rng = np.random.default_rng(19)
        cats = []
        for left, right in (("A", "T"), ("A", "K"), ("I", "K"), ("I", "T"),
                            ("U", "P")):
            for center in ("B", "P", "D"):
                for speaker in ("s1", "s2", "s3"):
                    mats = [np.eye(4)[rng.integers(0, 4, size=int(rng.integers(1, 7)))]
                            for _ in range(int(rng.integers(2, 4)))]
                    cats.append((center, left, right, speaker, mats))
        tokens = build_items(cats, tmp_path)
        with per_pair_abx(dtw_reference(metric)):
            called = abx.abx_evaluate(tokens, tmp_path, mode, metric)
        passes = []
        dtw_pairs = abx.dtw_pairs

        def counting_pairs(*args, **kwargs):
            passes.append(1)
            return dtw_pairs(*args, **kwargs)

        monkeypatch.setattr(abx, "dtw_pairs", counting_pairs)
        counts = []
        for budget in (1, 800 if mode == "within" else 1500, 1 << 30):
            monkeypatch.setattr(abx, "SCORE_COMPARISONS", budget)
            passes.clear()
            assert abx.abx_evaluate(tokens, tmp_path, mode, metric) == called
            counts.append(len(passes))
        assert counts[0] == 5 and 1 < counts[1] < 5 and counts[2] == 1

    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_one_scoring_pass_per_group(self, tmp_path, monkeypatch, metric, mode):
        # a group's directed cells are scored in one _score_cells call, whose
        # products give both its requested pairs and its comparisons; a
        # budget of one comparison runs every context alone
        rng = np.random.default_rng(23)
        contexts = (("A", "T"), ("A", "K"), ("I", "K"), ("U", "P"))
        cats = [(center, left, right, speaker,
                 [np.eye(4)[rng.integers(0, 4, size=int(rng.integers(1, 6)))]
                  for _ in range(int(rng.integers(2, 4)))])
                for left, right in contexts for center in ("B", "P")
                for speaker in ("s1", "s2")]
        tokens = build_items(cats, tmp_path)
        with per_pair_abx(dtw_reference(metric)):
            want = abx.abx_evaluate(tokens, tmp_path, mode, metric)
        calls = []
        score_cells = abx._score_cells

        def counting_scores(frames, members, bounds, cells, metric):
            calls.append(cells[0].size)
            return score_cells(frames, members, bounds, cells, metric)

        monkeypatch.setattr(abx, "_score_cells", counting_scores)
        assert abx.abx_evaluate(tokens, tmp_path, mode, metric) == want
        assert calls == [2 * want.cell_count]
        calls.clear()
        monkeypatch.setattr(abx, "SCORE_COMPARISONS", 1)
        assert abx.abx_evaluate(tokens, tmp_path, mode, metric) == want
        assert len(calls) == len(contexts) and sum(calls) == 2 * want.cell_count

    def test_requests_are_the_compared_pairs(self, monkeypatch):
        # every (a, x) and (b, x) pair of a direction, never (x, x), each
        # once and in row-major order, over categories that split the tokens
        rng = np.random.default_rng(29)
        asked = record_pairs(monkeypatch)
        for _ in range(30):
            n = int(rng.integers(6, 14))
            cuts = np.sort(rng.choice(np.arange(1, n), 3, replace=False))
            categories = [c.tolist() for c in np.split(rng.permutation(n), cuts)]
            directions = []
            for _ in range(int(rng.integers(1, 5))):
                a, b, x = rng.choice(len(categories), 3, replace=False)
                same = bool(rng.integers(2)) and len(categories[a]) > 1
                x = a if same else x
                directions.append((categories[a], categories[b], categories[x], same))
            need = np.zeros((n, n), dtype=bool)
            for a, b, x, _ in directions:
                need[np.ix_(a, x)] = True
                need[np.ix_(b, x)] = True
            np.fill_diagonal(need, False)
            asked.clear()
            context_scores([np.ones((1, 1))] * n, directions)
            assert [(i, j) for i, j, _ in asked] == list(zip(*map(np.ndarray.tolist,
                                                                 np.nonzero(need))))

    @pytest.mark.parametrize("mode", ["within", "across"])
    def test_kernel_runs_each_unordered_angular_pair_once(self, tmp_path,
                                                         monkeypatch, mode):
        # every requested (token, probe) pair is also requested the other way
        # round; angular runs the two as one kernel pair with the mirrored
        # step count, kl and the per-pair reference run each direction
        # alone, unmirrored
        rng = np.random.default_rng(17)
        cats = [(center, "A", "T", speaker,
                 [np.eye(4)[rng.integers(0, 4, size=int(rng.integers(1, 6)))]
                  for _ in range(int(rng.integers(2, 4)))])
                for center in ("B", "P", "D") for speaker in ("s1", "s2")]
        tokens = build_items(cats, tmp_path)
        runs = []
        kernel = distance._kernel.dtw_accumulate

        def counting_kernel(cost, t_len, s_len, mirror=False):
            runs.append((cost.shape[2], mirror))
            return kernel(cost, t_len, s_len, mirror=mirror)

        monkeypatch.setattr(distance._kernel, "dtw_accumulate", counting_kernel)
        patterns = []
        for metric, reference in (("angular", False), ("kl", False), ("kl", True)):
            runs.clear()
            with per_pair_abx(dtw_reference(metric)) if reference else nullcontext(), \
                    pytest.MonkeyPatch.context() as patch:
                asked = record_pairs(patch)
                abx.abx_evaluate(tokens, tmp_path, mode, metric)
            directed = {(i, j) for i, j, _ in asked}
            unordered = {(min(i, j), max(i, j)) for i, j in directed}
            assert len(directed) == len(asked) and 2 * len(unordered) == len(directed)
            mirrored = metric == "angular"
            assert sum(b for b, _ in runs) == len(unordered if mirrored else directed)
            assert {m for _, m in runs} == {mirrored}
            patterns.append([(i, j) for i, j, _ in asked])
        assert patterns[1:] == patterns[:1] * 2

    def test_no_cells_is_error(self, tmp_path):
        rng = np.random.default_rng(10)
        # single category: no contrasting center phone anywhere
        cats = [("B", "A", "T", "s1",
                 [rng.standard_normal((3, 2)) for _ in range(3)])]
        tokens = build_items(cats, tmp_path)
        with pytest.raises(ValidationError, match="no valid ABX cells"):
            abx.abx_evaluate(tokens, tmp_path, "within", "angular")

    def test_missing_utterance_names_token(self, tmp_path):
        rng = np.random.default_rng(11)
        tokens = self._random_setup(tmp_path, rng)
        tokens.append(TriphoneToken("ghost", 0.0, 0.1, "B", "A", "T", "s1"))
        with pytest.raises(ValidationError, match="ghost"):
            abx.abx_evaluate(tokens, tmp_path, "within", "angular")

    @pytest.mark.parametrize("context", [("A", "T"), ("I", "K")])
    def test_mixed_frame_dimensions_name_both_tokens(self, tmp_path, context):
        # 5-dim tokens after 4-dim ones, in the same context or in a context
        # of their own whose cells would otherwise score on their own
        rng = np.random.default_rng(15)
        five = [np.eye(5)[[0, 0]], np.eye(5)[[1, 1]]]
        cats = [("B", "A", "T", "s1", one_hot_tokens(0, 4, 3, rng)),
                ("P", "A", "T", "s1", one_hot_tokens(1, 4, 3, rng)),
                ("B", *context, "s1", five), ("P", *context, "s1", five)]
        tokens = build_items(cats, tmp_path)
        for metric in ("angular", "kl"):
            with pytest.raises(ValidationError,
                               match=r"token \(f006, 0\.0, 0\.02\): frame dimension "
                                     r"5 differs from 4 in token \(f000, 0\.0, "):
                abx.abx_evaluate(tokens, tmp_path, "within", metric)

    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_bad_frame_names_first_token_in_item_order(self, tmp_path,
                                                       monkeypatch, metric):
        # tokens share two utterances; the first bad token of the item file
        # is in context (I, K), which sorts after (A, T) and so lands in a
        # later group than the other bad token; an all-zero frame that no
        # token covers is never read
        frames = np.eye(4)[np.arange(20) % 2]
        u0, u1 = frames.copy(), frames.copy()
        u1[4] = 0.0        # in context (I, K)'s second token
        u0[[9, 17]] = 0.0  # in no token / in context (A, T)'s last token
        write_archive(tmp_path, {"u0": u0, "u1": u1})
        tokens, bad = [], []
        for utt, left, right in (("u1", "I", "K"), ("u0", "A", "T")):
            for k, start in enumerate((0, 3, 6, 10, 13, 16)):
                tokens.append(TriphoneToken(
                    utt, (start + 0.5) / 100, (start + 3.5) / 100,
                    "BP"[k // 3], left, right, "s1"))
            bad.append(tokens[1] if utt == "u1" else tokens[-1])
        assert len(bad) == 2 and tokens.index(bad[0]) < tokens.index(bad[1])
        first = bad[0]
        for budget in (1, abx.SCORE_COMPARISONS):
            monkeypatch.setattr(abx, "SCORE_COMPARISONS", budget)
            with pytest.raises(ValidationError, match=re.escape(
                    f"token ({first.file_id}, {first.onset}, {first.offset}): ")):
                abx.abx_evaluate(tokens, tmp_path, "within", metric)
        kept = [t for t in tokens if t not in bad]
        assert abx.abx_evaluate(kept, tmp_path, "within", metric).cell_count == 2

    def test_run_facts_count_dropped_clamped_and_skipped(self, tmp_path):
        rng = np.random.default_rng(21)
        cats = [("B", "A", "T", "s1", one_hot_tokens(0, 4, 3, rng)),
                ("P", "A", "T", "s1", one_hot_tokens(1, 4, 3, rng)),
                ("B", "A", "T", "s2", one_hot_tokens(0, 4, 1, rng)),
                ("P", "A", "T", "s2", one_hot_tokens(1, 4, 3, rng))]
        tokens = build_items(cats, tmp_path)
        # an empty slice is dropped; an offset past the end is clamped
        tokens.append(TriphoneToken("f000", 0.001, 0.002, "B", "A", "T", "s1"))
        tokens.append(TriphoneToken("f001", 0.0, 9.0, "B", "A", "T", "s1"))
        within = abx.abx_evaluate(tokens, tmp_path, "within", "angular")
        assert (within.dropped_tokens, within.clamped_tokens,
                within.skipped_cells, within.cell_count) == (1, 1, 1, 1)
        across = abx.abx_evaluate(tokens, tmp_path, "across", "angular")
        assert (across.dropped_tokens, across.clamped_tokens,
                across.skipped_cells, across.cell_count) == (1, 1, 0, 2)

    def test_empty_extraction_drops_token(self, tmp_path, caplog):
        rng = np.random.default_rng(12)
        cats = [("B", "A", "T", "s1", one_hot_tokens(0, 4, 3, rng)),
                ("P", "A", "T", "s1", one_hot_tokens(1, 4, 3, rng))]
        tokens = build_items(cats, tmp_path)
        # sub-frame token rounds to an empty slice and is dropped
        tokens.append(TriphoneToken("f000", 0.001, 0.002, "B", "A", "T", "s1"))
        with caplog.at_level("WARNING", logger="zrc_eval.abx"):
            result = abx.abx_evaluate(tokens, tmp_path, "within", "angular")
        assert result.error_rate == 0.0
        assert any("dropping token" in r.message for r in caplog.records)

    def test_frame_extraction_uses_floor(self, tmp_path):
        # every row a direction of its own
        frames = np.column_stack([np.arange(10) + 1.0, np.ones(10)])
        io_formats.write_feature_archive(
            tmp_path, FeatureSequence("u", 100.0, frames), "text")
        token = TriphoneToken("u", 0.019, 0.051, "B", "A", "T", "s1")
        kept, store, dropped, clamped = abx._extract(
            [token], ("u",), (token.onset,), (token.offset,), tmp_path, "angular")
        # floor(0.019*100)=1, floor(0.051*100)=5, exclusive
        (offset,), (length,) = store.offsets.tolist(), store.lengths.tolist()
        for part, want in zip(store.parts,
                              distance.prepare([frames[1:5]], "angular").parts):
            assert np.array_equal(part[offset:offset + length], want)
        assert (kept.tolist(), dropped, clamped) == ([0], 0, 0)


# ---------------------------------------------------------------------------
# the array bookkeeping against the token-by-token, context-by-context
# reference (conftest.abx_reference)
# ---------------------------------------------------------------------------

def random_items(root, rng, contexts):
    """A shuffled item set over ``contexts`` contexts: 1-4 phones each,
    speakers s1-s3 with some categories left out, 1-4 tokens of 1-5 frames
    per category, all laid back to back in two utterances per speaker;
    plus dropped (sub-frame) and clamped (offset past the end) tokens.
    Frames are one-hot (tie-heavy) or drawn from a Dirichlet."""
    rows = []
    for c in range(contexts):
        for phone in rng.choice(["B", "P", "D", "G"], int(rng.integers(1, 5)),
                                replace=False):
            for speaker in ("s1", "s2", "s3"):
                if rng.random() < 0.25:
                    continue
                rows += [(str(phone), f"L{c}", f"R{c % 2}", speaker,
                          int(rng.integers(1, 6)))] * int(rng.integers(1, 5))
    lengths: dict = {}
    tokens = []
    for k in rng.permutation(len(rows)).tolist():
        center, left, right, speaker, n = rows[k]
        utt = f"{speaker}_{k % 2}"
        start = lengths.get(utt, 0)
        lengths[utt] = start + n
        tokens.append(TriphoneToken(utt, (start + 0.5) / 100, (start + n + 0.5) / 100,
                                    center, left, right, speaker))
    for k in range(4):
        t = tokens[int(rng.integers(len(tokens)))]
        end = lengths[t.file_id]
        span = ((end - 1 + 0.1) / 100, (end - 1 + 0.3) / 100) if k % 2 else \
               ((end - 2 + 0.5) / 100, (end + 3.5) / 100)
        tokens.insert(int(rng.integers(len(tokens) + 1)),
                      TriphoneToken(t.file_id, *span, t.center, t.left, t.right,
                                    t.speaker))
    one_hot = rng.random() < 0.5
    write_archive(root, {
        utt: np.eye(4)[rng.integers(0, 4, n)] if one_hot
        else rng.dirichlet(np.ones(4), n) for utt, n in lengths.items()})
    return tokens


def outcome(caplog, run):
    """``run()``'s result, or its error's type and text, and the log
    records it left, as (level, text)."""
    caplog.clear()
    try:
        value = run()
    except Exception as exc:  # compared, not handled
        value = (type(exc), str(exc))
    return value, [(r.levelname, r.getMessage()) for r in caplog.records]


class TestArrayBookkeeping:
    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_engine_equals_context_reference(self, tmp_path, caplog, monkeypatch,
                                             metric, mode):
        # one context or many; uneven categories, skipped within cells,
        # contexts without cells, dropped and clamped tokens; whatever the
        # group budget, the same result, logs and counts
        rng = np.random.default_rng(41)
        caplog.set_level("INFO")
        scored = 0
        for trial in range(10):
            root = tmp_path / f"t{trial}"
            tokens = random_items(root, rng, 1 if trial % 3 == 0 else 6)
            want = outcome(caplog, lambda: abx_reference(tokens, root, mode, metric))
            if isinstance(want[0], abx.AbxResult):
                assert (want[0].dropped_tokens, want[0].clamped_tokens) == (2, 2)
                scored += 1
            for budget in (abx.SCORE_COMPARISONS, 40):
                monkeypatch.setattr(abx, "SCORE_COMPARISONS", budget)
                assert outcome(caplog, lambda: abx.abx_evaluate(
                    tokens, root, mode, metric)) == want
        assert scored >= 7  # the rest have no valid cell

    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_first_failing_token_wins(self, tmp_path, caplog, metric):
        # faults at random places in the item order: a missing utterance, a
        # wider utterance, a frame the metric rejects, an unreadable file,
        # an empty token; the error, its text and the dropped-token lines
        # before it are the reference's
        rng = np.random.default_rng(43)
        caplog.set_level("INFO")
        kinds = set()
        for trial in range(40):
            root = tmp_path / f"t{trial}"
            tokens = random_items(root, rng, 3)
            for k, fault in enumerate(rng.choice(
                    ["ghost", "wide", "bad", "unreadable", "empty"], 3).tolist()):
                t = tokens[int(rng.integers(len(tokens)))]
                utt, span = f"{fault}{k}", (0.005, 0.035)
                if fault == "wide":
                    write_archive(root, {utt: np.eye(5)[[0, 1, 2, 3]]})
                elif fault == "bad":  # its second frame is all zeros
                    write_archive(root, {utt: np.diag([1.0, 0.0, 1.0, 1.0])})
                elif fault == "unreadable":
                    (root / f"{utt}.txt").write_text("dim=4 rate=100\n1 0 0\n")
                elif fault == "empty":
                    utt, span = t.file_id, (0.0011, 0.0013)
                tokens.insert(int(rng.integers(len(tokens) + 1)),
                              TriphoneToken(utt, *span, t.center, t.left, t.right,
                                            t.speaker))
            want = outcome(caplog, lambda: abx_reference(tokens, root, "within",
                                                         metric))
            assert outcome(caplog, lambda: abx.abx_evaluate(
                tokens, root, "within", metric)) == want
            if isinstance(want[0], tuple):
                kinds.add(want[0][1].split(": ")[-1][:12])
        assert len(kinds) == 4  # every fault but the empty token is an error

    @pytest.mark.parametrize("order, message", [
        # a rejected frame before an unreadable utterance's first token wins
        (("drop", "bad", "junk", "ghost"),
         "token (bad, 0.0, 0.03): angular distance undefined for zero-norm frames"),
        # the unreadable utterance is met first: its own error
        (("drop", "junk", "bad", "ghost"), "line 2: expected 2 values, got 1"),
        (("ghost", "bad", "junk"), "token (ghost, 0.0, 0.02): no feature file for "),
        # a wider utterance's kept token before the bad frame
        (("wide", "bad"), "token (bad, 0.0, 0.03): frame dimension 2 differs from "
                          "3 in token (wide, 0.0, 0.02)"),
        # an empty token is dropped, however wide or bad its utterance
        (("empty-bad", "empty-wide"), None),
        # a body that fails its read, whose header was read: the second
        # utterance's, its own error; after a bad frame's token, that token
        (("drop", "short", "bad"), "short.zrcf: truncated body, expected 16 bytes, "
                                   "got 12"),
        (("drop", "bad", "short"), "token (bad, 0.0, 0.03): angular distance "
                                   "undefined for zero-norm frames"),
    ])
    def test_error_precedence(self, tmp_path, caplog, order, message):
        write_archive(tmp_path, {"good": np.eye(2)[[0, 1, 0, 1]],
                                 "bad": np.eye(2)[[0, 1, 0]] * [[1], [0], [1]],
                                 "wide": np.eye(3)[[0, 1]], "short": np.eye(2)})
        (tmp_path / "junk.txt").write_text("dim=2 rate=100\n1\n")
        short = tmp_path / "short.zrcf"
        short.write_bytes(short.read_bytes()[:-4])
        tokens = {"drop": ("good", 0.001, 0.002), "bad": ("bad", 0.0, 0.03),
                  "junk": ("junk", 0.0, 0.01), "ghost": ("ghost", 0.0, 0.02),
                  "wide": ("wide", 0.0, 0.02), "empty-bad": ("bad", 0.011, 0.012),
                  "empty-wide": ("wide", 0.001, 0.002), "short": ("short", 0.0, 0.02)}
        items = [TriphoneToken(*tokens[name], "B", "A", "T", "s1") for name in order]
        items += [TriphoneToken("good", 0.0, 0.02, "P", "A", "T", "s1")]
        caplog.set_level("INFO")
        want = outcome(caplog, lambda: abx_reference(items, tmp_path, "within"))
        got = outcome(caplog, lambda: abx.abx_evaluate(items, tmp_path, "within"))
        assert got == want
        if message is None:
            assert got[0] == (ValidationError, "no valid ABX cells in within mode")
        else:
            assert message in got[0][1]
        assert [text.split(" ")[2] for _, text in got[1]] == \
            ["(good," if n == "drop" else f"({tokens[n][0]},"
             for n in order if n in ("drop", "empty-bad", "empty-wide")]

    def test_time_past_the_frame_index_names_the_token(self, tmp_path):
        # floor(time * rate) has no finite value: an error naming the token,
        # and its item-file line once the token is read from one, not an
        # OverflowError
        (tmp_path / "u1.txt").write_text("dim=2 rate=1e308\n1 0\n0 1\n")
        write_archive(tmp_path, {"u2": np.eye(2)[[0, 1, 0, 1]]})
        tokens = [TriphoneToken("u2", 0.0, 0.02, "B", "A", "T", "s1"),
                  TriphoneToken("u1", 10.0, 10.5, "P", "A", "T", "s1")]
        message = "token (u1, 10.0, 10.5): no finite frame index at frame rate 1e+308"
        with pytest.raises(ValidationError) as info:
            abx.abx_evaluate(tokens, tmp_path, "within", "kl")
        assert str(info.value) == message
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        with pytest.raises(ValidationError) as info:
            abx.abx_evaluate(io_formats.read_item_file(items), tmp_path, "within", "kl")
        assert str(info.value) == f"{items}: line 3: {message}"


# ---------------------------------------------------------------------------
# one store over the utterances: overlapping triphone tokens share its rows
# ---------------------------------------------------------------------------

def triphone_items(root, rng):
    """Triphone tokens as in LibriSpeech item files: each utterance is a
    run of phones of 1-3 frames, context phones (A, I) alternating with
    centre phones (B, P, D), and every centre phone is one token spanning
    its two neighbours too, so neighbouring tokens share a context
    phone's frames. Three speakers, three utterances each; frames are
    one-hot (tie-heavy) or drawn from a Dirichlet."""
    one_hot = rng.random() < 0.5
    utterances, tokens = {}, []
    for speaker in ("s1", "s2", "s3"):
        for u in range(3):
            utt = f"{speaker}_{u}"
            phones = [str(rng.choice(["A", "I"] if k % 2 == 0 else ["B", "P", "D"]))
                      for k in range(int(rng.integers(11, 20)) | 1)]
            ends = np.cumsum(rng.integers(1, 4, len(phones)))
            for k in range(1, len(phones) - 1, 2):
                tokens.append(TriphoneToken(
                    utt, (ends[k - 2] if k > 1 else 0) / 100, ends[k + 1] / 100,
                    phones[k], phones[k - 1], phones[k + 1], speaker))
            utterances[utt] = np.eye(4)[rng.integers(0, 4, ends[-1])] if one_hot \
                else rng.dirichlet(np.ones(4), ends[-1])
    write_archive(root, utterances)
    order = rng.permutation(len(tokens)).tolist()
    return [tokens[k] for k in order], utterances


class TestUtteranceStore:
    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_overlapping_tokens_equal_context_reference(self, tmp_path, caplog,
                                                        monkeypatch, metric, mode):
        # the engine prepares each utterance's frames once, however many
        # tokens share them; results and logs are the reference's, which
        # copies every token's frames into a store per context
        rng = np.random.default_rng(47)
        caplog.set_level("INFO")
        prepared = []
        prepare_into = abx.prepare_into

        def counting_prepare(parts, at, frames, metric):
            prepared.append(len(frames))
            prepare_into(parts, at, frames, metric)

        monkeypatch.setattr(abx, "prepare_into", counting_prepare)
        for trial in range(5):
            root = tmp_path / f"t{trial}"
            tokens, utterances = triphone_items(root, rng)
            covered = sum(round(100 * (t.offset - t.onset)) for t in tokens)
            assert covered > sum(map(len, utterances.values()))  # overlapping
            want = outcome(caplog, lambda: abx_reference(tokens, root, mode, metric))
            assert isinstance(want[0], abx.AbxResult)
            for budget in (abx.SCORE_COMPARISONS, 40):
                monkeypatch.setattr(abx, "SCORE_COMPARISONS", budget)
                prepared.clear()
                assert outcome(caplog, lambda: abx.abx_evaluate(
                    tokens, root, mode, metric)) == want
                # each utterance's frames once, in order of first use
                assert prepared == [len(utterances[u]) for u in
                                    dict.fromkeys(t.file_id for t in tokens)]

    @pytest.mark.parametrize("metric, bad", [("angular", [0.0, 0.0, 0.0, 0.0]),
                                             ("kl", [1e308, 0.0, 0.0, 0.0])])
    def test_rejected_frame_outside_every_token_is_never_read(self, tmp_path, caplog,
                                                              metric, bad):
        # a frame the metric rejects, in a stored utterance but in no token:
        # no error and no warning (a RuntimeWarning fails the run), and the
        # reference's result; text archives, which hold any finite value
        rng = np.random.default_rng(53)
        caplog.set_level("INFO")
        tokens, utterances = triphone_items(tmp_path, rng)
        for utt, frames in utterances.items():
            (tmp_path / f"{utt}.zrcf").unlink()
            io_formats.write_feature_archive(tmp_path, FeatureSequence(
                utt, 100.0, np.vstack([frames, bad, frames[-1:]])), "text")
        want = outcome(caplog, lambda: abx_reference(tokens, tmp_path, "within",
                                                     metric))
        assert isinstance(want[0], abx.AbxResult)
        assert outcome(caplog, lambda: abx.abx_evaluate(
            tokens, tmp_path, "within", metric)) == want

    def test_a_body_unlike_its_header_is_an_error_naming_the_file(self, tmp_path,
                                                                   monkeypatch):
        # the store is sized from the headers; a body read that disagrees
        # (the file changed in between) is an error, never a misplaced row
        rng = np.random.default_rng(59)
        tokens, utterances = triphone_items(tmp_path, rng)
        victim = tokens[0].file_id
        header = io_formats.feature_header

        def stale(path, utt_id):
            frames, dim, rate = header(path, utt_id)
            return (frames + (utt_id == victim), dim, rate)

        monkeypatch.setattr(io_formats, "feature_header", stale)
        t = len(utterances[victim])
        with pytest.raises(FormatError) as info:
            abx.abx_evaluate(tokens, tmp_path, "within", "kl")
        assert str(info.value) == (f"{tmp_path / victim}.zrcf: {t} x 4 frames at rate "
                                   f"100.0, but {t + 1} x 4 at rate 100.0 when its "
                                   "header was read")

    def test_peak_memory_is_the_store_and_one_utterance(self, tmp_path):
        # 1,200 tokens of 256-dim frames, 20 contexts x 10 speakers x 3
        # phones x 2 tokens, each speaker's context one utterance of six
        # back-to-back tokens of 5-15 frames: a store of about 12,000 rows.
        # The traced peak of a within run may pass the store's bytes only
        # by one utterance, read and widened (4 + 8 bytes a value), and by
        # a constant in 8-byte elements:
        #   5 RUN_ELEMENTS: a prepare block's |f| and squares (2), one
        #     cost call's gathered frames and product, and its chord^2
        #     and dot buffers (3);
        #   5 CHUNK_CELLS: a chunk's cost tensor (1) and the kernel's
        #     sums, whose border at most quadruples the cells (4);
        #   16 SCORE_COMPARISONS: a group's comparisons and its requested
        #     pairs (at most twice as many), as a few index and distance
        #     arrays each.
        # Every full-size copy of the frames beside the store (the frames
        # of every utterance, their concatenation, |f| or the squared
        # norms of all of them) breaks the bound by a store's size.
        rng = np.random.default_rng(61)
        dim, tokens, lengths = 256, [], []
        for c in range(20):
            for s in range(10):
                spans = np.cumsum(rng.integers(5, 16, 6)).tolist()
                utt = f"u{c}_{s}"
                lengths.append(spans[-1])
                write_archive(tmp_path, {utt: rng.standard_normal((spans[-1], dim))})
                for k, (a, b) in enumerate(zip([0] + spans[:-1], spans)):
                    tokens.append(TriphoneToken(utt, (a + 0.5) / 100, (b + 0.5) / 100,
                                                "BPD"[k // 2], f"L{c}", "R", f"s{s}"))
        store = sum(lengths) * (dim + 1) * 8
        utterance = max(lengths) * dim * 12
        constant = 8 * (5 * distance.RUN_ELEMENTS + 5 * distance.CHUNK_CELLS
                        + 16 * abx.SCORE_COMPARISONS)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            abx.abx_evaluate(tokens, tmp_path, "within", "angular")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert store <= peak <= store + utterance + constant
