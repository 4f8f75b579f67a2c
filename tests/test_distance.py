"""Framewise distances and DTW against an exhaustive path oracle."""

import math

import numpy as np
import pytest

from conftest import angular_frame_distance, dtw_oracle, kl_frame_distance
from zrc_eval import _dtw_py, distance
from zrc_eval.errors import ValidationError
from zrc_eval.types import FeatureSequence


def dtw_scalar(cost):
    """``(path_sum, path_length)`` of the min-sum DTW, one cell at a time.

    The reference for the batched kernel: same recursion, same additions
    and the same strict ``<`` tie order (diagonal, vertical, horizontal).
    """
    t, s = cost.shape
    acc = {(-1, -1): (0.0, 0)}
    for i in range(t):
        for j in range(s):
            best = acc.get((i - 1, j - 1), (math.inf, 0))
            for prev in ((i - 1, j), (i, j - 1)):
                if acc.get(prev, (math.inf, 0))[0] < best[0]:
                    best = acc[prev]
            acc[i, j] = (best[0] + cost[i, j], best[1] + 1)
    return acc[t - 1, s - 1]


class TestAngular:
    def test_identical_direction(self):
        assert angular_frame_distance([1, 0], [1, 0]) == 0.0

    def test_orthogonal(self):
        assert angular_frame_distance([1, 0], [0, 1]) == pytest.approx(
            math.pi / 2, abs=1e-15)

    def test_opposite_scale_invariant(self):
        assert angular_frame_distance([2, 0], [-1, 0]) == pytest.approx(
            math.pi, abs=1e-15)

    def test_zero_norm_is_error(self):
        with pytest.raises(ValueError, match="zero-norm"):
            angular_frame_distance([0, 0], [1, 0])

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            d = angular_frame_distance(x, y)
            assert 0.0 <= d <= math.pi


class TestKl:
    def test_self_distance_zero(self):
        p = [0.2, 0.3, 0.5]
        assert kl_frame_distance(p, p) == 0.0

    def test_direct_summation(self):
        # oracle: 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_frame_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            expected, abs=1e-15)
        assert expected == pytest.approx(0.14384, abs=5e-6)

    def test_flooring_near_log2(self):
        eps = distance.KL_EPS
        expected = 1.0 * math.log(1.0 / 0.5) + eps * math.log(eps / 0.5)
        got = kl_frame_distance([1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(math.log(2.0), abs=1e-8)

    def test_non_probability_is_error(self):
        with pytest.raises(ValueError, match="probability"):
            kl_frame_distance([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="probability"):
            kl_frame_distance([-0.1, 1.1], [0.5, 0.5])

    def test_non_negative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_frame_distance(p, q) >= 0.0


class TestDtw:
    def test_identical_sequences_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(1, 7)), 3))
            assert distance.dtw_distance(x, x, "angular") == 0.0

    def test_forced_elbow_path(self):
        # single frame vs two orthogonal frames: path (1,1),(1,2)
        rx = np.array([[1.0, 0.0]])
        ry = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert distance.dtw_distance(rx, ry, "angular") == pytest.approx(
            math.pi / 4, abs=1e-15)

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t, s, d = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 5)
            rx = rng.standard_normal((t, d))
            ry = rng.standard_normal((s, d))
            cost = distance.frame_cost_matrix(rx, ry, "angular")
            assert distance.dtw_distance(rx, ry, "angular") == pytest.approx(
                dtw_oracle(cost), abs=1e-12)

    def test_matches_oracle_with_ties(self):
        # one-hot frames force exact distance ties along competing paths
        rng = np.random.default_rng(7)
        eye = np.eye(3)
        for _ in range(200):
            rx = eye[rng.integers(0, 3, size=rng.integers(1, 7))]
            ry = eye[rng.integers(0, 3, size=rng.integers(1, 7))]
            cost = distance.frame_cost_matrix(rx, ry, "angular")
            assert distance.dtw_distance(rx, ry, "angular") == dtw_oracle(cost)
        # integer costs in {0, 1, 2} make all three predecessors tie
        for _ in range(200):
            cost = rng.integers(0, 3, size=(int(rng.integers(1, 7)),
                                            int(rng.integers(1, 7)))).astype(float)
            t, s = cost.shape
            total, length = _dtw_py.dtw_accumulate(cost[:, :, None], [t], [s])
            assert total[0] / length[0] == dtw_oracle(cost)

    def test_padded_batch_matches_oracle_and_single_runs(self):
        # mixed shapes 1-12 (every 1 x N and N x 1 among them) padded into one
        # tensor larger than every pair in both dimensions, so no pair's
        # corner is the tensor's; half are {0, 1, 2} integer costs whose ties
        # exercise the predecessor order
        rng = np.random.default_rng(11)
        shapes = [(1, n) for n in range(1, 13)] + [(n, 1) for n in range(2, 13)]
        shapes += [(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
                   for _ in range(400)]
        costs = []
        for k, shape in enumerate(shapes):
            if k % 2:
                costs.append(rng.integers(0, 3, size=shape).astype(float))
            else:
                costs.append(rng.uniform(0.0, 2.0, size=shape))
        t_len = [c.shape[0] for c in costs]
        s_len = [c.shape[1] for c in costs]
        padded = np.full((max(t_len) + 2, max(s_len) + 3, len(costs)), 9.0)
        for b, c in enumerate(costs):
            padded[:c.shape[0], :c.shape[1], b] = c
        total, length = _dtw_py.dtw_accumulate(padded, t_len, s_len)
        for b, c in enumerate(costs):
            alone_total, alone_length = _dtw_py.dtw_accumulate(
                c[:, :, None], [c.shape[0]], [c.shape[1]])
            assert total[b] == alone_total[0] and length[b] == alone_length[0]
            assert (total[b], length[b]) == dtw_scalar(c)
            if min(c.shape) <= 2 or max(c.shape) <= 7:
                assert total[b] / length[b] == dtw_oracle(c)

    def test_pairs_driver_matches_dtw_distance(self, monkeypatch):
        # 32 sequences over four lengths, 1 among them: every shape's run
        # holds dozens of pairs; at D=129 the default element budget splits
        # the longer runs, and the small budgets force many chunks, pairs
        # alone in a chunk and one-pair cost calls
        rng = np.random.default_rng(12)
        lengths = rng.permutation(np.repeat([1, 2, 7, 8], 8))
        rows, cols = np.nonzero(~np.eye(len(lengths), dtype=bool))
        for budgets in ((distance.CHUNK_CELLS, distance.RUN_ELEMENTS), (40, 1000)):
            monkeypatch.setattr(distance, "CHUNK_CELLS", budgets[0])
            monkeypatch.setattr(distance, "RUN_ELEMENTS", budgets[1])
            for metric, dim in (("angular", 1), ("angular", 64),
                                ("angular", 129), ("kl", 50)):
                if metric == "kl":  # one-hot units, floored by prepare
                    seqs = [np.eye(dim)[rng.integers(0, dim, size=n)]
                            for n in lengths]
                else:
                    seqs = [rng.standard_normal((n, dim)) for n in lengths]
                prepared = distance.prepare(seqs, metric)
                got = distance.dtw_pairs(prepared, rows, cols, metric)
                for k, (i, j) in enumerate(zip(rows, cols)):
                    assert got[k] == distance.dtw_distance(seqs[i], seqs[j], metric)

    def test_mirrored_length_is_the_transposes(self):
        # {0, 1, 2} integer costs tie often enough that the transpose's path
        # has another length in 16 of these 600 matrices; only a second step
        # count carried with the order diagonal, horizontal, vertical gives it
        rng = np.random.default_rng(15)
        costs = [rng.integers(0, 3, size=(int(rng.integers(1, 9)),
                                          int(rng.integers(1, 9)))).astype(float)
                 for _ in range(600)]
        t_len = [c.shape[0] for c in costs]
        s_len = [c.shape[1] for c in costs]
        padded = np.full((10, 11, len(costs)), 9.0)
        for b, c in enumerate(costs):
            padded[:c.shape[0], :c.shape[1], b] = c
        total, length, mirrored = _dtw_py.dtw_accumulate(
            padded, t_len, s_len, mirror=True)
        forward = _dtw_py.dtw_accumulate(padded, t_len, s_len)
        assert len(forward) == 2
        assert (total == forward[0]).all() and (length == forward[1]).all()
        for b, c in enumerate(costs):
            assert (total[b], mirrored[b]) == dtw_scalar(c.T)
        assert (mirrored != length).sum() >= 10

    def test_nan_padding_is_never_read(self):
        # the forward pass and both walks read only each pair's own cells
        # and the border: NaN padding gives the results of finite padding
        rng = np.random.default_rng(17)
        costs = [rng.integers(0, 3, size=(int(rng.integers(1, 9)),
                                          int(rng.integers(1, 9)))).astype(float)
                 for _ in range(200)]
        t_len = [c.shape[0] for c in costs]
        s_len = [c.shape[1] for c in costs]
        stacks = []
        for fill in (np.nan, 9.0):
            padded = np.full((9, 10, len(costs)), fill)
            for b, c in enumerate(costs):
                padded[:c.shape[0], :c.shape[1], b] = c
            stacks.append(padded)
        for mirror in (False, True):
            with_nan, with_nine = (_dtw_py.dtw_accumulate(p, t_len, s_len, mirror=mirror)
                                   for p in stacks)
            assert len(with_nan) == len(with_nine) == 2 + mirror
            for got, expected in zip(with_nan, with_nine):
                assert (got == expected).all()

    def test_one_by_one_pairs_walk_no_steps(self):
        cost = np.array([[[0.5, 0.0, 2.0]]])
        total, length, mirrored = _dtw_py.dtw_accumulate(
            cost, [1, 1, 1], [1, 1, 1], mirror=True)
        assert total.tolist() == [0.5, 0.0, 2.0]
        assert length.tolist() == mirrored.tolist() == [1, 1, 1]

    def test_single_row_and_column_pairs_mirror(self):
        # 1 x N and N x 1 pairs have one path each, walked straight back
        # along their one row or column; the mirrored length is the
        # transpose's
        rng = np.random.default_rng(18)
        costs = [rng.integers(0, 3, size=shape).astype(float)
                 for n in range(1, 10) for shape in ((1, n), (n, 1))]
        padded = np.full((9, 9, len(costs)), 9.0)
        for b, c in enumerate(costs):
            padded[:c.shape[0], :c.shape[1], b] = c
        total, length, mirrored = _dtw_py.dtw_accumulate(
            padded, [c.shape[0] for c in costs], [c.shape[1] for c in costs],
            mirror=True)
        for b, c in enumerate(costs):
            assert (total[b], length[b]) == dtw_scalar(c)
            assert (total[b], mirrored[b]) == dtw_scalar(c.T)
            assert length[b] == mirrored[b] == max(c.shape)

    def test_pairs_driver_mirror_matches_dtw_distance_both_ways(self, monkeypatch):
        # one-hot frames make the angular costs 0 or pi/2, so alignments tie,
        # and the two directions of 12 of these pairs differ in path length;
        # every ordered pair is asked for, the longer or the shorter first,
        # and the kernel runs each unordered pair once, mirrored
        rng = np.random.default_rng(16)
        lengths = rng.permutation(np.repeat([2, 4, 6, 9], 8))
        rows, cols = np.nonzero(~np.eye(len(lengths), dtype=bool))
        kernel, runs = distance._kernel.dtw_accumulate, []

        def counting_kernel(cost, t_len, s_len, mirror=False):
            runs.append((cost.shape[2], mirror))
            return kernel(cost, t_len, s_len, mirror=mirror)

        monkeypatch.setattr(distance._kernel, "dtw_accumulate", counting_kernel)
        for budgets in ((distance.CHUNK_CELLS, distance.RUN_ELEMENTS), (40, 1000)):
            monkeypatch.setattr(distance, "CHUNK_CELLS", budgets[0])
            monkeypatch.setattr(distance, "RUN_ELEMENTS", budgets[1])
            for seqs in ([np.eye(3)[rng.integers(0, 3, size=n)] for n in lengths],
                         [rng.standard_normal((n, 64)) for n in lengths]):
                prepared = distance.prepare(seqs, "angular")
                runs.clear()
                got = distance.dtw_pairs(prepared, rows, cols, "angular")
                assert sum(b for b, _ in runs) == rows.size // 2
                assert {m for _, m in runs} == {True}
                back = distance.dtw_pairs(prepared, cols, rows, "angular")
                for k, (i, j) in enumerate(zip(rows, cols)):
                    assert got[k] == distance.dtw_distance(seqs[i], seqs[j])
                    assert back[k] == distance.dtw_distance(seqs[j], seqs[i])
                if seqs[0].shape[1] == 3:
                    assert (got != back).sum() >= 10

    def test_symmetry_angular(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rx = rng.standard_normal((int(rng.integers(1, 7)), 3))
            ry = rng.standard_normal((int(rng.integers(1, 7)), 3))
            assert distance.dtw_distance(rx, ry, "angular") == pytest.approx(
                distance.dtw_distance(ry, rx, "angular"), abs=1e-15)

    def test_scale_invariance_angular(self):
        rng = np.random.default_rng(9)
        rx = rng.standard_normal((5, 3))
        ry = rng.standard_normal((4, 3))
        base = distance.dtw_distance(rx, ry, "angular")
        scales = rng.uniform(0.1, 10.0, size=5)
        assert distance.dtw_distance(rx * 3.0, ry, "angular") == pytest.approx(
            base, abs=1e-12)
        assert distance.dtw_distance(rx, ry * scales[:4, None], "angular") \
            == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seqs, metric, message", [
        ([np.ones(3), np.ones((2, 3))], "angular",
         "expected a non-empty T x D frame matrix"),
        ([np.ones((2, 3)), np.ones((0, 3))], "kl",
         "expected a non-empty T x D frame matrix"),
        ([np.ones((2, 3)), np.ones((2, 4))], "angular", "dimension mismatch: 3 vs 4"),
        ([np.ones((2, 3)), np.zeros((1, 3))], "angular",
         "angular distance undefined for zero-norm frames"),
        ([np.eye(3), np.ones((2, 3))], "kl", "KL distance requires probability frames"),
    ], ids=["not-2d", "empty", "dimensions", "zero-norm", "not-probabilities"])
    def test_rejected_input_is_a_validation_error(self, seqs, metric, message):
        with pytest.raises(ValidationError) as info:
            distance.prepare(seqs, metric)
        assert str(info.value) == message

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance.dtw_distance(np.ones((2, 3)), np.ones((2, 4)), "angular")

    def test_kl_needs_probability_frames(self):
        with pytest.raises(ValueError, match="probability"):
            distance.dtw_distance(np.ones((2, 3)), np.ones((2, 3)), "kl")

    def test_kl_dtw_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            rx = rng.dirichlet(np.ones(3), size=int(rng.integers(1, 6)))
            ry = rng.dirichlet(np.ones(3), size=int(rng.integers(1, 6)))
            cost = distance.frame_cost_matrix(rx, ry, "kl")
            assert distance.dtw_distance(rx, ry, "kl") == pytest.approx(
                dtw_oracle(cost), abs=1e-12)

    def test_accepts_feature_sequences(self):
        fs1 = FeatureSequence("a", 100.0, [[1.0, 0.0]])
        fs2 = FeatureSequence("b", 100.0, [[0.0, 1.0]])
        assert distance.dtw_distance(fs1, fs2, "angular") == pytest.approx(
            math.pi / 2, abs=1e-15)


class TestCostMatrix:
    def test_kl_row_term_is_summed_in_row_blocks(self, monkeypatch):
        # each row's sum p log p is the same numbers whatever the block
        rng = np.random.default_rng(31)
        seqs = [rng.dirichlet(np.ones(7) * 0.3, size=int(rng.integers(1, 40)))
                for _ in range(12)]
        full = None
        for budget in (1, 7, 50, 1 << 17):
            monkeypatch.setattr(distance, "RUN_ELEMENTS", budget)
            p, log_p, row_term = distance.prepare(seqs, "kl").parts
            assert np.array_equal(row_term, np.sum(p * log_p, axis=1))
            full = row_term if full is None else full
            assert np.array_equal(row_term, full)

    def test_angular_pair_cost_equals_broadcast_difference(self):
        # the repeat-and-subtract form gives exactly the broadcast
        # subtraction's costs, for one frame on either side and over
        # leading batch axes, and each batch slice is the pair alone
        rng = np.random.default_rng(22)
        for t, s, batch in ((1, 5, ()), (4, 1, ()), (1, 1, ()), (3, 6, (7,)),
                            (1, 4, (2, 3)), (5, 1, (4,))):
            x, y = (distance.prepare([rng.standard_normal((n * int(np.prod(batch)), 64))],
                                     "angular").parts[0].reshape(*batch, n, 64)
                    for n in (t, s))
            diff = x[..., :, None, :] - y[..., None, :, :]
            chord = np.sqrt(np.einsum("...tsd,...tsd->...ts", diff, diff))
            expected = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
            got = distance.pair_cost((x,), (y,), "angular")
            assert got.shape == (*batch, t, s)
            assert np.array_equal(got, expected)
            for k in np.ndindex(*batch):
                assert np.array_equal(got[k], distance.pair_cost(
                    (x[k],), (y[k],), "angular"))

    def test_entries_match_scalar_distances(self):
        rng = np.random.default_rng(13)
        fx = rng.standard_normal((4, 3))
        fy = rng.standard_normal((5, 3))
        cost = distance.frame_cost_matrix(fx, fy, "angular")
        for i in range(4):
            for j in range(5):
                assert cost[i, j] == pytest.approx(
                    angular_frame_distance(fx[i], fy[j]), abs=1e-12)
        px = rng.dirichlet(np.ones(3), size=4)
        qy = rng.dirichlet(np.ones(3), size=5)
        cost = distance.frame_cost_matrix(px, qy, "kl")
        for i in range(4):
            for j in range(5):
                assert cost[i, j] == pytest.approx(
                    kl_frame_distance(px[i], qy[j]), abs=1e-12)

