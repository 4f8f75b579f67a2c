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


def adversarial_frames(rng, n, dim):
    """``n`` frames a side whose pairs x_k, y_k are exact duplicates, near
    duplicates at chord 1e-8, near antipodes at 1e-8 from -x, at the angular
    band's two edges, or independent; every other pair of the two sides
    is some mixture of these."""
    x = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, (n, 1))
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    normal = rng.standard_normal((n, dim))
    normal -= np.sum(normal * unit, axis=1)[:, None] * unit
    normal /= np.maximum(np.linalg.norm(normal, axis=1), 1e-300)[:, None]
    edge = 2 * np.arcsin(np.sqrt(distance._angular_band(dim)[0]) / 2)
    theta = np.select([np.arange(n) % 6 == k for k in range(5)],
                      [0.0, 1e-8, np.pi - 1e-8, edge * rng.uniform(0.98, 1.02, n),
                       np.pi - edge * rng.uniform(0.98, 1.02, n)])
    y = np.cos(theta)[:, None] * unit + np.sin(theta)[:, None] * normal
    rest = np.arange(n) % 6 == 5
    y[rest] = rng.standard_normal((int(rest.sum()), dim))
    if dim == 1:
        y = np.where(y == 0, 1.0, y)
    y *= rng.uniform(0.1, 10.0, (n, 1))
    y[::6] = x[::6]
    return x, y


def angular_sides(x, y):
    """The prepared ``(unit rows, squared norms)`` of x and of y."""
    both = distance.prepare([x, y], "angular")
    return [tuple(p[:len(x)] for p in both.parts),
            tuple(p[len(x):] for p in both.parts)]


def angular_difference_form(ux, uy):
    """Angular costs from the sums of squared differences of unit rows."""
    diff = ux[..., :, None, :] - uy[..., None, :, :]
    chord = np.sqrt(np.einsum("...tsd,...tsd->...ts", diff, diff))
    return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))


def angular_sum_form(ux, uy):
    """Angular costs ``pi - 2 arcsin(|x + y| / 2)`` of unit rows, the form
    that is well-conditioned for nearly antipodal frames."""
    total = ux[..., :, None, :] + uy[..., None, :, :]
    norm = np.sqrt(np.einsum("...tsd,...tsd->...ts", total, total))
    return np.pi - 2.0 * np.arcsin(np.clip(0.5 * norm, 0.0, 1.0))


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

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e308, 5e-324])
    def test_any_finite_non_zero_frame_has_a_direction(self, magnitude):
        # no squared norm overflows, none underflows to a "zero-norm" frame
        # (both warnings fail the run); a frame's cost is its direction's
        assert distance.dtw_distance([[magnitude, 0]], [[1, 0]], "angular") == 0.0
        assert distance.dtw_distance([[magnitude, 0]], [[0, 1]], "angular") \
            == pytest.approx(math.pi / 2, abs=1e-15)
        assert distance.dtw_distance([[0, -magnitude]], [[0, 1]], "angular") \
            == pytest.approx(math.pi, abs=1e-15)
        assert not distance.invalid_frames(np.array([[magnitude, 0]]), "angular")[0]

    @pytest.mark.parametrize("dim", [2, 64, 256])
    @pytest.mark.parametrize("gap", [1e-5, 1e-7])
    def test_nearly_antipodal_costs_hold_the_contract(self, dim, gap):
        # at pi - gap the difference form is off by 6e-11 to 1e-8; the sum
        # form pi - 2 arcsin(|x + y| / 2) is within 1e-12 of the same unit
        # rows' extended-precision sum form
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((8, dim))
        unit = x / np.linalg.norm(x, axis=1)[:, None]
        normal = rng.standard_normal((8, dim))
        normal -= np.sum(normal * unit, axis=1)[:, None] * unit
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        theta = np.pi - gap * rng.uniform(0.5, 2.0, 8)
        y = np.cos(theta)[:, None] * unit + np.sin(theta)[:, None] * normal
        (ux, nx), (uy, ny) = angular_sides(x, y)
        got = np.diag(distance.pair_cost((ux, nx), (uy, ny), "angular"))
        total = ux.astype(np.longdouble) + uy.astype(np.longdouble)
        norm = np.sqrt(np.sum(total * total, axis=1))
        exact = np.arccos(np.longdouble(-1)) - 2 * np.arcsin(norm / 2)
        assert (np.abs(got - exact) <= 1e-12).all()


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

    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_pairs_driver_bits_ignore_request_order(self, metric, monkeypatch):
        # a run's batch is made of whichever pairs share its shape, in the
        # order they were asked for: shuffled, reversed or one at a time,
        # each pair keeps its bits; near-duplicate sequences put angular
        # cells in the recomputed band
        rng = np.random.default_rng(19)
        lengths = rng.permutation(np.repeat([1, 3, 6], 8))
        if metric == "kl":
            seqs = [rng.dirichlet(np.full(50, 0.1), size=n) for n in lengths]
        else:
            seqs = [rng.standard_normal((n, 64)) for n in lengths]
            seqs[1::2] = [f + 1e-3 * rng.standard_normal(f.shape) for f in seqs[::2]]
        rows, cols = np.nonzero(~np.eye(len(lengths), dtype=bool))
        for budgets in ((distance.CHUNK_CELLS, distance.RUN_ELEMENTS), (40, 1000)):
            monkeypatch.setattr(distance, "CHUNK_CELLS", budgets[0])
            monkeypatch.setattr(distance, "RUN_ELEMENTS", budgets[1])
            prepared = distance.prepare(seqs, metric)
            want = distance.dtw_pairs(prepared, rows, cols, metric)
            for order in (rng.permutation(rows.size), np.arange(rows.size)[::-1]):
                got = distance.dtw_pairs(prepared, rows[order], cols[order], metric)
                assert np.array_equal(got, want[order])
            for k in rng.choice(rows.size, 40, replace=False):
                assert distance.dtw_pairs(prepared, rows[k:k + 1], cols[k:k + 1],
                                          metric)[0] == want[k]

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
            distance.dtw_distance(*seqs, metric)
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
    @pytest.mark.parametrize("dim", [1, 50, 64, 256])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_prepared_row_is_the_same_alone_stacked_and_in_a_store(self, metric,
                                                                   dim):
        # a token's rows have the same bits prepared alone, as one stack and
        # inside a store of the utterances holding them: unit rows and squared
        # norms for angular; p, log p and the row term for kl
        rng = np.random.default_rng(dim)
        if metric == "kl":
            frames = rng.dirichlet(np.full(dim, 0.5), 60)
        else:
            frames = rng.standard_normal((60, dim)) * rng.uniform(1e-3, 1e3, (60, 1))
        stacked = distance.prepare([frames], metric)
        store = distance.prepare(np.split(frames, [7, 20, 41]), metric)
        assert store.offsets.tolist() == [0, 7, 20, 41]
        for start, stop in ((0, 1), (3, 9), (20, 41), (59, 60)):
            alone = distance.prepare([frames[start:stop]], metric)
            for part, whole, utterances in zip(alone.parts, stacked.parts,
                                               store.parts):
                assert np.array_equal(part, whole[start:stop])
                assert np.array_equal(part, utterances[start:stop])
        # a store filled one utterance at a time, last first, as ABX fills
        # its store while it reads: the one prepared whole
        parts = distance.empty_parts(metric, 60, dim)
        for start, utterance in reversed(list(zip([0, 7, 20, 41],
                                                  np.split(frames, [7, 20, 41])))):
            distance.prepare_into(parts, start, utterance, metric)
        for part, whole in zip(parts, stacked.parts):
            assert np.array_equal(part, whole)

    def test_prepared_parts_do_not_depend_on_the_row_block(self, monkeypatch):
        # every part of every row has the same bits whatever the rows per
        # block, RUN_ELEMENTS // D: from one row at a time to every row in
        # one block; the kl row term is each row's sum p log p
        rng = np.random.default_rng(31)
        sizes = rng.integers(1, 40, 12)
        for metric in ("angular", "kl"):
            if metric == "kl":
                seqs = [rng.dirichlet(np.ones(7) * 0.3, size=n) for n in sizes]
            else:
                seqs = [rng.standard_normal((n, 7)) * rng.uniform(1e-3, 1e3, (n, 1))
                        for n in sizes]
            full = None
            for budget in (1, 7, 50, 1 << 17):
                monkeypatch.setattr(distance, "RUN_ELEMENTS", budget)
                parts = distance.prepare(seqs, metric).parts
                if metric == "kl":
                    p, log_p, row_term = parts
                    assert np.array_equal(row_term, np.sum(p * log_p, axis=1))
                full = parts if full is None else full
                for part, whole in zip(parts, full):
                    assert np.array_equal(part, whole)

    @pytest.mark.parametrize("dim", [1, 2, 64, 256, 512])
    def test_angular_costs_hold_the_bound_on_adversarial_frames(self, dim):
        # off the band a cost is within the documented bound of the exact
        # chord's (extended precision); in the band it is the difference
        # form's, bit for bit, or near antipodes the sum form's; off the
        # band those forms are within about the bound of the exact cost
        # too, so the two are within twice it
        rng = np.random.default_rng(dim)
        (ux, nx), (uy, ny) = angular_sides(*adversarial_frames(rng, 60, dim))
        got = distance.pair_cost((ux, nx), (uy, ny), "angular")
        err = (4 * dim + 8) * 2.0 ** -53
        bound = min(2.5 * err, 5e-13)
        lo, hi = distance._angular_band(dim)
        wide = ux.astype(np.longdouble)[:, None, :] - uy.astype(np.longdouble)[None]
        chord2 = np.einsum("tsd,tsd->ts", wide, wide)
        exact = 2 * np.arcsin(np.minimum(np.sqrt(chord2) / 2, 1))
        off = (chord2 > lo + err) & (chord2 < hi - err)
        band = (chord2 < lo - err) | (chord2 > hi + err)
        assert np.diag(band)[np.arange(60) % 6 < 3].all() and (off.any() or dim == 1)
        assert (np.abs(got - exact)[off] <= bound + 2 * np.spacing(np.pi)).all()
        want = np.where(chord2 > 2, angular_sum_form(ux, uy),
                        angular_difference_form(ux, uy))
        assert np.array_equal(got[band], want[band])
        assert (np.abs(got - want) <= 2 * bound).all()
        assert (np.diag(got)[::6] == 0.0).all()  # the duplicates

    @pytest.mark.parametrize("dim", [1, 64, 448, 449, 512, 2249, 2250, 4096])
    def test_angular_band_is_the_narrowest_the_bound_allows(self, dim):
        # err past the band's edge the slope 1 / sqrt(c (4 - c)) is at most
        # 2.5 and at most 5e-13 / err, and one of the two is met exactly;
        # from D = 2250 no slope is small enough and the band is everything
        err = (4 * dim + 8) * 2.0 ** -53
        lo, hi = distance._angular_band(dim)
        assert hi == 4.0 - lo
        if dim >= 2250:
            assert lo > 2.0 > hi
            return
        slope = 1 / math.sqrt((lo - err) * (4 - lo + err))
        assert slope == pytest.approx(min(2.5, 5e-13 / err), rel=1e-9)
        assert 0.0404 <= lo <= 1.95

    def test_angular_batch_slice_is_the_pair_alone_at_any_position(self):
        # every pair of a batch has the bits it has computed alone, and
        # keeps them at every position of the batch and under two batch axes
        rng = np.random.default_rng(22)
        for dim in (1, 3, 64, 257):
            for t, s, batch in ((1, 5, 6), (4, 1, 5), (1, 1, 4), (3, 6, 7), (9, 12, 5)):
                x, y = adversarial_frames(rng, batch * max(t, s), dim)
                sides = [(u.reshape(batch, n, dim), norms.reshape(batch, n))
                         for (u, norms), n in zip(angular_sides(x[:batch * t],
                                                                y[:batch * s]), (t, s))]
                got = distance.pair_cost(*sides, "angular")
                assert got.shape == (batch, t, s)
                for k in range(batch):
                    alone = distance.pair_cost(*[(u[k].copy(), n[k].copy())
                                                 for u, n in sides], "angular")
                    assert np.array_equal(got[k], alone)
                for shift in range(1, batch):
                    moved = [(np.roll(u, shift, axis=0), np.roll(n, shift, axis=0))
                             for u, n in sides]
                    assert np.array_equal(np.roll(distance.pair_cost(
                        *moved, "angular"), -shift, axis=0), got)
                if batch == 6:
                    two = [(u.reshape(2, 3, *u.shape[1:]), n.reshape(2, 3, -1))
                           for u, n in sides]
                    assert np.array_equal(distance.pair_cost(*two, "angular"),
                                          got.reshape(2, 3, t, s))

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

