"""k-means fitting, quantization and codebook persistence."""

import itertools

import numpy as np
import pytest

from zrc_eval import quantizer
from zrc_eval.errors import FormatError, ValidationError
from zrc_eval.types import FeatureSequence


def partition_search_minimum(points, k):
    """Global k-means optimum by enumerating every label assignment."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    best = None
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        labels = np.asarray(labels)
        inertia = 0.0
        centroids = []
        for c in range(k):
            members = points[labels == c]
            centroid = members.mean(axis=0)
            centroids.append(centroid)
            inertia += float(((members - centroid) ** 2).sum())
        if best is None or inertia < best[0]:
            best = (inertia, centroids)
    return best


def difference_form_assign(frames, centroids):
    """All-pairs difference form, the definition ``_assign`` must reproduce."""
    with np.errstate(over="ignore"):
        diff = frames[:, None, :] - centroids[None, :, :]
        d = np.einsum("nkd,nkd->nk", diff, diff)
    labels = np.argmin(d, axis=1)
    return labels, d[np.arange(len(frames)), labels]


def scalar_reservoir(frames, size, rng):
    """Algorithm R with one ``rng.integers`` call per frame."""
    reservoir = np.arange(size)
    for i in range(size, frames.shape[0]):
        j = int(rng.integers(i + 1))
        if j < size:
            reservoir[j] = i
    return frames[reservoir]


@pytest.fixture
def rescored_rows(monkeypatch):
    """Record how many rows each difference-form re-score receives."""
    calls = []
    exact = quantizer._squared_distances

    def spy(frames, centroids):
        calls.append(frames.shape[0])
        return exact(frames, centroids)

    monkeypatch.setattr(quantizer, "_squared_distances", spy)
    return calls


class TestAssign:
    def assert_matches(self, frames, centroids, chunk=2048):
        labels, dists = quantizer._assign(frames, centroids, chunk=chunk)
        want_labels, want_dists = difference_form_assign(frames, centroids)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(dists, want_dists)

    @pytest.mark.parametrize("dim", [1, 3, 64, 129])
    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (3.0, 1e-3),
                                                (1e6, 1e-7)])
    def test_matches_difference_form(self, dim, offset, spread):
        rng = np.random.default_rng(dim)
        centroids = offset + spread * rng.standard_normal((23, dim))
        frames = offset + spread * rng.standard_normal((300, dim))
        frames[:23] = centroids  # distance exactly zero
        self.assert_matches(frames, centroids)
        self.assert_matches(frames, centroids, chunk=7)

    @pytest.mark.parametrize("dim", [1, 3, 64, 129])
    def test_planted_exact_ties_go_to_lowest_index(self, dim):
        # integer centroids and half-integer frames: every distance is exact
        rng = np.random.default_rng(10 + dim)
        centroids = np.unique(rng.integers(-2, 3, size=(40, dim)), axis=0)
        centroids = rng.permutation(centroids).astype(np.float64)
        frames = (rng.integers(-2, 3, size=(500, dim))
                  + 0.5 * rng.integers(0, 2, size=(500, dim))).astype(np.float64)
        self.assert_matches(frames, centroids)
        # the midpoint of two centroids is equidistant: index 1 beats index 3
        pair = np.zeros((5, dim))
        pair[1, 0], pair[3, 0] = -1.0, 1.0
        pair[[0, 2, 4], 0] = [7.0, 9.0, 11.0]
        labels, dists = quantizer._assign(np.zeros((1, dim)), pair)
        assert labels.tolist() == [1] and dists.tolist() == [1.0]

    @pytest.mark.parametrize("dim", [1, 3, 64, 129])
    def test_near_ties_inside_the_bound(self, dim, rescored_rows):
        rng = np.random.default_rng(20 + dim)
        centroids = rng.standard_normal((12, dim))
        centroids[[0, 1, 2, 3, 5, 6, 7, 8, 10, 11]] += 50.0  # 4 and 9 are nearest
        mid = (centroids[4] + centroids[9]) / 2
        step = centroids[9] - centroids[4]
        frames = np.array([mid + t * step
                           for t in (-1e-12, -1e-15, -1e-17, 0.0, 1e-17, 1e-15)])
        self.assert_matches(frames, centroids)
        assert sum(rescored_rows) >= 1

    def test_cancellation_takes_the_rescore_path(self, rescored_rows):
        rng = np.random.default_rng(30)
        centroids = 1e6 + 1e-7 * rng.standard_normal((20, 64))
        frames = 1e6 + 1e-7 * rng.standard_normal((200, 64))
        self.assert_matches(frames, centroids)
        assert sum(rescored_rows) == 200

    def test_separated_clusters_skip_the_rescore(self, rescored_rows):
        rng = np.random.default_rng(31)
        centroids = 10.0 * rng.standard_normal((50, 64))
        frames = (centroids[rng.integers(50, size=3000)]
                  + rng.standard_normal((3000, 64)))
        self.assert_matches(frames, centroids)
        assert rescored_rows == []

    def test_gram_overflow_is_rescored(self, rescored_rows):
        centroids = np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 0.0]])
        frames = np.array([[1e200, 0.5], [1e160, 1e160], [3.0, 4.0],
                           [-1e200, 0.9]])
        self.assert_matches(frames, centroids)
        assert sum(rescored_rows) >= 3

    def test_infinite_gram_entry_of_the_nearest_centroid(self):
        # |c_1|**2 overflows, so D~_1 = inf while D~_0 is finite; centroid 1
        # is still the nearer one and only the re-score can find it
        centroids = np.array([[0.0, 1e154], [1.35e154, 0.0]])
        frames = np.array([[6e153, 0.0]])
        assert difference_form_assign(frames, centroids)[0].tolist() == [1]
        self.assert_matches(frames, centroids)

    def test_subnormal_inputs(self):
        rng = np.random.default_rng(32)
        centroids = 1e-160 * rng.standard_normal((10, 4))
        frames = 1e-160 * rng.standard_normal((300, 4))
        self.assert_matches(frames, centroids)


class TestReservoir:
    @pytest.mark.parametrize("n, size, seed", [(10, 3, 0), (101, 100, 1),
                                               (5000, 40, 2), (40000, 8000, 3)])
    def test_matches_one_draw_per_frame(self, n, size, seed):
        frames = np.arange(n, dtype=np.float64)[:, None]
        rng_fast, rng_loop = (np.random.default_rng(seed) for _ in range(2))
        fast = quantizer._reservoir_subsample(frames, size, rng_fast)
        assert np.array_equal(fast, scalar_reservoir(frames, size, rng_loop))
        assert rng_fast.integers(1 << 62) == rng_loop.integers(1 << 62)


class TestKmeansFit:
    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 3))
        cb = quantizer.kmeans_fit(points, 6, seed=1)
        assert cb.inertia == 0.0
        assert {tuple(c) for c in cb.centroids} == {tuple(p) for p in points}

    def test_two_cluster_line_matches_partition_oracle(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        oracle_inertia, oracle_centroids = partition_search_minimum(points, 2)
        assert oracle_inertia == 1.0
        assert sorted(float(c[0]) for c in oracle_centroids) == [0.5, 10.5]
        cb = quantizer.kmeans_fit(points, 2, seed=0)
        assert cb.inertia == 1.0
        assert sorted(cb.centroids[:, 0].tolist()) == [0.5, 10.5]

    def test_seeded_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((200, 5))
        cb1 = quantizer.kmeans_fit(frames, 8, seed=42)
        cb2 = quantizer.kmeans_fit(frames, 8, seed=42)
        assert np.array_equal(cb1.centroids, cb2.centroids)
        assert cb1.inertia == cb2.inertia
        assert cb1.inertia_trace == cb2.inertia_trace
        cb3 = quantizer.kmeans_fit(frames, 8, seed=43)
        assert not np.array_equal(cb1.centroids, cb3.centroids)

    def test_inertia_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(20, 80))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 8))
            frames = rng.standard_normal((n, d)) * rng.uniform(0.5, 5.0)
            cb = quantizer.kmeans_fit(frames, k, seed=trial)
            trace = cb.inertia_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert cb.inertia == trace[-1]

    def test_n_below_k_is_error(self):
        with pytest.raises(ValidationError, match="at least"):
            quantizer.kmeans_fit(np.ones((2, 2)) * np.arange(2)[:, None], 3)

    def test_non_finite_is_error(self):
        frames = np.ones((5, 2))
        frames[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            quantizer.kmeans_fit(frames, 2)

    def test_subsample_is_deterministic_and_caps_frames(self):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((500, 3))
        cb1 = quantizer.kmeans_fit(frames, 4, seed=9, subsample=100)
        cb2 = quantizer.kmeans_fit(frames, 4, seed=9, subsample=100)
        assert np.array_equal(cb1.centroids, cb2.centroids)
        cb_full = quantizer.kmeans_fit(frames, 4, seed=9)
        assert not np.array_equal(cb1.centroids, cb_full.centroids)


def kmeans_add_at_oracle(frames, k, seed, max_iter, tol=0.0):
    """``kmeans_fit`` without subsampling, centroid sums by ``np.add.at``."""
    rng = np.random.default_rng(seed)
    centroids = quantizer._kmeans_pp(frames, k, rng)
    prev_inertia, prev_centroids, trace, reseeds = None, centroids, [], 0
    for _ in range(max_iter):
        labels, dists = quantizer._assign(frames, centroids)
        counts = np.bincount(labels, minlength=k)
        while (counts == 0).any():
            j = int(np.flatnonzero(counts == 0)[0])
            far = int(np.argmax(dists))
            centroids[j], labels[far], dists[far] = frames[far], j, 0.0
            counts = np.bincount(labels, minlength=k)
            reseeds += 1
        inertia = float(dists.sum())
        if prev_inertia is not None and inertia > prev_inertia:
            break
        trace.append(inertia)
        improvement = 1.0 if prev_inertia is None else (
            (prev_inertia - inertia) / prev_inertia if prev_inertia else 0.0)
        prev_inertia, prev_centroids = inertia, centroids.copy()
        if improvement < tol or inertia == 0.0:
            break
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, frames)
        centroids = sums / counts[:, None]
    return prev_centroids, trace, reseeds


class TestClusterSums:
    """Centroid sums by one ``bincount`` per dimension are bit-identical to
    ``np.add.at``: both add each frame in frame order from 0.0."""

    @pytest.mark.parametrize("n, d, k", [(1, 1, 1), (7, 3, 5), (8000, 64, 50),
                                         (500, 2, 3)])
    def test_equal_to_add_at(self, n, d, k):
        rng = np.random.default_rng(n + d + k)
        frames = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        frames[rng.random((n, d)) < 0.05] = -0.0
        labels = rng.integers(0, k, n)
        want = np.zeros((k, d))
        np.add.at(want, labels, frames)
        got = quantizer._cluster_sums(np.ascontiguousarray(frames.T), labels, k)
        assert got.shape == (k, d)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_equals_add_at_fit(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((300, 4)) + rng.integers(0, 3, (300, 1)) * 4.0
        cb = quantizer.kmeans_fit(frames, 6, seed=seed, max_iter=20, tol=0.0)
        centroids, trace, _ = kmeans_add_at_oracle(frames, 6, seed, 20)
        assert np.array_equal(cb.centroids, centroids)
        assert cb.inertia_trace == trace

    def test_fit_through_the_empty_cluster_reseed(self, monkeypatch):
        # a repeated initial centroid leaves the later copy empty (ties go
        # to the lowest index), so the fit re-seeds it, then keeps summing
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((60, 3))
        frames[:20] += 6.0
        seeded = lambda f, k, r: f[[0, 30, 30, 45, 59]].copy()
        monkeypatch.setattr(quantizer, "_kmeans_pp", seeded)
        cb = quantizer.kmeans_fit(frames, 5, seed=3, max_iter=15, tol=0.0)
        centroids, trace, reseeds = kmeans_add_at_oracle(frames, 5, 3, 15)
        assert reseeds > 0
        assert len(trace) > 2
        assert np.array_equal(cb.centroids, centroids)
        assert cb.inertia_trace == trace


def kmeans_pp_oracle(frames, k, rng):
    """k-means++ seeding with one full difference-form pass per centre."""
    n = frames.shape[0]
    centroids = np.empty((k, frames.shape[1]))
    centroids[0] = frames[int(rng.integers(n))]
    d2 = np.sum((frames - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        centroids[i] = frames[idx]
        d2 = np.minimum(d2, np.sum((frames - centroids[i]) ** 2, axis=1))
    return centroids


def _seeding_frames(case):
    rng = np.random.default_rng(11)
    if case == "clusters":  # the lm-pipeline shape
        return rng.standard_normal((8000, 64)) + rng.integers(0, 20, (8000, 1))
    if case == "duplicates":
        return rng.standard_normal((40, 5))[rng.integers(0, 40, 400)]
    if case == "identical":
        return np.full((50, 3), 2.5)
    if case == "far-offset":  # the Gram form cancels: few rows can be skipped
        return 1e8 + rng.standard_normal((300, 4))
    if case == "large-norm":  # squared norms overflow, distances do not
        return 1e154 + rng.standard_normal((300, 4)) * 1e152
    if case == "mixed-scale":
        return rng.standard_normal((600, 9)) * 10.0 ** rng.integers(-150, 150, (600, 1))
    return rng.standard_normal((500, 2)) * 1e-160  # subnormal products


class TestKmeansPP:
    """The Gram-form skip leaves the seeding bit-identical to the full
    difference-form pass over every frame."""

    @pytest.mark.parametrize("case", ["clusters", "duplicates", "identical", "far-offset",
                                      "large-norm", "mixed-scale", "tiny"])
    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_equal_to_full_pass(self, case, seed):
        frames = _seeding_frames(case)
        k = min(50, len(frames))
        want = kmeans_pp_oracle(frames, k, np.random.default_rng(seed))
        got = quantizer._kmeans_pp(frames, k, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_codebook_equal_to_full_pass_fit(self, seed, monkeypatch):
        frames = _seeding_frames("clusters")
        got = quantizer.kmeans_fit(frames, 50, seed=seed, max_iter=8)
        monkeypatch.setattr(quantizer, "_kmeans_pp", kmeans_pp_oracle)
        want = quantizer.kmeans_fit(frames, 50, seed=seed, max_iter=8)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia_trace == want.inertia_trace


class TestQuantize:
    def test_frame_equal_to_centroid(self):
        rng = np.random.default_rng(5)
        cents = rng.standard_normal((9, 4))
        cb = quantizer.Codebook(cents)
        fs = FeatureSequence("u", 100.0, cents[[7]])
        assert quantizer.quantize(cb, fs).units == (7,)

    def test_equidistant_tie_goes_to_lowest_index(self):
        cents = np.array([[2.0], [0.0], [3.0], [1.0], [3.0 + 1e-9]])
        cb = quantizer.Codebook(cents)
        fs = FeatureSequence("u", 100.0, [[0.5]])  # tie between indices 1 and 3
        assert quantizer.quantize(cb, fs).units == (1,)

    def test_identity_partition_after_fit(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((8, 3))
        cb = quantizer.kmeans_fit(points, 8, seed=0)
        units = quantizer.quantize(cb, FeatureSequence("u", 100.0, points)).units
        assert sorted(units) == list(range(8))
        for point, unit in zip(points, units):
            assert np.array_equal(cb.centroids[unit], point)

    def test_centroid_substitution_idempotence(self):
        rng = np.random.default_rng(7)
        cb = quantizer.kmeans_fit(rng.standard_normal((50, 3)), 5, seed=1)
        for k in range(5):
            fs = FeatureSequence("c", 100.0, cb.centroids[[k]])
            assert quantizer.quantize(cb, fs).units == (k,)

    def test_dim_mismatch(self):
        cb = quantizer.Codebook(np.eye(3))
        with pytest.raises(ValidationError, match="dim"):
            quantizer.quantize(cb, FeatureSequence("u", 100.0, np.ones((2, 2))))


    @pytest.mark.parametrize("shape", [(0, 2), (1, 0)])
    def test_empty_codebook_is_rejected(self, shape):
        with pytest.raises(ValidationError) as exc:
            quantizer.Codebook(np.zeros(shape))
        assert str(exc.value) == (
            f"centroids must be a non-empty K x D matrix, got shape {shape}")

    # the file stores an f32: 1e300 overflows it and 1e-50 rounds to 0
    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf, 1e300, 1e-50])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValidationError) as exc:
            quantizer.Codebook(np.eye(2), frame_rate=rate)
        assert str(exc.value) == "frame rate must be finite and positive"


class TestCodebookFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        cents = rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64)
        cb = quantizer.Codebook(cents, frame_rate=50.0, seed=77)
        path = tmp_path / "cb.zrck"
        quantizer.write_codebook(cb, path)
        loaded = quantizer.read_codebook(path)
        assert np.array_equal(loaded.centroids, cb.centroids)
        assert loaded.frame_rate == 50.0
        assert loaded.seed == 77

    def test_centroid_beyond_f32_is_refused(self, tmp_path):
        path = tmp_path / "cb.zrck"
        with pytest.raises(ValidationError) as exc:
            quantizer.write_codebook(quantizer.Codebook([[1e39, 0.0], [0.0, 1.0]]), path)
        assert str(exc.value) == (f"{path}: centroid value beyond the f32 range of "
                                  "codebook files")
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cb.zrck"
        quantizer.write_codebook(quantizer.Codebook(np.eye(2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            quantizer.read_codebook(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cb.zrck"
        quantizer.write_codebook(quantizer.Codebook(np.eye(2)), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            quantizer.read_codebook(path)
