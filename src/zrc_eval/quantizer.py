"""k-means training on pooled feature frames and utterance discretization.

Lloyd's algorithm with seeded k-means++ initialization. Clustering uses
squared Euclidean distance; determinism is part of the contract: the same
(frames, K, seed, max_iter, tol) always produces a bit-identical codebook.

Labels and distances are defined by the difference form
``sum_d (x_d - c_d)**2`` (``_squared_distances``), ties to the lowest
index. ``_assign`` reaches the same labels without building a
``frames x K x D`` tensor. Per chunk of frames it computes the Gram form
``D~_j = (|x|**2 - 2 x.c_j) + |c_j|**2`` with one matrix product and
bounds how far it can lie from the difference form.

Bound. Let ``u = 2**-53`` and ``gamma_m = m u / (1 - m u)``. A sum of
products evaluated in floating point, in any order, is within
``gamma_m * sum |term|`` of its exact value when every term passes through
at most ``m`` roundings. In the difference form a term ``(x_d - c_d)**2``
takes a subtraction, a product and at most ``D - 1`` additions: ``D + 1``.
In the Gram form a term ``x_d**2``, ``x_d c_d`` or ``c_d**2`` takes a
product, at most ``D - 1`` additions inside its dot product and two
additions combining the three dot products: ``D + 2``. The absolute terms
sum to ``|x - c_j|**2`` and ``|x|**2 + 2 sum_d |x_d c_jd| + |c_j|**2``,
both at most ``(|x| + |c_j|)**2`` by Cauchy-Schwarz. So each form is within
``gamma_{D+2} (|x| + |c_j|)**2`` of the exact distance, and the two forms
are within ``E_j = 2 gamma_{D+2} (|x| + |c_j|)**2`` of each other. Only a
centroid with ``D~_j - E_j <= min_i (D~_i + E_i)`` can be the
difference-form minimum.

Margin. ``E_j`` is used times 5/4. Evaluating it from the computed norms
is off by a relative ``(D + 9) u`` at most. The subtraction and the
addition of the candidate test each round by at most ``u (|x| + |c|)**2``,
which is ``E / (2 (D + 2)) <= E / 6``; the spare quarter covers both.
Underflow to subnormals breaks the relative model. It adds at most
``2**-1075`` per product, over ``4 D`` products in both forms, so
``2 (D + 2) 2**-1074`` is added to every ``E_j``.

Re-score. A row with exactly one candidate takes it. Every other row, and
every row with a non-finite ``D~`` or ``E``, is labelled by the difference
form over all K centroids. Every row's distance is then the difference
form at its label, so labels, distances, inertia and everything fitted
from them are bit-identical to the all-pairs difference form.

Seeding. ``_kmeans_pp`` keeps ``d2``, each frame's difference-form
distance to its nearest centre so far, and lowers it to the distance to
each new centre ``c`` where that is smaller. A row is skipped when the
computed ``D~ - E > d2``, with ``D~`` and ``E`` as above. That one
subtraction rounds by at most ``u max(D~, E)``, which is ``E / 6`` at most
as in the candidate test, and evaluating ``E`` loses a relative
``(D + 9) u``: the 5/4 margin covers both. So a skipped row has
``D~ - 2 gamma_{D+2} (|x| + |c|)**2 > d2`` in exact arithmetic, its
difference form to ``c`` lies above ``d2``, and the full pass's
``minimum`` would have kept ``d2``. A NaN comparison is not a skip.
Seedings and codebooks are bit-identical to the full pass over all rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, _named
from .types import FeatureSequence, UnitSequence

_CODEBOOK_MAGIC = b"ZRCK"
_CODEBOOK_VERSION = 1
_CODEBOOK_HEADER = struct.Struct("<4sIIIf")

DEFAULT_CLUSTERS = 50


@dataclass
class Codebook:
    """k-means centroids plus the training metadata needed to reproduce them."""

    centroids: np.ndarray  # K x D, float64
    frame_rate: float = 100.0
    seed: int = 0
    n_iter: int = 0
    inertia: float = 0.0
    inertia_trace: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or 0 in self.centroids.shape:
            raise ValidationError("centroids must be a non-empty K x D matrix, "
                                  f"got shape {self.centroids.shape}")
        if not np.isfinite(self.centroids).all():
            raise ValidationError("non-finite centroid")
        uniq = {tuple(row) for row in self.centroids}
        if len(uniq) != self.centroids.shape[0]:
            raise ValidationError("duplicate centroids in codebook")
        with np.errstate(over="ignore"):  # the codebook file stores an f32
            if not 0 < np.float32(self.frame_rate) < math.inf:
                raise ValidationError("frame rate must be finite and positive")

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _squared_distances(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact per-pair squared Euclidean distances (chunk-friendly sizes only)."""
    diff = frames[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _form_bound(x_norm, c_norm, dim: int):
    """``E = 2 gamma_{D+2} (|x| + |c|)**2`` with the 5/4 margin and the
    subnormal floor: the most the Gram and difference forms can differ by."""
    unit_m = (dim + 2) * 2.0 ** -53
    bound = x_norm + c_norm
    bound *= bound
    bound *= 1.25 * 2.0 * unit_m / (1.0 - unit_m)
    bound += 2.0 * (dim + 2) * 2.0 ** -1074
    return bound


def _assign(frames: np.ndarray, centroids: np.ndarray, chunk: int = 2048):
    """Labels and squared distance to the nearest centroid, ties to lowest index.

    Exactly the labels and distances of ``_squared_distances`` over all
    centroids; the module docstring derives the bound that lets the Gram
    form pick the label.
    """
    n, dim = frames.shape
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    centroids_t = np.ascontiguousarray(centroids.T)
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    c_norm = np.sqrt(c_sq)
    for start in range(0, n, chunk):
        x = frames[start:start + chunk]
        x_sq = np.einsum("nd,nd->n", x, x)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x_sq[:, None] - 2.0 * (x @ centroids_t) + c_sq
            bound = _form_bound(np.sqrt(x_sq)[:, None], c_norm, dim)
            best = np.min(gram + bound, axis=1)
            candidates = gram - bound <= best[:, None]
            # any non-finite entry makes its row sum non-finite; a sum of
            # finite entries that overflows only costs a re-score
            finite = np.isfinite(gram.sum(axis=1) + bound.sum(axis=1))
        lab = np.argmax(candidates, axis=1)
        unsure = (np.count_nonzero(candidates, axis=1) != 1) | ~finite
        if unsure.any():
            rows = np.flatnonzero(unsure)
            lab[rows] = np.argmin(_squared_distances(x[rows], centroids), axis=1)
        diff = x - centroids[lab]
        labels[start:start + chunk] = lab
        dists[start:start + chunk] = np.einsum("nd,nd->n", diff, diff)
    return labels, dists


def _kmeans_pp(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ initialization. Each new centre re-scores only the
    rows the Gram-form bound cannot rule out ("Seeding" in the module
    docstring), so ``d2`` is bit-identical to a full pass."""
    n, dim = frames.shape
    centroids = np.empty((k, dim), dtype=np.float64)
    x_sq = np.einsum("nd,nd->n", frames, frames)
    x_norm = np.sqrt(x_sq)
    first = int(rng.integers(n))
    centroids[0] = frames[first]
    d2 = np.sum((frames - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        c = centroids[i] = frames[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x_sq - 2.0 * (frames @ c) + x_sq[idx]
            # rows whose difference form can be below d2; NaN rows too
            rows = np.flatnonzero(~(gram - _form_bound(x_norm, x_norm[idx], dim) > d2))
        d2[rows] = np.minimum(d2[rows], np.sum((frames[rows] - c) ** 2, axis=1))
    return centroids


def _reservoir_subsample(frames: np.ndarray, size: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Reservoir sampling (algorithm R) over the frame rows."""
    reservoir = np.arange(size)
    # one call draws the same stream as rng.integers(i + 1) for each i in turn
    draws = rng.integers(np.arange(size + 1, frames.shape[0] + 1))
    for offset in np.flatnonzero(draws < size).tolist():
        reservoir[draws[offset]] = size + offset
    return frames[reservoir]


def _cluster_sums(columns: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """K x D sums of the frames of each cluster, from the D x N transposed
    frames: one ``bincount`` per dimension. Each sum adds its frames in
    frame order from 0.0, as ``np.add.at(sums, labels, frames)`` does, so
    the sums are bit-identical to it."""
    return np.stack([np.bincount(labels, column, k) for column in columns], axis=1)


def kmeans_fit(frames, n_clusters: int, seed: int = 0, max_iter: int = 100,
               tol: float = 1e-6, frame_rate: float = 100.0,
               subsample: int | None = None) -> Codebook:
    """Fit a codebook with Lloyd's algorithm.

    Stops when the relative inertia improvement drops below ``tol`` or
    after ``max_iter`` assignment rounds. Empty clusters are re-seeded to
    the point currently farthest from its own centroid. ``subsample``
    caps the number of training frames via seeded reservoir sampling.
    """
    if not 0 <= seed < 2 ** 64:  # the codebook stores it as a u64
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValidationError("frames must be an N x D matrix")
    if not np.isfinite(frames).all():
        raise ValidationError("non-finite value in training frames")
    if n_clusters < 1:
        raise ValidationError(f"need at least one cluster, got {n_clusters}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be positive, got {max_iter}")
    if not tol >= 0:  # NaN too
        raise ValidationError(f"tol must be non-negative, got {tol}")
    if subsample is not None and subsample < 1:
        raise ValidationError(f"subsample must be >= 1, got {subsample}")
    rng = np.random.default_rng(seed)
    if subsample is not None and frames.shape[0] > subsample:
        frames = _reservoir_subsample(frames, subsample, rng)
    if frames.shape[0] < n_clusters:
        raise ValidationError(
            f"need at least {n_clusters} frames, got {frames.shape[0]}")

    centroids = _kmeans_pp(frames, n_clusters, rng)
    columns = np.ascontiguousarray(frames.T)  # one row per dimension
    prev_inertia = None
    prev_centroids = centroids
    trace: list[float] = []
    n_iter = 0
    for _ in range(max_iter):
        labels, dists = _assign(frames, centroids)

        # re-seed empty clusters to the worst-fit point, in index order;
        # stealing a cluster's only point can empty it, hence the loop cap
        counts = np.bincount(labels, minlength=n_clusters)
        for _ in range(n_clusters):
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            k = int(empty[0])
            far = int(np.argmax(dists))
            centroids[k] = frames[far]
            labels[far] = k
            dists[far] = 0.0
            counts = np.bincount(labels, minlength=n_clusters)
        if (counts == 0).any():
            raise ValidationError(
                "cannot fill empty clusters: fewer distinct frames than clusters")

        inertia = float(dists.sum())
        if prev_inertia is not None and inertia > prev_inertia:
            # rounding noise at convergence; keep the previous, better state
            centroids = prev_centroids
            break
        trace.append(inertia)
        n_iter += 1
        improvement = 1.0 if prev_inertia is None else (
            0.0 if prev_inertia == 0.0 else (prev_inertia - inertia) / prev_inertia)
        prev_inertia = inertia
        prev_centroids = centroids.copy()
        if improvement < tol or inertia == 0.0:
            break
        centroids = _cluster_sums(columns, labels, n_clusters) / counts[:, None]

    return Codebook(
        centroids=prev_centroids,
        frame_rate=frame_rate,
        seed=seed,
        n_iter=n_iter,
        inertia=prev_inertia if prev_inertia is not None else 0.0,
        inertia_trace=trace,
    )


def quantize(codebook: Codebook, fs: FeatureSequence) -> UnitSequence:
    """Assign each frame to its nearest centroid, ties to the lowest index."""
    if fs.dim != codebook.dim:
        raise ValidationError(
            f"{fs.utt_id}: feature dim {fs.dim} != codebook dim {codebook.dim}")
    labels, _ = _assign(fs.frames, codebook.centroids)
    return UnitSequence(fs.utt_id, labels.tolist())


# ---------------------------------------------------------------------------
# codebook file format
# ---------------------------------------------------------------------------

def write_codebook(codebook: Codebook, path) -> None:
    """Binary codebook: ZRCK magic, sizes, f32 centroids, trailing seed.

    A centroid value that f32 cannot hold is a ValidationError naming
    ``path``, raised before the file is opened (``Codebook`` already
    checks the rate as f32).
    """
    with np.errstate(over="ignore"):
        centroids = np.ascontiguousarray(codebook.centroids, dtype="<f4")
    if not np.isfinite(centroids).all():
        raise ValidationError(f"{path}: centroid value beyond the f32 range of "
                              "codebook files")
    k, d = codebook.centroids.shape
    with open(path, "wb") as fh:
        fh.write(_CODEBOOK_HEADER.pack(
            _CODEBOOK_MAGIC, _CODEBOOK_VERSION, k, d, codebook.frame_rate))
        fh.write(centroids.tobytes())
        fh.write(struct.pack("<Q", codebook.seed))


def read_codebook(path) -> Codebook:
    blob = Path(path).read_bytes()
    if len(blob) < _CODEBOOK_HEADER.size:
        raise FormatError(f"{path}: truncated codebook header")
    magic, version, k, d, rate = _CODEBOOK_HEADER.unpack_from(blob)
    if magic != _CODEBOOK_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_CODEBOOK_MAGIC!r}")
    if version != _CODEBOOK_VERSION:
        raise FormatError(f"{path}: unsupported codebook version {version}")
    body = blob[_CODEBOOK_HEADER.size:]
    expected = k * d * 4 + 8
    if len(body) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes after header, got {len(body)}")
    centroids = np.frombuffer(body[:-8], dtype="<f4").reshape(k, d).astype(np.float64)
    (seed,) = struct.unpack("<Q", body[-8:])
    return _named(path, Codebook, centroids, rate, seed)
