"""Functional principal component analysis under the area-weighted inner product.

The weighted problem is reduced to ordinary PCA by the isometry that scales
every coordinate slot of vertex j by sqrt(a_j); eigenfunctions come back
orthonormal under <u, v>_A = sum_j a_j u_j . v_j.

The reduction shared by :func:`fit_fpca` and both permutation modes walks the
(n, 3J) rows in blocks of 8,192 columns (the block of ``triangle_areas``) through
one (n, 8,192) buffer (:func:`_blocks`): each block is scaled by sqrt(a), then
centred, and its n x n Gram matrix and sum of squares are added up
(:func:`_gram`; the method of snapshots, as n is far below 3J). The total
variance comes from the same pass, fit_fpca maps its eigenfunctions back over
the same blocks, and no step allocates an array of the cohort's size. The rank
counts Gram eigenvalues above 1e-12 of the largest, i.e. singular values above
1e-6 of the largest: Gram eigenvalues are only accurate to about eps times the
largest, and a tighter rule would count the null direction left by centring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import _BLOCK, AreaWeights, NumericalFailure, check_memory
from .registration import tangent_coordinates, vec_inverse


@dataclass(frozen=True)
class FpcaModel:
    """Fitted component model: mean shape, weights, eigenfunctions (rows), eigenvalues.

    ``total_variance`` (positive, finite, and at least the eigenvalue sum up to
    1e-12 relative) is the sample's total weighted variance, and ``explained``
    (derived) its cumulative fractions, so truncated models report fractions
    of the full spectrum. ``warnings`` records fit-time adjustments such as
    rank truncation.
    """

    mean: np.ndarray
    weights: AreaWeights
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    explained: np.ndarray = field(init=False)
    total_variance: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if (lam < 0).any() or (np.diff(lam) > 0).any():
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        j = self.weights.weights.size
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (j, 3):
            raise ValueError(f"mean must be ({j}, 3) for {j} vertex weights, got {mean.shape}")
        e = np.asarray(self.eigenfunctions, dtype=float)
        if e.shape != (lam.size, 3 * j):
            raise ValueError(
                f"eigenfunctions must be ({lam.size}, {3 * j}): one row of 3J entries per eigenvalue, got {e.shape}"
            )
        if not 0 < self.total_variance < np.inf:
            raise ValueError(f"total_variance must be positive and finite, got {self.total_variance!r}")
        if lam.sum() > self.total_variance * (1 + 1e-12):
            raise ValueError(f"total_variance {float(self.total_variance)!r} is below the eigenvalue sum {lam.sum()}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigenfunctions", e)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "explained", np.cumsum(lam) / self.total_variance)

    @property
    def n_components(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class GrandTour:
    """A seeded random walk through component space rendered as a shape sequence."""

    frames: np.ndarray  # (n_frames, J, 3)
    z_vectors: np.ndarray  # (n_stops, p) standard-normal draws behind the stops
    stop_indices: np.ndarray  # frame index of each stop


def _blocks(rows: np.ndarray, weights: AreaWeights | None):
    """Yield (columns, block, root weights) over the (n, m) ``rows`` in blocks of
    _BLOCK columns, each scaled by its root weights sqrt(``weights.stacked``) (1
    when ``weights`` is None), then centred, in one reused buffer."""
    n, m = rows.shape
    root = np.ones(m) if weights is None else np.sqrt(weights.stacked)
    if root.size != m:
        raise ValueError(f"weights are for {root.size // 3} vertices, data has {m // 3}")
    buffer = np.empty((n, min(m, _BLOCK)))
    for start in range(0, m, _BLOCK):
        cols = slice(start, min(start + _BLOCK, m))
        block = np.multiply(rows[:, cols], root[cols], out=buffer[:, : cols.stop - start])
        block -= block.mean(axis=0)
        yield cols, block, root[cols]


def _gram(rows: np.ndarray, weights: AreaWeights | None) -> tuple[np.ndarray, float]:
    """The n x n Gram matrix and the sum of squares of the :func:`_blocks`, added
    up block by block (einsum, not BLAS vdot, so the order is thread-independent)."""
    gram, total = np.zeros((len(rows), len(rows))), 0.0
    for _, block, _ in _blocks(rows, weights):
        gram += block @ block.T
        total += float(np.einsum("ij,ij->", block, block))
    return gram, total


def _spectrum(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenvectors ``u`` (columns), eigenvalues ``lam`` (descending, rounding
    negatives clipped to 0) and rank (``lam > lam[0] * 1e-12``) of a Gram matrix:
    the left singular vectors and squared singular values of the rows behind it."""
    lam, u = np.linalg.eigh(gram)
    lam = np.maximum(lam[::-1], 0.0)
    return u[:, ::-1], lam, int(np.count_nonzero(lam > lam[0] * 1e-12))


def check_component_rule(k, name: str = "k") -> bool:
    """Refuse a component rule that is neither a positive count nor a float
    fraction in (0, 1), naming it ``name``; return whether it is a fraction."""
    fraction = isinstance(k, (float, np.floating))
    if isinstance(k, bool) or not (fraction or isinstance(k, (int, np.integer))) or (fraction and not 0 < k < 1):
        raise ValueError(f"{name} must be a component count or a variance fraction in (0, 1)")
    if not fraction and k < 1:
        raise ValueError(f"{name}: component count must be positive, got {k}")
    return fraction


def fit_fpca(
    tangent: np.ndarray,
    weights: AreaWeights,
    k: int | float = 0.80,
    mean_shape: np.ndarray | None = None,
) -> FpcaModel:
    """Fit area-weighted principal components to tangent coordinates (n, 3J).

    ``k`` selects components: an int keeps that many (truncated to the
    available rank, with a warning recorded on the model), a fraction in (0, 1)
    keeps the smallest K whose cumulative explained variance reaches it; any
    other float is refused.
    ``mean_shape`` is the (J, 3) shape the tangent coordinates deviate from;
    it becomes the model mean used by scores/reconstruct.

    The spectrum and rank come from the module's reduction. Memory, in stacks
    of the (n, 3J) input: the block buffer (8,192 / 3J), 3J vectors (1/n each)
    and the returned (K, 3J) eigenfunctions (K/n); no copy of the input.
    """
    fraction = check_component_rule(k)
    tangent = np.asarray(tangent, dtype=float)
    if tangent.ndim != 2:
        raise ValueError("tangent must be (n, 3J)")
    n, m = tangent.shape
    if n < 2:
        raise ValueError("need at least two samples")
    if m % 3:
        raise ValueError("tangent row length must be 3J")
    gram, total = _gram(tangent, weights)

    if mean_shape is None:
        mean_shape = np.zeros((m // 3, 3))
    mean_shape = np.asarray(mean_shape, dtype=float)
    if mean_shape.shape != (m // 3, 3):
        raise ValueError(f"mean_shape must be ({m // 3}, 3)")

    u, lam, rank = _spectrum(gram)
    eigenvalues = lam / (n - 1)
    total_variance = total / (n - 1)

    warnings: list[str] = []
    if fraction:
        if total_variance <= 0:
            raise NumericalFailure("no variance in the sample")
        fractions = np.cumsum(eigenvalues[:rank]) / total_variance
        keep = int(np.searchsorted(fractions, k - 1e-12) + 1)
        keep = min(keep, rank)
    else:
        keep = int(k)
        if keep > rank:
            warnings.append(f"requested {keep} components but rank is {rank}; truncated")
            keep = rank
    if keep == 0:
        raise NumericalFailure("no variance in the sample")

    eigenfunctions = np.empty((keep, m))
    for cols, block, root in _blocks(tangent, weights):
        part = np.matmul(u[:, :keep].T, block, out=eigenfunctions[:, cols])
        part /= np.sqrt(lam[:keep])[:, None]
        # zero-weight vertices carry no variance; keep their eigenfunction entries at 0
        part *= np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    # deterministic sign: the largest-magnitude entry of each eigenfunction is positive
    for e in eigenfunctions:  # a row at a time, so |e| is one 3J vector
        if e[np.argmax(np.abs(e))] < 0:
            e *= -1.0

    return FpcaModel(
        mean=mean_shape,
        weights=weights,
        eigenfunctions=eigenfunctions,
        eigenvalues=eigenvalues[:keep],
        total_variance=total_variance,
        warnings=tuple(warnings),
    )


def scores(model: FpcaModel, shapes: np.ndarray) -> np.ndarray:
    """Component scores <vec(shape - mean), e_k>_A of a (J, 3) shape registered to the
    model mean, or one row per shape for an (n, J, 3) stack."""
    shapes = np.asarray(shapes, dtype=float)
    if shapes.ndim not in (2, 3) or shapes.shape[-2:] != model.mean.shape:
        raise ValueError(f"shape {shapes.shape} does not match model mean {model.mean.shape}")
    rows = scores_from_tangent(model, tangent_coordinates(shapes, model.mean))
    return rows[0] if shapes.ndim == 2 else rows


def scores_from_tangent(model: FpcaModel, tangent: np.ndarray) -> np.ndarray:
    """Scores for tangent-coordinate rows (n, 3J) already relative to the model mean."""
    tangent = np.atleast_2d(np.asarray(tangent, dtype=float))
    return np.einsum("nm,km->nk", tangent, model.eigenfunctions * model.weights.stacked)


def reconstruct(model: FpcaModel, score_vector: np.ndarray) -> np.ndarray:
    """Shape with the given component scores: mean + vec^-1(sum_k s_k e_k)."""
    s = np.asarray(score_vector, dtype=float)
    if s.shape != (model.n_components,):
        raise ValueError(f"expected {model.n_components} scores, got shape {s.shape}")
    return model.mean + vec_inverse(np.einsum("k,km->m", s, model.eigenfunctions))


def component_shape(model: FpcaModel, k: int, c: float) -> np.ndarray:
    """Shape c standard deviations along component k (1-based): mean + c sqrt(lambda_k) e_k."""
    if not 1 <= k <= model.n_components:
        raise ValueError(f"component {k} outside 1..{model.n_components}")
    displacement = c * np.sqrt(model.eigenvalues[k - 1]) * model.eigenfunctions[k - 1]
    return model.mean + vec_inverse(displacement)


def grand_tour(
    model: FpcaModel,
    p: int,
    n_stops: int,
    seed: int | None = None,
    frames_per_leg: int = 9,
) -> GrandTour:
    """Random tour of the first ``p`` components: normal stops joined by linear interpolation.

    ``n_stops`` standard-normal p-vectors are drawn from a generator seeded with
    ``seed``, so the seed replays a tour. Interpolation is linear in tangent
    space with ``frames_per_leg`` shapes strictly between consecutive stops.
    """
    if not 1 <= p <= model.n_components:
        raise ValueError(f"p must be in 1..{model.n_components}")
    if n_stops < 1:
        raise ValueError("need at least one stop")
    if frames_per_leg < 0:
        raise ValueError("frames_per_leg must be non-negative")
    # the frames and their stacked copy: 48 bytes per vertex of each frame
    n_frames, j = (n_stops - 1) * (frames_per_leg + 1) + 1, model.mean.shape[0]
    need = 48 * n_frames * j
    check_memory(need, f"a tour of {n_frames:,} frames of {j:,} vertices needs about {need:,} bytes")
    z = np.random.default_rng(seed).standard_normal((n_stops, p))
    displacements = (z * np.sqrt(model.eigenvalues[:p])) @ model.eigenfunctions[:p]
    stops = [model.mean + vec_inverse(d) for d in displacements]
    frames: list[np.ndarray] = [stops[0]]
    stop_indices = [0]
    for a, b in zip(stops[:-1], stops[1:]):
        for step in range(1, frames_per_leg + 1):
            t = step / (frames_per_leg + 1)
            frames.append((1 - t) * a + t * b)
        frames.append(b)
        stop_indices.append(len(frames) - 1)
    return GrandTour(
        frames=np.stack(frames),
        z_vectors=z,
        stop_indices=np.asarray(stop_indices, dtype=np.intp),
    )


def variability_map(aligned: np.ndarray) -> np.ndarray:
    """Per-vertex log-determinant of the 3x3 covariance of aligned positions.

    Vertices whose covariance is singular (e.g. duplicated data) get -inf so
    the map stays renderable after range clamping.
    """
    aligned = np.asarray(aligned, dtype=float)
    if aligned.ndim != 3 or aligned.shape[2] != 3:
        raise ValueError("aligned must be (n, J, 3)")
    n = aligned.shape[0]
    if n < 4:
        raise ValueError("need at least 4 shapes for a per-vertex covariance")
    # offsetting by the first shape keeps identical cohorts exactly singular
    rel = aligned - aligned[0]
    centered = rel - rel.mean(axis=0)
    cov = np.einsum("njk,njl->jkl", centered, centered) / (n - 1)
    det = np.linalg.det(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(det > 0, np.log(np.where(det > 0, det, 1.0)), -np.inf)
    return out
