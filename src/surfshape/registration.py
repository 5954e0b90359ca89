"""Weighted ordinary and generalized Procrustes registration.

The fit criterion is a surface integral approximated by area-weighted vertex
sums, so densely and unevenly triangulated surfaces register the same way the
underlying continuous surfaces would.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .mesh import AreaWeights, ShapeSample, triangle_areas, validate_correspondence, vertex_areas

SIZE_CONSTRAINTS = ("unit_area", "initial_mean_area")


@dataclass(frozen=True)
class SimilarityTransform:
    """y = scale * x @ rotation + translation, applied to row-vector coordinates."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-8):
            raise ValueError("rotation is not orthogonal")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def apply(self, shape: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(shape, dtype=float) @ self.rotation + self.translation

    def inverse(self) -> "SimilarityTransform":
        inv_scale = 1.0 / self.scale
        return SimilarityTransform(inv_scale, self.rotation.T, -inv_scale * self.translation @ self.rotation.T)

    def rescaled(self, factor: float) -> "SimilarityTransform":
        """The transform followed by a uniform scaling about the origin."""
        return SimilarityTransform(self.scale * factor, self.rotation, self.translation * factor)


class OpaFit(NamedTuple):
    transform: SimilarityTransform
    fitted: np.ndarray
    rss: float


@dataclass(frozen=True)
class GpaResult:
    """Generalized Procrustes output: mean shape, aligned shapes, per-shape transforms."""

    mean: np.ndarray
    aligned: np.ndarray
    transforms: tuple[SimilarityTransform, ...]
    mean_weights: AreaWeights
    iterations: int
    objective_trace: np.ndarray
    converged: bool


def _check_pair(source: np.ndarray, target: np.ndarray, weights: AreaWeights) -> None:
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError(f"shapes must both be (J, 3); got {source.shape} and {target.shape}")
    if weights.weights.shape[0] != source.shape[0]:
        raise ValueError("weight vector length does not match the shapes")


def _target(y: np.ndarray, a: np.ndarray) -> tuple:
    """The target side of a weighted OPA for a (3, J) target ``y``, computed
    once for every shape fitted onto it: (y, a, sum of a, weighted centroid,
    a * centred y)."""
    total = a.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    centroid = y @ a / total
    return y, a, total, centroid, (y - centroid[:, None]) * a


def _opa(
    x: np.ndarray, target: tuple, allow_scaling: bool, allow_reflection: bool, out: np.ndarray | None = None
) -> tuple[SimilarityTransform, np.ndarray, float]:
    """Weighted OPA of a (3, J) source onto a target prepared by :func:`_target`.

    Coordinate-major arrays keep every pass over the shape a run over J.
    Returns the transform, the fitted source as (3, J) (written to ``out``
    when given) and the weighted residual sum of squares.
    """
    y, a, total, centroid_y, weighted_yc = target
    if np.array_equal(x, y):
        # the optimum is the exact identity; the SVD route would leave rounding noise
        fitted = np.empty_like(y) if out is None else out
        fitted[...] = y
        return SimilarityTransform.identity(), fitted, 0.0

    centroid_x = x @ a / total
    xc = x - centroid_x[:, None]
    cross_cov = xc @ weighted_yc.T  # X^T A Y, 3x3
    u, s, vt = np.linalg.svd(cross_cov)
    if s[0] <= 0 or s[1] <= s[0] * 1e-12:
        raise ValueError("degenerate configuration: points are collinear or coincident")
    signs = np.ones(3)
    if not allow_reflection and np.linalg.det(u @ vt) < 0:
        signs[2] = -1.0
    rotation = (u * signs) @ vt

    if allow_scaling:
        scale = float(signs @ s) / float(np.einsum("j,kj,kj->", a, xc, xc))
        if scale <= 0:
            raise ValueError("degenerate configuration: non-positive scale")
    else:
        scale = 1.0

    translation = centroid_y - scale * centroid_x @ rotation
    fitted = np.matmul(scale * rotation.T, x, out=out)
    fitted += translation[:, None]
    residual = y - fitted
    rss = float(np.einsum("j,kj,kj->", a, residual, residual))
    return SimilarityTransform(scale, rotation, translation), fitted, rss


def weighted_opa(
    source: np.ndarray,
    target: np.ndarray,
    weights: AreaWeights,
    allow_scaling: bool = True,
    allow_reflection: bool = False,
) -> OpaFit:
    """Fit ``source`` onto ``target`` minimizing the area-weighted squared misfit.

    Minimizes sum_j a_j ||target_j - s R^T source_j - t||^2 over similarity
    parameters. ``weights`` should come from the target surface. With
    ``allow_reflection`` the orthogonal part may have determinant -1.

    Returns the transform, the fitted source in the target frame, and the
    weighted residual sum of squares.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_pair(source, target, weights)
    transform, fitted, rss = _opa(
        np.ascontiguousarray(source.T),
        _target(np.ascontiguousarray(target.T), weights.weights),
        allow_scaling,
        allow_reflection,
    )
    return OpaFit(transform, fitted.T, rss)


def weighted_gpa(
    sample: ShapeSample,
    max_iter: int = 100,
    tol: float = 1e-10,
    size_constraint: str = "unit_area",
    allow_scaling: bool = True,
    weight_overrides: dict[int, float] | None = None,
) -> GpaResult:
    """Register a cohort to a common mean by iterated weighted OPA.

    Each iteration re-estimates the mean as the average of the aligned shapes,
    rescales it to the size constraint, recomputes its area weights, and
    re-fits every shape onto it. Stops when the relative change of the
    weighted objective falls below ``tol`` or the objective reaches
    rounding-noise level. Because the weights are recomputed from the evolving
    mean, successive trace entries evaluate slightly different criteria; on
    noisy cohorts the trace can wobble a few orders above machine precision
    even though the state converges to an order-independent fixed point.

    The returned ``mean`` (J, 3) and ``aligned`` (n, J, 3) are transposed
    views of coordinate-major arrays.
    """
    if size_constraint not in SIZE_CONSTRAINTS:
        raise ValueError(f"size_constraint must be one of {SIZE_CONSTRAINTS}")
    if sample.n_shapes < 2:
        raise ValueError("generalized registration needs at least two shapes")
    report = validate_correspondence(sample)
    if not report.ok:
        raise ValueError("sample fails correspondence validation: " + "; ".join(report.problems))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    # the cohort and the mean are coordinate-major: shapes[i] is a contiguous
    # (3, J) block (np.stack of the transposed views would keep their strides)
    reference = sample.meshes[0]
    shapes = np.empty((sample.n_shapes, 3, sample.n_vertices))
    for shape, mesh in zip(shapes, sample.meshes):
        shape[...] = mesh.vertices.T

    def surface_area(mean: np.ndarray) -> float:
        return triangle_areas(reference.with_vertices(mean.T)).sum()

    def mean_weights(mean: np.ndarray) -> AreaWeights:
        return vertex_areas(reference.with_vertices(mean.T), weight_overrides)

    mean = shapes[0].copy()
    init_weights = vertex_areas(reference, weight_overrides)
    mean -= (mean @ init_weights.weights / init_weights.total_area)[:, None]
    initial_area = surface_area(mean)
    target_area = 1.0 if size_constraint == "unit_area" else initial_area
    mean *= np.sqrt(target_area / initial_area)

    aligned = np.empty_like(shapes)
    transforms: list[SimilarityTransform] = []
    trace: list[float] = []
    converged = False
    previous = np.inf
    for _ in range(max_iter):
        weights = mean_weights(mean)
        target = _target(mean, weights.weights)
        transforms = []
        objective = 0.0
        for x, out in zip(shapes, aligned):
            transform, _, rss = _opa(x, target, allow_scaling, False, out=out)
            transforms.append(transform)
            objective += rss
        trace.append(objective)
        noise_floor = 1e-24 * len(shapes) * float(np.einsum("j,kj,kj->", weights.weights, mean, mean))
        if objective <= noise_floor or (
            np.isfinite(previous) and abs(previous - objective) <= tol * max(previous, np.finfo(float).tiny)
        ):
            converged = True
            break
        previous = objective
        mean = aligned.mean(axis=0)
        # re-anchor translation: the rescale below would otherwise compound any
        # centroid offset geometrically across iterations
        new_weights = mean_weights(mean)
        mean -= (mean @ new_weights.weights / new_weights.total_area)[:, None]
        mean *= np.sqrt(target_area / surface_area(mean))

    # Final common rescale: keeps mean == average(aligned) exactly while
    # restoring the size constraint that the last averaging perturbed.
    factor = float(np.sqrt(target_area / surface_area(aligned.mean(axis=0))))
    aligned *= factor
    mean = aligned.mean(axis=0)
    return GpaResult(
        mean=mean.T,
        aligned=aligned.transpose(0, 2, 1),
        transforms=tuple(t.rescaled(factor) for t in transforms),
        mean_weights=mean_weights(mean),
        iterations=len(trace),
        objective_trace=np.asarray(trace),
        converged=converged,
    )


def vec(shape: np.ndarray) -> np.ndarray:
    """Stack a (J, 3) matrix column-wise into a length-3J vector (x block, y block, z block)."""
    shape = np.asarray(shape, dtype=float)
    if shape.ndim != 2 or shape.shape[1] != 3:
        raise ValueError(f"expected a (J, 3) matrix, got {shape.shape}")
    return shape.reshape(-1, order="F")


def vec_inverse(v: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`vec`: reassemble a length-3J vector into (J, 3)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size % 3:
        raise ValueError(f"expected a length-3J vector, got shape {v.shape}")
    return v.reshape(v.size // 3, 3, order="F")


def tangent_coordinates(aligned: np.ndarray | Sequence[np.ndarray], mean: np.ndarray) -> np.ndarray:
    """Approximate tangent coordinates vec(X_i - mean), one row per shape."""
    mean = np.asarray(mean, dtype=float)
    aligned = np.asarray(aligned, dtype=float)
    if aligned.ndim == 2:
        aligned = aligned[None]
    if aligned.shape[1:] != mean.shape:
        raise ValueError(f"aligned shapes {aligned.shape[1:]} do not match mean {mean.shape}")
    deviations = aligned - mean
    return deviations.transpose(0, 2, 1).reshape(aligned.shape[0], -1)
