"""Weighted ordinary and generalized Procrustes registration.

The fit criterion is a surface integral approximated by area-weighted vertex
sums, so densely and unevenly triangulated surfaces register the same way the
underlying continuous surfaces would.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .mesh import AreaWeights, NumericalFailure, ShapeSample, _area_weights, triangle_areas, vertex_areas

SIZE_CONSTRAINTS = ("unit_area", "initial_mean_area")
MIN_TOL = 1e-15  # GPA's smallest stop tolerance: below it, rounding sets the iteration count


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
    objective_trace: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)


def _check_pair(source: np.ndarray, target: np.ndarray, weights: AreaWeights) -> None:
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError(f"shapes must both be (J, 3); got {source.shape} and {target.shape}")
    if weights.weights.shape[0] != source.shape[0]:
        raise ValueError("weight vector length does not match the shapes")


def _load_centred(vertices: np.ndarray, out: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Write the (J, 3) ``vertices`` coordinate-major into the (3, J) ``out``,
    moved to their centroid under ``weights`` (the vertex mean when None), and
    return that centroid. The expanded sums of squares in :func:`_fit_stack`
    lose about 2 log10(|c| / s) of 16 digits, c the weighted centroid after the
    move and s the weighted spread. The weighted centroid loses none; the vertex
    mean loses all once zero-weight vertices pull it 1e8 s away."""
    out[...] = vertices.T
    offset = out.mean(axis=1) if weights is None else out @ weights / weights.sum()
    out -= offset[:, None]
    return offset


def _similarity(scale: float, rotation: np.ndarray, translation: np.ndarray, offset: np.ndarray) -> SimilarityTransform:
    """The transform x -> scale * (x - offset) @ rotation + translation."""
    return SimilarityTransform(scale, rotation, translation - scale * offset @ rotation)


def _fit_stack(
    stack: np.ndarray, y: np.ndarray, a: np.ndarray, allow_scaling: bool, allow_reflection: bool, fitted_sum: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted OPA of every shape of a coordinate-major (n, 3, J) ``stack``
    onto the (3, J) target ``y`` with vertex weights ``a`` of positive sum.

    Three passes over the stack: one (3, J) x (J, 4) product per shape against
    [a (y - ybar) | a] (one (3n, J) GEMM would round by BLAS thread) gives every
    centroid and cross-covariance; one einsum every weighted sum of squares,
    expanded as sum a |x|^2 - total |xbar|^2 (so callers centre the shapes
    first, see :func:`_load_centred`); one (3, 3n) x (3n, J) product writes the
    sum of the fits s R^T x + t into ``fitted_sum`` (3, J). That product sums
    over the 3n rows, which OpenBLAS does not split among its threads.

    Each residual sum of squares comes from the closed form, Syy - s tr with
    scaling and Syy + Sxx - 2 tr without (tr the signed singular-value sum).
    Returns the scales (n,), rotations (n, 3, 3), translations (n, 3), those
    residual sums of squares (n,) and a bound on each one's rounding error,
    256 eps (Syy + s^2 sum a |x|^2) (n,).
    """
    total = a.sum()
    n, _, n_vertices = stack.shape
    centroid_y = y @ a / total
    weighted = np.empty((4, n_vertices))
    np.subtract(y, centroid_y[:, None], out=weighted[:3])
    syy = np.einsum("j,kj,kj->", a, weighted[:3], weighted[:3])
    weighted[:3] *= a
    weighted[3] = a
    products = np.matmul(stack, weighted.T)
    centroid_x = products[:, :, 3] / total
    # sum_j a_j (y_j - ybar) = 0, so x A (y - ybar)^T is the cross-covariance
    # of the centred shapes without centring x
    u, s, vt = np.linalg.svd(products[:, :, :3])
    if (s[:, 0] <= 0).any() or (s[:, 1] <= s[:, 0] * 1e-12).any():
        raise NumericalFailure("degenerate configuration: points are collinear or coincident")
    signs = np.ones((n, 3))
    if not allow_reflection:
        signs[np.linalg.det(u @ vt) < 0, 2] = -1.0
    rotations = (u * signs[:, None, :]) @ vt
    traces = (signs * s).sum(axis=1)
    sxx_raw = np.einsum("nkj,nkj,j->n", stack, stack, a)
    sxx = sxx_raw - total * (centroid_x * centroid_x).sum(axis=1)

    if allow_scaling:
        scales = traces / sxx
        if (scales <= 0).any():
            raise NumericalFailure("degenerate configuration: non-positive scale")
        if not np.isfinite(scales).all():
            raise NumericalFailure("degenerate configuration: the scale is not finite")
        rss = syy - scales * traces
    else:
        scales = np.ones(n)
        rss = syy + sxx - 2.0 * traces

    translations = centroid_y - scales[:, None] * (centroid_x[:, None, :] @ rotations)[:, 0]
    # the (3, 3n) matrix [s_1 R_1^T | ... | s_n R_n^T], stored as its transpose
    blocks = (scales[:, None, None] * rotations).reshape(3 * n, 3)
    np.matmul(blocks.T, stack.reshape(3 * n, n_vertices), out=fitted_sum)
    fitted_sum += translations.sum(axis=0)[:, None]
    return scales, rotations, translations, rss, 256 * np.finfo(float).eps * (syy + scales * scales * sxx_raw)


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
    if np.array_equal(source, target):
        # the optimum is the exact identity; the SVD route would leave rounding noise
        return OpaFit(SimilarityTransform.identity(), target.copy(), 0.0)
    if weights.weights.sum() <= 0:  # before the weighted centroid and _fit_stack divide by it
        raise ValueError("weights sum to zero")
    x = np.empty((1, 3, source.shape[0]))
    offset = _load_centred(source, x[0], weights.weights)
    y = np.ascontiguousarray(target.T)
    fitted = np.empty_like(y)  # the sum of one fit is the fit
    scales, rotations, translations, _, _ = _fit_stack(x, y, weights.weights, allow_scaling, allow_reflection, fitted)
    residual = y - fitted
    rss = np.einsum("j,kj,kj->", weights.weights, residual, residual)
    return OpaFit(_similarity(scales[0], rotations[0], translations[0], offset), fitted.T, float(rss))


def weighted_gpa(
    sample: ShapeSample,
    max_iter: int = 100,
    tol: float = 1e-10,
    size_constraint: str = "unit_area",
    allow_scaling: bool = True,
    weight_overrides: dict[int, float] | None = None,
) -> GpaResult:
    """Register a cohort to a common mean by iterated weighted OPA.

    Each iteration fits every shape onto the mean, re-estimates the mean as
    the average of the fitted shapes, re-anchors it at its weighted centroid,
    rescales it to the size constraint and recomputes its area weights.
    Stops when the relative change of the weighted objective falls below
    ``tol`` (finite and at least :data:`MIN_TOL`) or the objective reaches
    rounding-noise level. Because the weights are recomputed from the evolving
    mean, successive trace entries evaluate slightly different criteria; on
    noisy cohorts the trace can wobble a few orders above machine precision
    even though the state converges to an order-independent fixed point.

    An iteration makes three passes over the cohort, with no per-shape loop:
    the batched cross-products against the mean, the weighted sums of squares,
    and one (3, 3n) x (3n, J) product that sums the fitted shapes into the new
    mean. Each fit's residual sum of squares comes from the Procrustes closed
    form; a shape whose closed form's rounding bound is not below ``tol`` of
    the value takes one more pass for its explicit residual.

    Memory: GPA allocates one coordinate-major (n, 3, J) working stack, plus
    buffers of a single shape's size. The stack holds the input shapes while
    iterating and the aligned shapes at the end; it is returned as
    ``aligned``. The returned ``mean`` (J, 3) and ``aligned`` (n, J, 3) are
    transposed views of coordinate-major arrays.
    """
    if size_constraint not in SIZE_CONSTRAINTS:
        raise ValueError(f"size_constraint must be one of {SIZE_CONSTRAINTS}")
    if sample.n_shapes < 2:
        raise ValueError("generalized registration needs at least two shapes")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (np.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be finite and at least {MIN_TOL:g}, got {tol}")

    # the cohort and the mean are coordinate-major: stack[i] is a contiguous
    # (3, J) block, shape i moved by -offsets[i] until the aligned shapes
    # replace it
    reference = sample.meshes[0]
    n = sample.n_shapes
    stack = np.empty((n, 3, sample.n_vertices))
    offsets = np.array([_load_centred(mesh.vertices, shape) for shape, mesh in zip(stack, sample.meshes)])

    def normalize(mean: np.ndarray, areas: np.ndarray) -> AreaWeights:
        """Move the (3, J) ``mean``, whose triangles have ``areas``, to its weighted
        centroid and rescale it to ``target_area`` in place; return its weights.
        The translation keeps the areas, the rescale multiplies them by its square."""
        anchor = _area_weights(reference, areas, weight_overrides)
        if anchor.total_area <= 0:  # before the centroid divides by it
            raise ValueError("weights sum to zero")
        mean -= (mean @ anchor.weights / anchor.total_area)[:, None]
        ratio = target_area / areas.sum()
        mean *= np.sqrt(ratio)
        return _area_weights(reference, areas * ratio, weight_overrides)

    areas = triangle_areas(reference)
    target_area = 1.0 if size_constraint == "unit_area" else float(areas.sum())
    mean = stack[0].copy()
    weights = normalize(mean, areas)
    average, fitted = np.empty_like(mean), np.empty_like(mean)

    def fit(i: int) -> np.ndarray:
        """Shape i's fit s R^T x + t, written into the one-shape buffer ``fitted``."""
        np.matmul(scales[i] * rotations[i].T, stack[i], out=fitted)
        return np.add(fitted, translations[i][:, None], out=fitted)

    trace: list[float] = []
    converged = False
    previous = np.inf
    for iteration in range(max_iter):
        scales, rotations, translations, rss, rounding = _fit_stack(
            stack, mean, weights.weights, allow_scaling, False, average
        )
        for i in np.flatnonzero(~(rss * tol > rounding)):  # the closed form cannot resolve tol
            residual = np.subtract(mean, fit(i), out=fitted)
            rss[i] = np.einsum("j,kj,kj->", weights.weights, residual, residual)
        objective = float(rss.sum())
        trace.append(objective)
        noise_floor = 1e-24 * n * float(np.einsum("j,kj,kj->", weights.weights, mean, mean))
        converged = objective <= noise_floor or (
            np.isfinite(previous) and abs(previous - objective) <= tol * max(previous, np.finfo(float).tiny)
        )
        previous = objective
        average /= n
        areas = triangle_areas(reference.with_vertices(average.T))
        if converged or iteration == max_iter - 1:
            break
        # re-anchor translation: the rescale would otherwise compound any
        # centroid offset geometrically across iterations
        weights = normalize(average, areas)
        mean, average = average, mean

    # Final common rescale: keeps mean == average(aligned) exactly while
    # restoring the size constraint that the last averaging perturbed. The
    # aligned shapes replace the input shapes in the stack.
    factor = float(np.sqrt(target_area / areas.sum()))
    mean = average
    mean[...] = 0.0
    for i, x in enumerate(stack):
        np.multiply(fit(i), factor, out=x)
        mean += x
    mean /= n
    return GpaResult(
        mean=mean.T,
        aligned=stack.transpose(0, 2, 1),
        transforms=tuple(
            _similarity(scale * factor, rotation, translation * factor, offset)
            for scale, rotation, translation, offset in zip(scales, rotations, translations, offsets)
        ),
        mean_weights=vertex_areas(reference.with_vertices(mean.T), weight_overrides),
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


def _tangent_over_stack(gpa: GpaResult) -> np.ndarray:
    """``tangent_coordinates(gpa.aligned, gpa.mean)`` bit for bit, written over
    GPA's stack (``gpa.aligned`` holds them afterwards) as an (n, 3J) view."""
    stack = gpa.aligned.transpose(0, 2, 1)
    np.subtract(stack, gpa.mean.T, out=stack)
    return stack.reshape(stack.shape[0], -1)
