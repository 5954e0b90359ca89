"""Exact thin-plate-spline warping between corresponded 3D point sets.

The interpolant minimizes integrated second-derivative bending energy over
R^3; its radial basis is phi(z) = -z / (8 pi). Side conditions on the
non-affine coefficients (zero column sums, orthogonality to the source
coordinates) keep the affine part identifiable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh
from .mesh import NumericalFailure, check_memory

# A fit allocates the dense (J+4)^2 system, whose J x J block holds the
# distances and then the kernel in place, and the solver's (J+4)^2 LU copy:
# about 2 * 8 * (J+4)^2 bytes at once, plus the distances' 2 MB scratch.
# check_tps_size estimates 4 * 8 * (J+4)^2, which leaves headroom: the limit
# of mesh.MEMORY_LIMIT, 2 GiB, is J = 8,188.


def radial_basis(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Optimal 3D interpolation kernel phi(z) = -z / (8 pi), into ``out`` if given."""
    return np.divide(np.asarray(z, dtype=float), -8.0 * np.pi, out=out)


def _distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, into ``out``.
    The squared x, y and z differences are added in that order and the root is
    taken in place, which is scipy's cdist bit for bit. The rows go in blocks
    through a scratch array of at most 2 MB."""
    step = max(1, 2**18 // max(b.shape[0], 1))
    scratch = np.empty((min(step, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], step):
        rows, block = a[start : start + step], out[start : start + step]
        for k in range(3):
            diff = np.subtract(rows[:, k, None], b[None, :, k], out=scratch[: len(rows)] if k else block)
            np.multiply(diff, diff, out=diff)
            if k:
                block += diff
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class WarpField:
    """Fitted warp: control points, non-affine coefficients beta1 (J, 3), affine
    coefficients beta2 (4, 3, first row translation), and the bending energy of
    each coordinate."""

    control_points: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    bending_energy_by_coordinate: np.ndarray

    @property
    def bending_energy(self) -> float:
        return float(self.bending_energy_by_coordinate.sum())


def check_tps_size(n_points: int) -> None:
    """Refuse a warp with ``n_points`` control points whose dense system would
    need more than ``mesh.MEMORY_LIMIT`` bytes, before anything is allocated."""
    estimate = 4 * 8 * (n_points + 4) ** 2
    what = f"a warp with J = {n_points} control points needs about {estimate:,} bytes for its dense system"
    check_memory(estimate, what)


def fit_tps(source: np.ndarray, target: np.ndarray, ridge: float = 0.0) -> WarpField:
    """Fit the warp carrying ``source`` points exactly onto ``target`` points.

    Solves the extended (J+4) x (J+4) system with the affine block Q = (1 X).
    ``ridge`` (finite, at least 0) adds a diagonal term to the kernel block for
    ill-conditioned inputs, trading exact interpolation for stability (default 0: exact).
    Raises ``ValueError`` above ``mesh.MEMORY_LIMIT`` (see :func:`check_tps_size`).
    """
    x = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3 or x.shape != y.shape:
        raise ValueError(f"source and target must both be (J, 3); got {x.shape} and {y.shape}")
    j = x.shape[0]
    if j < 5:
        raise ValueError("need at least 5 control points")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and at least 0, got {ridge!r}")
    check_tps_size(j)
    system = np.zeros((j + 4, j + 4))
    s = _distances(x, x, out=system[:j, :j])
    np.fill_diagonal(s, np.inf)
    if s.min() < 1e-9:
        raise NumericalFailure("duplicate source points make the kernel matrix singular")
    np.fill_diagonal(s, 0.0)

    q = np.hstack([np.ones((j, 1)), x])
    if np.linalg.matrix_rank(q, tol=None) < 4:
        raise NumericalFailure("source points are coplanar; the affine block is rank-deficient")

    radial_basis(s, out=s)
    if ridge:
        s[np.diag_indices(j)] += ridge
    system[:j, j:] = q
    system[j:, :j] = q.T
    rhs = np.vstack([y, np.zeros((4, 3))])
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise NumericalFailure("warp system is singular; check control point configuration") from None
    beta1 = solution[:j]
    beta2 = solution[j:]
    # tr(Y^T Be Y) coordinate by coordinate; exact zero is only reached up to rounding
    per_coordinate = np.maximum(np.einsum("jd,jd->d", y, beta1), 0.0)
    return WarpField(
        control_points=x,
        beta1=beta1,
        beta2=beta2,
        bending_energy_by_coordinate=per_coordinate,
    )


def apply_warp(field: WarpField, points: np.ndarray) -> np.ndarray:
    """Evaluate the warp rowwise: y(x) = sum_j phi(||x - x_j||) beta1_j + (1, x) beta2.

    The (M, J) kernel is built in blocks of rows of at most ``mesh.MEMORY_LIMIT``
    bytes, in one buffer, beside the distances' scratch of at most 2 MB; a
    kernel within the limit is one block.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (M, 3)")
    j = field.control_points.shape[0]
    step = max(1, mesh.MEMORY_LIMIT // (8 * j))
    buffer, out = np.empty((min(step, len(pts)), j)), np.empty((len(pts), 3))
    for start in range(0, len(pts), step):
        rows, block = pts[start : start + step], out[start : start + step]
        kernel = _distances(rows, field.control_points, out=buffer[: len(rows)])
        radial_basis(kernel, out=kernel)
        np.matmul(np.hstack([np.ones((len(rows), 1)), rows]), field.beta2, out=block)
        block += kernel @ field.beta1
    return out

