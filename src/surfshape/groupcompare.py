"""Two-group inference in component spaces.

:func:`permutation_test` computes the global Hotelling T2 and per-component t
statistics in closed form and gets their reference distributions from label
permutations, either with components fixed by a label-blind PCA or re-derived
from the pooled within-group covariance for every permutation (the
group-shape-space variant).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fpca import FpcaModel, _gram, _spectrum
from .mesh import AreaWeights, NumericalFailure, check_memory
from .registration import vec_inverse

PERMUTATION_MODES = ("tangent_pca", "group_shape_space")

_CHUNK = 128  # permutations per evaluation batch: bounds the memory of one pass
# a permuted statistic within this factor below the observed one is a tie: two
# labellings that are the same split of the shapes differ only in rounding
_TIE = 1 - 1e-12
_NEWTON_STEPS = 100
_EPS = np.finfo(float).eps

COMPONENT_P_VALUE_CAVEAT = (
    "per-component p-values are calibrated against the null hypothesis that "
    "all component means are identical simultaneously, not component-wise nulls"
)


@dataclass(frozen=True)
class GroupTestReport:
    """Permutation-test outcome for a two-group comparison on p components
    (``component_p.size``); the settings the test ran with are not echoed."""

    group_names: tuple[str, str]
    global_stat: float
    component_stats: np.ndarray
    global_p: float
    component_p: np.ndarray
    bonferroni_alpha: float
    permuted_global: np.ndarray
    permuted_components: np.ndarray

    @property
    def significant(self) -> tuple[int, ...]:
        """1-based indices of the components whose p-value is below ``bonferroni_alpha``."""
        return tuple(int(i + 1) for i in np.flatnonzero(self.component_p < self.bonferroni_alpha))

    def permuted_quartiles(self) -> dict[str, np.ndarray]:
        """(25%, 50%, 75%) of the permutation draws, for box-style displays."""
        q = (25.0, 50.0, 75.0)
        return {
            "global": np.percentile(self.permuted_global, q),
            "components": np.percentile(self.permuted_components, q, axis=0).T,
        }


@dataclass(frozen=True)
class SubspaceEffect:
    """Simultaneous +/- movement along a component subset, scaled to a common contour."""

    components: tuple[int, ...]
    plus_shape: np.ndarray
    minus_shape: np.ndarray
    multiplier: float


def _group_masks(labels) -> tuple[np.ndarray, tuple[str, str]]:
    labels = np.asarray(labels)
    names = np.unique(labels)
    if names.size != 2:
        raise ValueError(f"need exactly two groups, got {names.size}")
    mask_a = labels == names[0]
    return mask_a, (str(names[0]), str(names[1]))


def _mean_differences(coords: np.ndarray, masks_a: np.ndarray) -> np.ndarray:
    """mean_a - mean_b over ``coords`` for every mask row. Both means come from one
    gather and sum over ascending member indices, with no BLAS call, so a repeated
    split reads the same bits in any batch and a swapped one reads exactly -d."""
    na = int(masks_a[0].sum())
    members = coords[np.argsort(~masks_a, axis=1, kind="stable")]
    return members[:, :na].sum(axis=1) / na - members[:, na:].sum(axis=1) / (coords.shape[0] - na)


def _tangent_pca_stats(lam: np.ndarray, d: np.ndarray, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(T2/p) and |t_l| on the label-blind PCA scores, whose pooled scatter is
    diag(lam) - rho d d^T; Sherman-Morrison inverts it in closed form."""
    d2 = d * d
    var = lam - rho * d2
    if (var <= 1e-12 * lam).any():
        raise NumericalFailure("a component has zero pooled variance")
    s = (d2 / lam).sum(axis=1)
    det_ratio = 1.0 - rho * s  # det(pooled scatter) / det(diag(lam))
    if (det_ratio <= 1e-12).any():
        raise NumericalFailure("pooled covariance singular; reduce p")
    t2 = (n - 2) * rho * s / det_ratio
    return np.sqrt(t2 / d.shape[1]), np.abs(d) * np.sqrt((n - 2) * rho / var)


def _group_shape_space_stats(
    lam: np.ndarray, d: np.ndarray, rho: float, n: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(T2/p) and |t_k| in the eigenbasis of each row's pooled within-group
    scatter W = diag(lam) - rho d d^T (lam descending, all positive).

    W's eigenvalues solve the secular equation 1 - rho sum_i d_i^2/(lam_i - mu) = 0,
    one root below each pole, and |d^T v| = 1 / (rho sqrt(sum_i d_i^2/(lam_i - mu)^2)).
    A pole with no weight (d_i = 0, or all but one of a run of equal lam) is itself
    an eigenvalue with d^T v = 0. Each root is measured from its nearer pole, so
    lam_i - mu is never formed by cancellation, and found by Newton's method on
    g(tau) = -tau * f(tau), which is convex between the poles, from the far side of
    the root, inside a bisection bracket. The candidate eigenvalue of index i is at
    most lam[i] and the p-th eigenvalue is at least lam[p] (interlacing), so only
    the candidates of indices 0..p are evaluated.
    """
    rows, r = d.shape
    if r < p:
        raise NumericalFailure(f"pooled within-group covariance has rank below p={p}")
    w = d * d
    starts = np.flatnonzero(np.r_[True, lam[1:] != lam[:-1]])
    ends = np.r_[starts[1:], r] - 1
    w_run = np.zeros_like(w)
    w_run[:, ends] = np.add.reduceat(w, starts, axis=1)  # one pole per run of equal lam
    active = w_run > 0

    k = min(p + 1, r)
    index = np.where(active, np.arange(r), r)
    below = np.minimum.accumulate(index[:, ::-1], axis=1)[:, ::-1]
    next_pole = np.c_[below[:, 1:], np.full(rows, r)][:, :k]
    last_pole = np.where(active, np.arange(r), 0).max(axis=1)
    floor = lam[last_pole] - rho * w_run.sum(axis=1)  # f(floor) >= 0 below the last pole
    lower = np.where(next_pole < r, lam[np.minimum(next_pole, r - 1)], floor[:, None])
    upper = lam[:k]
    live = active[:, :k]
    wk = w_run[:, None, :]

    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * (lower - upper)
        f_mid = 1.0 - rho * (wk / ((lam - upper[:, None]) - half[..., None])).sum(axis=-1)
        from_upper = (f_mid >= 0) | (next_pole == r)
        origin = np.where(from_upper, upper, lower)
        # start on the far side of the root, where g > 0; tau = sign * s, s = |tau|
        sign = np.where(from_upper, -1.0, 1.0)
        s_hi = np.where(from_upper & (f_mid < 0), upper - lower, np.abs(half))
        s_lo = np.zeros_like(s_hi)
        delta = lam - origin[..., None]
        off = delta != 0
        w_origin = np.where(off, 0.0, wk).sum(axis=-1)
        s = s_hi.copy()
        done = ~live
        for _ in range(_NEWTON_STEPS):
            tau = sign * s
            gap = delta - tau[..., None]
            g = -tau * (1.0 - rho * np.where(off, wk / gap, 0.0).sum(axis=-1)) - rho * w_origin
            dg = -1.0 + rho * np.where(off, wk * delta / (gap * gap), 0.0).sum(axis=-1)
            far = g > 0
            s_hi = np.where(far, s, s_hi)
            s_lo = np.where(far, s_lo, s)
            step = s - sign * g / dg
            keep = (step == s) | ((step > s_lo) & (step <= s_hi))
            new = np.where(keep, step, 0.5 * (s_lo + s_hi))
            converged = (np.abs(new - s) <= 2 * _EPS * s) | (s_hi - s_lo <= 2 * _EPS * s_hi)
            s = np.where(done, s, new)
            done |= converged
            if done.all():
                break
        tau = sign * s
        mu = np.where(live, origin + tau, upper)
        spread = (wk / (delta - tau[..., None]) ** 2).sum(axis=-1)
        proj = np.where(live, 1.0 / (rho * np.sqrt(spread)), 0.0)

    order = np.argsort(-mu, axis=1, kind="stable")[:, :p]
    mu = np.take_along_axis(mu, order, axis=1)
    if (mu[:, p - 1] <= 1e-12 * mu[:, 0]).any():
        raise NumericalFailure(f"pooled within-group covariance has rank below p={p}")
    t = np.take_along_axis(proj, order, axis=1) * np.sqrt((n - 2) * rho / mu)
    return np.sqrt((t * t).sum(axis=1) / p), t


def check_permutation_size(n_perm: int, n: int, p: int) -> None:
    """Refuse a test of ``n_perm`` permutations of ``n`` shapes on ``p``
    components whose label masks (n bytes each) and permuted statistics (p + 1
    floats each, held twice) would need more than ``mesh.MEMORY_LIMIT`` bytes,
    before anything is allocated."""
    estimate = n_perm * (n + 16 * (p + 1))
    what = f"{n_perm:,} permutations of {n} shapes on {p} components need about {estimate:,} bytes"
    check_memory(estimate, what)


def permutation_test(
    tangent: np.ndarray,
    labels,
    p: int,
    weights: AreaWeights | None = None,
    n_perm: int = 500,
    seed: int | None = None,
    mode: str = "tangent_pca",
    bonferroni_alpha: float | None = None,
    threads: int = 1,
) -> GroupTestReport:
    """Two-group permutation test on the first ``p`` components of ``tangent`` data.

    ``tangent_pca`` fixes components by a label-blind weighted PCA and permutes
    labels over the resulting scores; ``group_shape_space`` re-extracts the
    leading eigenvectors of the pooled within-group covariance for every
    permutation. Empirical p-values use (1 + exceedances) / (1 + n_perm),
    counting a permuted statistic of at least (1 - 1e-12) times the observed.

    The data are first reduced to n x rank coordinates by the reduction of
    :mod:`surfshape.fpca` (``weights`` None leaves the rows unscaled), which
    holds one (n, 8,192) block and the n x n Gram matrix, no copy of the
    (n, 3J) input: a fraction 8,192 / 3J of a stack. Their
    columns are orthogonal with squared norms lam, so every labelling's pooled
    within-group scatter is diag(lam) - rho d d^T (d the group-mean difference,
    rho = n_a n_b / n), and both statistics are closed-form in (lam, rho, d).
    The group-shape-space rank check (p-th within-group eigenvalue above 1e-12
    of the first) applies to every permutation. A repeated or swapped split
    reads exactly the observed statistics. Each permutation draws the smaller
    group, so swapping the two labels changes no draw, statistic or p-value.
    Raises ``ValueError`` above ``mesh.MEMORY_LIMIT`` (see
    :func:`check_permutation_size`).

    ``threads`` is ignored. It will be removed by the benchmark change that drops
    it from ``perfbench/statsworker.py``.
    """
    if mode not in PERMUTATION_MODES:
        raise ValueError(f"mode must be one of {PERMUTATION_MODES}")
    if n_perm < 1:
        raise ValueError("n_perm must be at least 1")
    tangent = np.asarray(tangent, dtype=float)
    if tangent.ndim != 2:
        raise ValueError("tangent must be (n, 3J) or (n, p)")
    n = tangent.shape[0]
    mask_a, group_names = _group_masks(labels)
    if mask_a.size != n:
        raise ValueError(f"{mask_a.size} labels for {n} shapes")
    if p < 1:
        raise ValueError("p must be at least 1")
    if n < p + 2:
        raise ValueError("too few samples for p components")
    check_permutation_size(n_perm, n, p)

    rng = np.random.default_rng(seed)
    na = int(mask_a.sum())
    drawn = min(na, n - na)
    perm_masks = np.zeros((n_perm, n), dtype=bool)
    for r in range(n_perm):
        perm_masks[r, rng.permutation(n)[:drawn]] = True
    if drawn < na:
        np.logical_not(perm_masks, out=perm_masks)

    # all group mean differences and within-group scatters live in the span of
    # the centred rows; reduce once so per-permutation work is O(n * rank)
    u, lam, rank = _spectrum(_gram(tangent, weights)[0])
    lam = lam[:rank]
    coords = u[:, :rank] * np.sqrt(lam)
    rho = na * (n - na) / n

    if mode == "tangent_pca":
        if rank < p:
            raise NumericalFailure(f"data rank {rank} is below p={p}")
        # the first p coordinates are the label-blind PCA scores, up to sign
        coords, lam = coords[:, :p], lam[:p]
        stats = lambda masks: _tangent_pca_stats(lam, _mean_differences(coords, masks), rho, n)  # noqa: E731
    else:
        stats = lambda masks: _group_shape_space_stats(lam, _mean_differences(coords, masks), rho, n, p)  # noqa: E731

    observed_global, observed_comps = (x[0] for x in stats(mask_a[None, :]))
    parts = [stats(perm_masks[i : i + _CHUNK]) for i in range(0, n_perm, _CHUNK)]
    permuted_global = np.concatenate([g for g, _ in parts])
    permuted_comps = np.concatenate([c for _, c in parts])

    global_p = float((1 + (permuted_global >= observed_global * _TIE).sum()) / (1 + n_perm))
    component_p = (1 + (permuted_comps >= observed_comps * _TIE).sum(axis=0)) / (1 + n_perm)

    return GroupTestReport(
        group_names=group_names,
        global_stat=float(observed_global),
        component_stats=observed_comps,
        global_p=global_p,
        component_p=component_p,
        bonferroni_alpha=0.05 / p if bonferroni_alpha is None else float(bonferroni_alpha),
        permuted_global=permuted_global,
        permuted_components=permuted_comps,
    )


def align_component_signs(
    model: FpcaModel,
    score_rows: np.ndarray,
    labels,
    reference_group: str,
) -> tuple[FpcaModel, np.ndarray]:
    """Flip eigenfunctions (and score columns) so the reference group's mean score
    is the higher one on every component."""
    score_rows = np.asarray(score_rows, dtype=float)
    labels = np.asarray(labels)
    ref_mask = labels == reference_group
    if not ref_mask.any():
        raise ValueError(f"no samples labelled {reference_group!r}")
    if ref_mask.all():
        raise ValueError("reference group covers the whole sample")
    diff = score_rows[ref_mask].mean(axis=0) - score_rows[~ref_mask].mean(axis=0)
    flip = diff < 0
    eigenfunctions = model.eigenfunctions.copy()
    eigenfunctions[flip] *= -1.0
    adjusted_scores = score_rows.copy()
    adjusted_scores[:, flip] *= -1.0
    return replace(model, eigenfunctions=eigenfunctions), adjusted_scores


def combined_effect_shape(model: FpcaModel, significant, c: float = 2.0) -> SubspaceEffect:
    """Simultaneous movement of +/- c sqrt(lambda_k)/sqrt(q) along each significant
    component (1-based indices), landing on the same normal contour as single-component
    +/- c displays."""
    components = tuple(sorted(int(k) for k in significant))
    if not components:
        raise ValueError("significant component set is empty")
    if components[0] < 1 or components[-1] > model.n_components:
        raise ValueError(f"components outside 1..{model.n_components}")
    q = len(components)
    idx = np.asarray(components) - 1
    displacement = (c * np.sqrt(model.eigenvalues[idx]) / np.sqrt(q)) @ model.eigenfunctions[idx]
    offset = vec_inverse(displacement)
    return SubspaceEffect(
        components=components,
        plus_shape=model.mean + offset,
        minus_shape=model.mean - offset,
        multiplier=c,
    )


def affine_nonaffine_split(aligned: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split aligned shapes into affine fits of the mean and non-affine residual shapes.

    Regresses each shape on the mean by least squares, X_i = mean @ alpha_i +
    residual, and returns (affine shapes, non-affine shapes, coefficients). The
    residuals are column-orthogonal to the mean.
    """
    aligned = np.asarray(aligned, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if aligned.ndim != 3 or aligned.shape[1:] != mean.shape:
        raise ValueError("aligned must be (n, J, 3) matching the mean")
    gram = mean.T @ mean
    if np.linalg.cond(gram) > 1e12:
        raise NumericalFailure("mean shape is planar-degenerate; affine regression is singular")
    alphas = np.linalg.solve(gram, np.einsum("jk,njl->nkl", mean, aligned))
    affine = np.einsum("jk,nkl->njl", mean, alphas)
    nonaffine = aligned - affine
    nonaffine += mean  # in place, so no third stack; addition commutes, so the bits are mean + residual
    return affine, nonaffine, alphas
