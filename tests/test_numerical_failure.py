"""Every singular, rank-deficient, degenerate or zero-variance computation raises
``NumericalFailure``: the command line maps that type, and only that type (with
``np.linalg.LinAlgError``), to exit 3."""
import re

import numpy as np
import pytest

import surfshape as ss

CORNERS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], float)
PLANAR = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0]], float)
UNIT = ss.AreaWeights(np.ones(5))
LABELS = ["A"] * 3 + ["B"] * 3
# two groups, each one repeated point: rank 1, no within-group variance
TWO_POINTS = np.repeat([[0.0, 0.0], [1.0, 2.0]], 3, axis=0)
# rank 2, but the within-group scatter is rank 1 and lies along neither principal axis
FLAT_WITHIN = np.array([[t, 0.0] for t in (-1, 0, 1)] + [[t + 1.0, 3.0] for t in (-1, 0, 1)])
# the second column is the first up to 1e-14: numerically rank 2, not 3
NEAR = np.column_stack([np.arange(6.0), np.arange(6.0) * (1 + 1e-14), [0, 1, 0, 1, 0, 1]])
# rank 3, but the third column is constant within each group: the pooled covariance is exactly singular
EXACT = np.vstack([[[0.0, 1, 0], [1, 2, 0], [2, 0, 0]]] * 2) + np.repeat([0.0, 1.0], 3)[:, None]


def _perm(data, p, mode="tangent_pca"):
    return lambda: ss.permutation_test(data, LABELS, p=p, n_perm=5, seed=0, mode=mode)


SITES = {
    "opa-collinear": (
        lambda: ss.weighted_opa(np.outer(np.arange(5.0), [1, 2, 3]), CORNERS, UNIT),
        "points are collinear or coincident",
    ),
    # the weighted sum of squares overflows, so the fitted scale rounds to 0
    "opa-scale": (lambda: ss.weighted_opa(1e160 * CORNERS, CORNERS, UNIT), "non-positive scale"),
    "fpca-fraction": (lambda: ss.fit_fpca(np.tile(np.arange(15.0), (4, 1)), UNIT, k=0.8), "no variance in the sample"),
    "fpca-count": (lambda: ss.fit_fpca(np.tile(np.arange(15.0), (4, 1)), UNIT, k=2), "no variance in the sample"),
    "tangent-pca-variance": (_perm(TWO_POINTS, 1), "a component has zero pooled variance"),
    "tangent-pca-covariance": (_perm(FLAT_WITHIN, 2), "pooled covariance singular"),
    "group-shape-space-rank": (_perm(TWO_POINTS, 2, "group_shape_space"), "rank below p=2"),
    "group-shape-space-eigenvalue": (_perm(FLAT_WITHIN, 2, "group_shape_space"), "rank below p=2"),
    "tangent-pca-data-rank": (_perm(TWO_POINTS, 2), "data rank 1 is below p=2"),
    "tangent-pca-near-duplicate-column": (_perm(NEAR, 3), "data rank 2 is below p=3"),
    "group-shape-space-near-duplicate-column": (_perm(NEAR, 3, "group_shape_space"), "rank below p=3"),
    "tangent-pca-constant-column": (_perm(EXACT, 3), "pooled covariance singular"),
    "affine-planar": (lambda: ss.affine_nonaffine_split(PLANAR[None] + 0.1, PLANAR), "planar-degenerate"),
    "tps-duplicate": (lambda: ss.fit_tps(np.vstack([CORNERS, CORNERS[:1]]), np.vstack([CORNERS, CORNERS[:1]])),
                      "duplicate source points"),
    "tps-coplanar": (lambda: ss.fit_tps(PLANAR, PLANAR), "source points are coplanar"),
    # a ridge this large leaves a Schur complement that underflows to an exact zero pivot
    "tps-solve": (lambda: ss.fit_tps(4e-9 * CORNERS, CORNERS, ridge=1e308), "warp system is singular"),
}


@pytest.mark.parametrize("site", list(SITES))
def test_numerical_site_raises_numerical_failure(site):
    call, message = SITES[site]
    with np.errstate(all="ignore"), pytest.raises(ss.NumericalFailure, match=re.escape(message)):
        call()
