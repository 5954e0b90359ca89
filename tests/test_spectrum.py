"""The cohort spectrum from the n x n Gram matrix against a full SVD of the n x 3J matrix.

Tolerances, fixed from the arithmetic before looking at results: Gram
eigenvalues carry an absolute rounding error of a few eps * lambda_0, so every
eigenvalue must agree with the squared singular value to 1e-13 * lambda_0
(about 450 eps), which for components with lambda_k >= 1e-6 lambda_0 bounds
the relative error by 1e-7. Eigenfunctions must agree to principal angles
below 1e-6 rad.

The closed-form permutation statistics are checked against the per-permutation
SVD and batched-solve routes they replaced, kept here verbatim as oracles.
Tolerances, fixed beforehand: the global statistic to rtol 1e-12, each
component |t| within 1e-12 of the row's largest |t|, and identical
exceedance counts and p-values.
"""
import itertools
from unittest import mock

import numpy as np
import pytest

import surfshape as ss
from conftest import drawn_masks, principal_angles, sphere_mesh, weighted_a_norm
from surfshape.fpca import _blocks, _gram, _spectrum
from surfshape.groupcompare import PERMUTATION_MODES, _group_shape_space_stats, _mean_differences

EIGEN_RTOL = 1e-7
EIGEN_ATOL = 1e-13  # times lambda_0
ANGLE_TOL = 1e-6


def _gram_spectrum(centred):
    """The spectrum of ``centred``'s own Gram matrix, formed in one product: the
    reference for the library's reduction, which gives the same bits on rows
    scaled and centred the same way while they fit in one block of 8,192
    columns."""
    return _spectrum(centred @ centred.T)


def _batched_stats(scores: np.ndarray, masks_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(T2/p) and |t_l| for every row of group-a membership masks."""
    n, p = scores.shape
    na = int(masks_a[0].sum())
    nb = n - na
    inv_sizes = 1.0 / na + 1.0 / nb
    total_sum = scores.sum(axis=0)
    total_scatter = scores.T @ scores

    sums_a = masks_a.astype(float) @ scores
    means_a = sums_a / na
    means_b = (total_sum - sums_a) / nb
    diffs = means_a - means_b

    outer_a = np.einsum("ri,rj->rij", means_a, means_a)
    outer_b = np.einsum("ri,rj->rij", means_b, means_b)
    scatter = total_scatter - na * outer_a - nb * outer_b
    cov = scatter / (n - 2)
    try:
        solved = np.linalg.solve(cov, diffs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ValueError("pooled covariance singular; reduce p") from None
    t2 = np.einsum("ri,ri->r", diffs, solved) / inv_sizes

    pooled_sd = np.sqrt(np.einsum("rii->ri", cov))
    if (pooled_sd <= 0).any():
        raise ValueError("a component has zero pooled variance")
    t_abs = np.abs(diffs / (pooled_sd * np.sqrt(inv_sizes)))
    return np.sqrt(t2 / p), t_abs


def _within_group_eigen_stats(
    coords: np.ndarray, masks_a: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group-shape-space statistics: eigenbasis of the pooled within-group covariance
    recomputed per permutation (per mask row)."""
    n = coords.shape[0]
    na = int(masks_a[0].sum())
    nb = n - na
    inv_sizes = 1.0 / na + 1.0 / nb
    globals_out = np.empty(masks_a.shape[0])
    comps_out = np.empty((masks_a.shape[0], p))
    for r, mask in enumerate(masks_a):
        mean_a = coords[mask].mean(axis=0)
        mean_b = coords[~mask].mean(axis=0)
        within = coords - np.where(mask[:, None], mean_a, mean_b)
        singular_vals, vt = np.linalg.svd(within, full_matrices=False)[1:]
        lam = singular_vals**2 / (n - 2)
        if lam.size < p or lam[p - 1] <= lam[0] * 1e-12:
            raise ValueError(f"pooled within-group covariance has rank below p={p}")
        proj = (mean_a - mean_b) @ vt[:p].T
        t = proj / np.sqrt(lam[:p] * inv_sizes)
        comps_out[r] = np.abs(t)
        globals_out[r] = np.sqrt(float(t @ t) / p)
    return globals_out, comps_out


def _pca_scores(coords: np.ndarray, p: int) -> np.ndarray:
    """Scores on the first p label-blind principal components of reduced coordinates."""
    centred = coords - coords.mean(axis=0)
    vt = np.linalg.svd(centred, full_matrices=False)[2]
    return centred @ vt[:p].T


def svd_spectrum(centred):
    """Reference route: left singular vectors, squared singular values and rank
    (singular values above 1e-6 of the largest) from np.linalg.svd."""
    u, s, vt = np.linalg.svd(centred, full_matrices=False)
    return u, s**2, int(np.count_nonzero(s > s[0] * 1e-6)), vt


def svd_fpca(tangent, weights, k):
    """fit_fpca's eigenvalues, eigenfunctions and warnings via the n x 3J SVD."""
    n = tangent.shape[0]
    w = weights.stacked
    sqrt_w = np.sqrt(w)
    inv_sqrt_w = np.divide(1.0, sqrt_w, out=np.zeros_like(sqrt_w), where=sqrt_w > 0)
    _, lam, rank, vt = svd_spectrum((tangent - tangent.mean(axis=0)) * sqrt_w)
    keep = min(k, rank)
    warnings = (f"requested {k} components but rank is {rank}; truncated",) if k > rank else ()
    return lam / (n - 1), vt[:keep] * inv_sqrt_w, rank, warnings


def spread_spectrum_case(seed, n, j, decades, rank=None):
    """n rows in 3J dimensions with singular values spread over ``decades``
    decades and random positive area weights."""
    rng = np.random.default_rng(seed)
    r = n - 1 if rank is None else rank
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    v = np.linalg.qr(rng.standard_normal((3 * j, r)))[0]
    tangent = (u * np.logspace(0, -decades, r)) @ v.T
    return tangent, ss.AreaWeights(rng.uniform(0.2, 2.0, j)), n


def rank_one_case():
    mesh = sphere_mesh()
    weights = ss.vertex_areas(mesh)
    direction = np.random.default_rng(0).standard_normal(3 * mesh.n_vertices)
    direction /= weighted_a_norm(weights, direction)
    return np.linspace(-1, 1, 9)[:, None] * direction, weights, 5


def full_rank_case():
    sample, _ = ss.synth_cohort(ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.02, seed=4))
    gpa = ss.weighted_gpa(sample)
    return ss.tangent_coordinates(gpa.aligned, gpa.mean), gpa.mean_weights, 7


def duplicated_shapes_case():
    sample, _ = ss.synth_cohort(ss.SynthConfig(resolution=2, n_shapes=6, noise_sd=0.02, seed=6))
    gpa = ss.weighted_gpa(sample)
    tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
    return np.concatenate([tangent, tangent[::-1], tangent[:2]]), gpa.mean_weights, 10


def zero_weight_case():
    tangent, weights, _ = spread_spectrum_case(3, 15, 80, 3)
    w = weights.weights.copy()
    w[::7] = 0.0
    return tangent, ss.AreaWeights(w), 14


CASES = {
    "spread-2-decades": lambda: spread_spectrum_case(1, 20, 200, 2),
    "spread-5-decades": lambda: spread_spectrum_case(2, 30, 1000, 5),
    "spread-low-rank": lambda: spread_spectrum_case(5, 25, 300, 3, rank=6),
    "rank-one": rank_one_case,
    "full-rank": full_rank_case,
    "duplicated-shapes": duplicated_shapes_case,
    "zero-weight-vertices": zero_weight_case,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


class TestGramSpectrum:
    def test_matches_svd(self, case):
        tangent, weights, _ = case
        centred = (tangent - tangent.mean(axis=0)) * np.sqrt(weights.stacked)
        u, lam, rank = _gram_spectrum(centred)
        ref_u, ref_lam, ref_rank, _ = svd_spectrum(centred)
        assert rank == ref_rank
        size = ref_lam.size
        assert np.all(np.diff(lam) <= 0) and np.all(lam >= 0)
        assert np.abs(lam[:size] - ref_lam).max() <= EIGEN_ATOL * ref_lam[0]
        assert np.all(lam[size:] <= EIGEN_ATOL * ref_lam[0])
        big = ref_lam >= 1e-6 * ref_lam[0]
        np.testing.assert_allclose(lam[:size][big], ref_lam[big], rtol=EIGEN_RTOL)
        # the Gram matrix is reproduced by the rank-truncated factors
        coords = u[:, :rank] * np.sqrt(lam[:rank])
        gram = centred @ centred.T
        assert np.abs(coords @ coords.T - gram).max() <= 1e-12 * ref_lam[0]

    def test_centring_null_direction_is_not_rank(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((8, 600))
        assert _gram_spectrum(rows - rows.mean(axis=0))[2] == 7

    def test_zero_matrix_has_rank_zero(self):
        _, lam, rank = _gram_spectrum(np.zeros((4, 30)))
        assert rank == 0 and not lam.any()


class TestFpcaAgainstSvd:
    def test_eigenpairs_rank_and_warnings(self, case):
        tangent, weights, k = case
        model = ss.fit_fpca(tangent, weights, k=k)
        ref_lam, ref_e, ref_rank, ref_warnings = svd_fpca(tangent, weights, k)
        assert model.n_components == min(k, ref_rank)
        assert model.warnings == ref_warnings
        lam0 = ref_lam[0]
        assert np.abs(model.eigenvalues - ref_lam[: model.n_components]).max() <= EIGEN_ATOL * lam0
        big = model.eigenvalues >= 1e-6 * lam0
        np.testing.assert_allclose(model.eigenvalues[big], ref_lam[: model.n_components][big], rtol=EIGEN_RTOL)
        centred = tangent - tangent.mean(axis=0)
        total = np.einsum("nk,k,nk->", centred, weights.stacked, centred) / (tangent.shape[0] - 1)
        assert model.total_variance == pytest.approx(total, rel=1e-12)
        for row, ref_row, value in zip(model.eigenfunctions, ref_e, model.eigenvalues):
            if value >= 1e-6 * lam0:
                assert principal_angles(weights, row[None], ref_row[None]).max() < ANGLE_TOL
        assert principal_angles(weights, model.eigenfunctions, ref_e).max() < ANGLE_TOL
        if not weights.weights.all():
            zero = np.flatnonzero(weights.stacked == 0)
            assert not model.eigenfunctions[:, zero].any()

    def test_variance_fraction_selects_the_same_count(self, case):
        tangent, weights, _ = case
        ref_lam, _, ref_rank, _ = svd_fpca(tangent, weights, 1)
        fractions = np.cumsum(ref_lam[:ref_rank]) / ref_lam.sum()
        for k in (0.5, 0.8, 0.95):
            expected = min(int(np.searchsorted(fractions, k - 1e-12) + 1), ref_rank)
            assert ss.fit_fpca(tangent, weights, k=k).n_components == expected


def cohort(seed=21, sizes=(10, 10)):
    config = ss.SynthConfig(
        resolution=2, group_sizes=sizes, group_shift_component=1, group_shift_sd=2.0, noise_sd=0.01, seed=seed
    )
    sample, _ = ss.synth_cohort(config)
    gpa = ss.weighted_gpa(sample)
    return ss.tangent_coordinates(gpa.aligned, gpa.mean), np.asarray(sample.labels), gpa.mean_weights


def svd_observed_stats(tangent, labels, weights, p, mode):
    """Observed statistics of permutation_test computed on SVD coordinates."""
    data = tangent * np.sqrt(weights.stacked)
    u, lam, rank, _ = svd_spectrum(data - data.mean(axis=0))
    coords = u[:, :rank] * np.sqrt(lam[:rank])
    mask = (labels == np.unique(labels)[0])[None, :]
    if mode == "tangent_pca":
        g, c = _batched_stats(_pca_scores(coords, p), mask)
    else:
        g, c = _within_group_eigen_stats(coords, mask, p)
    return g[0], c[0]


@pytest.mark.parametrize("mode", PERMUTATION_MODES)
class TestPermutationTestAgainstSvd:
    def test_observed_statistics_match(self, mode):
        tangent, labels, weights = cohort()
        report = ss.permutation_test(tangent, labels, p=3, weights=weights, n_perm=49, seed=2, mode=mode)
        want_global, want_comps = svd_observed_stats(tangent, labels, weights, 3, mode)
        assert report.global_stat == pytest.approx(want_global, rel=1e-9)
        np.testing.assert_allclose(report.component_stats, want_comps, rtol=1e-9)

    def test_cohort_order_invariance(self, mode):
        tangent, labels, weights = cohort(seed=22)
        order = np.random.default_rng(4).permutation(labels.size)
        base = ss.permutation_test(tangent, labels, p=3, weights=weights, n_perm=19, seed=1, mode=mode)
        shuffled = ss.permutation_test(
            tangent[order], labels[order], p=3, weights=weights, n_perm=19, seed=1, mode=mode
        )
        assert shuffled.global_stat == pytest.approx(base.global_stat, rel=1e-9)
        np.testing.assert_allclose(shuffled.component_stats, base.component_stats, rtol=1e-9)


def test_fpca_spectrum_invariant_to_cohort_order():
    tangent, _, weights = cohort(seed=23)
    order = np.random.default_rng(8).permutation(tangent.shape[0])
    base = ss.fit_fpca(tangent, weights, k=5)
    shuffled = ss.fit_fpca(tangent[order], weights, k=5)
    np.testing.assert_allclose(shuffled.eigenvalues, base.eigenvalues, rtol=1e-10)
    assert shuffled.total_variance == pytest.approx(base.total_variance, rel=1e-12)
    # the sign rule makes the eigenfunctions themselves, not only their spans, agree
    np.testing.assert_allclose(shuffled.eigenfunctions, base.eigenfunctions, atol=1e-8)


def reduced_coords(tangent, weights):
    """permutation_test's reduced coordinates: the Gram route on the scaled, centred rows."""
    data = tangent if weights is None else tangent * np.sqrt(weights.stacked)
    u, lam, rank = _gram_spectrum(data - data.mean(axis=0))
    return u[:, :rank] * np.sqrt(lam[:rank])


def oracle_stats(coords, masks, p, mode):
    """The replaced routes, one labelling at a time. In tangent_pca mode a mask is
    first made canonical (group a holds row 0 when the groups have equal sizes),
    so that the oracle, like the closed form, reads a swapped split exactly as the
    original one."""
    if mode == "group_shape_space":
        return _within_group_eigen_stats(coords, masks, p)
    scores = _pca_scores(coords, p)
    if 2 * masks[0].sum() == masks.shape[1]:
        masks = np.where(masks[:, :1], masks, ~masks)
    rows = [_batched_stats(scores, mask[None]) for mask in masks]
    return np.concatenate([g for g, _ in rows]), np.concatenate([c for _, c in rows])


def assert_stats_match(got, want):
    """Globals to rtol 1e-12, components within 1e-12 of their row's largest |t|.
    A statistic that is zero in exact arithmetic (equal group means, or no weight
    on any leading eigenvector) reads as rounding noise in the oracle, so both
    bounds have a floor of 1e-12 times the largest value of the run."""
    (got_g, got_c), (want_g, want_c) = got, want
    np.testing.assert_allclose(got_g, want_g, rtol=1e-12, atol=1e-12 * want_g.max())
    scale = np.maximum(want_c.max(axis=1, keepdims=True), want_c.max())
    assert (np.abs(got_c - want_c) <= 1e-12 * scale).all(), np.abs(got_c - want_c).max()


def halves(n):
    return np.array(["a"] * (n // 2) + ["b"] * (n - n // 2))


def run_permutation_test(tangent, weights, labels, p, mode, n_perm, seed):
    """permutation_test's report, its statistics with the observed row first, and
    the group-a masks of those rows."""
    report = ss.permutation_test(tangent, labels, p=p, weights=weights, n_perm=n_perm, seed=seed, mode=mode)
    observed = labels == "a"
    masks = np.vstack([observed, drawn_masks(seed, labels.size, int(observed.sum()), n_perm)])
    got = (np.r_[report.global_stat, report.permuted_global],
           np.vstack([report.component_stats, report.permuted_components]))
    return report, got, masks


class TestClosedFormAgainstOracle:
    """permutation_test against the per-permutation SVD and batched-solve routes."""

    def compare(self, tangent, weights, p, mode, labels=None, n_perm=199, seed=3):
        n = tangent.shape[0]
        labels = halves(n) if labels is None else labels
        report, (got_g, got_c), masks = run_permutation_test(tangent, weights, labels, p, mode, n_perm, seed)
        want_g, want_c = oracle_stats(reduced_coords(tangent, weights), masks, p, mode)
        assert_stats_match((got_g, got_c), (want_g, want_c))
        # distinct splits of repeated shapes can be the same split; both routes
        # read such ties only to rounding, and permutation_test counts them
        tie = lambda x: (x[1:] >= x[0] * (1 - 1e-12)).sum(axis=0)  # noqa: E731
        if np.unique(tangent, axis=0).shape[0] < n:
            exceed = tie
        else:
            exceed = lambda x: (x[1:] >= x[0]).sum(axis=0)  # noqa: E731
        assert report.global_p == (1 + tie(want_g)) / (1 + n_perm)
        np.testing.assert_array_equal(report.component_p, (1 + tie(want_c)) / (1 + n_perm))
        assert exceed(got_g) == exceed(want_g)
        np.testing.assert_array_equal(exceed(got_c), exceed(want_c))

    @pytest.mark.parametrize("mode", PERMUTATION_MODES)
    def test_every_case(self, case, mode):
        tangent, weights, _ = case
        rank = _gram_spectrum((tangent - tangent.mean(axis=0)) * np.sqrt(weights.stacked))[2]
        self.compare(tangent, weights, min(3, rank), mode)

    @pytest.mark.parametrize("mode", PERMUTATION_MODES)
    def test_p_equal_to_rank(self, mode):
        tangent, weights, _ = CASES["spread-low-rank"]()
        self.compare(tangent, weights, 6, mode)

    @pytest.mark.parametrize("mode", PERMUTATION_MODES)
    def test_unequal_group_sizes(self, mode):
        tangent, weights, _ = CASES["spread-2-decades"]()
        self.compare(tangent, weights, 3, mode, labels=np.array(["a"] * 7 + ["b"] * 13))


def hadamard_coords(scales):
    """8 points whose 7 coordinate columns are centred, orthogonal +-scale patterns
    with squared norms 8 * scale**2, all exact in binary."""
    h = np.ones((1, 1))
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    return h[:, 1:] * scales


def all_splits(n, na):
    masks = np.zeros((0, n), dtype=bool)
    for members in itertools.combinations(range(n), na):
        row = np.zeros(n, dtype=bool)
        row[list(members)] = True
        masks = np.vstack([masks, row])
    return masks


class TestDeflation:
    """Poles with no weight: exact zeros in d, and exactly repeated eigenvalues."""

    scales = np.array([2.0, 2.0, 1.0, 1.0, 1.0, 0.5, 0.5])

    def test_repeated_top_eigenvalue_leaves_no_weight_on_the_first_eigenvector(self):
        """lam_1 = lam_2: for every split one eigenvector of W stays at lam_1 with
        d^T v = 0, so p = 1 reads exactly 0 (the oracle reads rounding noise)."""
        coords = hadamard_coords(self.scales)
        masks = all_splits(8, 4)
        g, c = _group_shape_space_stats(8.0 * self.scales**2, _mean_differences(coords, masks), 2.0, 8, 1)
        assert not g.any() and not c.any()
        want_g, _ = _within_group_eigen_stats(coords, masks, 1)
        assert want_g.max() < 1e-14

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_exact_design_matches_oracle(self, p):
        coords = hadamard_coords(self.scales)
        lam = 8.0 * self.scales**2
        masks = all_splits(8, 4)
        d = _mean_differences(coords, masks)
        assert (d == 0).any(axis=1).all()  # every split has exact zeros in d
        got = _group_shape_space_stats(lam, d, 2.0, 8, p)
        assert_stats_match(got, _within_group_eigen_stats(coords, masks, p))

    def test_zero_difference_reads_zero(self):
        lam = np.array([4.0, 2.0, 1.0])
        g, c = _group_shape_space_stats(lam, np.zeros((2, 3)), 2.5, 10, 2)
        assert not g.any() and not c.any()

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_cohort_with_repeated_eigenvalues(self, p):
        """The exact design lifted into 300 dimensions: the Gram eigenvalues repeat up
        to rounding, and the statistics must not depend on the basis chosen inside
        each repeated eigenspace."""
        coords = hadamard_coords(self.scales)
        basis = np.linalg.qr(np.random.default_rng(12).standard_normal((300, 7)))[0]
        tangent = coords @ basis.T
        _, got, masks = run_permutation_test(tangent, None, halves(8), p, "group_shape_space", 69, 9)
        assert_stats_match(got, _within_group_eigen_stats(reduced_coords(tangent, None), masks, p))
        exact = _group_shape_space_stats(8.0 * self.scales**2, _mean_differences(coords, masks), 2.0, 8, p)
        assert_stats_match(got, exact)


class TestRankAndSingularity:
    def test_rank_below_p(self):
        tangent, weights, _ = CASES["spread-low-rank"]()
        labels = halves(tangent.shape[0])
        with pytest.raises(ValueError, match="within-group covariance has rank below p=7"):
            ss.permutation_test(tangent, labels, p=7, weights=weights, n_perm=9, mode="group_shape_space")
        with pytest.raises(ValueError, match="data rank 6 is below p=7"):
            ss.permutation_test(tangent, labels, p=7, weights=weights, n_perm=9, mode="tangent_pca")

    def indicator_cohort(self, noise):
        """Two coordinates; the second is the group indicator plus ``noise`` times a
        random vector. The second within-group eigenvalue is then about
        1.6 * noise**2 of the first: 1.6e-15 at noise 1e-7, 1.6e-11 at 1e-5."""
        rng = np.random.default_rng(14)
        labels = halves(10)
        indicator = np.where(labels == "a", 1.0, -1.0)
        x = rng.standard_normal(10)
        x -= x.mean()
        x -= (x @ indicator) / 10.0 * indicator
        second = indicator + noise * rng.standard_normal(10)
        basis = np.linalg.qr(rng.standard_normal((40, 2)))[0]
        return np.column_stack([3.0 * x, second]) @ basis.T, labels

    @pytest.mark.parametrize("noise", [0.0, 1e-7])
    def test_within_group_rank_below_p(self, noise):
        tangent, labels = self.indicator_cohort(noise)
        ss.permutation_test(tangent, labels, p=1, n_perm=9, mode="group_shape_space")
        with pytest.raises(ValueError, match="within-group covariance has rank below p=2"):
            ss.permutation_test(tangent, labels, p=2, n_perm=9, mode="group_shape_space")

    @pytest.mark.parametrize("noise", [0.0, 1e-7])
    def test_zero_pooled_variance(self, noise):
        tangent, labels = self.indicator_cohort(noise)
        with pytest.raises(ValueError, match="zero pooled variance"):
            ss.permutation_test(tangent, labels, p=2, n_perm=9, mode="tangent_pca")

    @pytest.mark.parametrize("mode", PERMUTATION_MODES)
    def test_small_within_group_variance_above_the_rules_passes(self, mode):
        tangent, labels = self.indicator_cohort(1e-5)
        assert ss.permutation_test(tangent, labels, p=2, n_perm=9, mode=mode).global_stat > 1e4

    def test_singular_pooled_covariance(self):
        """Within-group spread along one oblique direction only: no component has zero
        pooled variance, but the 2 x 2 pooled covariance is singular."""
        rng = np.random.default_rng(15)
        labels = halves(10)
        along = rng.standard_normal(10)
        for group in "ab":
            along[labels == group] -= along[labels == group].mean()
        plane = np.outer(along, [1.0, 0.0]) + np.outer(np.where(labels == "a", 1.0, -1.0), [0.6, 0.8])
        tangent = plane @ np.linalg.qr(rng.standard_normal((30, 2)))[0].T
        with pytest.raises(ValueError, match="pooled covariance singular; reduce p"):
            ss.permutation_test(tangent, labels, p=2, n_perm=9, mode="tangent_pca")


class TestOneReduction:
    """fit_fpca and both permutation modes take their spectrum from one
    reduction: _gram, which walks the rows in column blocks, then _spectrum."""

    @staticmethod
    def cohort(n=9, j=20):
        rng = np.random.default_rng(21)
        return rng.normal(size=(n, 3 * j)), ss.AreaWeights(rng.uniform(0.1, 2.0, j))

    def test_fit_fpca_eigenvalues_are_the_reduction_spectrum(self):
        tangent, weights = self.cohort()
        n = tangent.shape[0]
        _, lam, rank = _spectrum(_gram(tangent, weights)[0])
        fit = ss.fit_fpca(tangent, weights, k=rank)
        # n - 1 = 8, so dividing by it and multiplying back are exact
        assert (fit.eigenvalues * (n - 1)).tobytes() == lam[:rank].tobytes()

    @pytest.mark.parametrize("mode", PERMUTATION_MODES)
    @pytest.mark.parametrize("weighted", [True, False])
    def test_permutation_test_reduces_the_same_rows(self, mode, weighted):
        tangent, weights = self.cohort()
        weights = weights if weighted else None
        labels = ["a"] * 4 + ["b"] * 5
        gram = mock.Mock(wraps=_gram)
        with mock.patch("surfshape.fpca._gram", gram), mock.patch("surfshape.groupcompare._gram", gram):
            ss.permutation_test(tangent, labels, p=2, weights=weights, n_perm=5, seed=0, mode=mode)
            if weighted:
                ss.fit_fpca(tangent, weights, k=2)
        assert gram.call_count == (2 if weighted else 1)
        for (rows, w), _ in gram.call_args_list:
            assert rows.tobytes() == tangent.tobytes() and w is weights

    @pytest.mark.parametrize("weighted", [True, False])
    def test_blocks_are_the_scaled_centred_rows(self, weighted):
        # 3J = 9,000 columns: a full block of 8,192 and a short one
        tangent, weights = self.cohort(n=7, j=3_000)
        tangent += 3.0
        weights = weights if weighted else None
        scaled = tangent if weights is None else tangent * np.sqrt(weights.stacked)
        centred = scaled - scaled.mean(axis=0)
        blocks = [(cols, block.copy()) for cols, block, _ in _blocks(tangent, weights)]
        assert [cols.stop - cols.start for cols, _ in blocks] == [8_192, 808]
        assert np.concatenate([b for _, b in blocks], axis=1).tobytes() == centred.tobytes()
        gram, total = _gram(tangent, weights)
        full = centred @ centred.T
        assert np.abs(gram - full).max() <= 1e-14 * np.abs(full).max()
        assert total == pytest.approx(np.einsum("ij,ij->", centred, centred), rel=1e-14)

    def test_eigenfunctions_map_back_over_the_blocks(self):
        tangent, weights = self.cohort(n=7, j=3_000)
        fit = ss.fit_fpca(tangent, weights, k=4)
        centred = tangent * np.sqrt(weights.stacked)
        centred -= centred.mean(axis=0)
        u, lam, _ = _spectrum(centred @ centred.T)
        want = (u[:, :4].T @ centred) / np.sqrt(lam[:4])[:, None] / np.sqrt(weights.stacked)
        want *= np.sign(want[np.arange(4), np.abs(want).argmax(axis=1)])[:, None]
        np.testing.assert_allclose(fit.eigenfunctions, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_mismatched_weights_refused_with_one_message(self):
        tangent, weights = self.cohort(j=21)
        short = ss.AreaWeights(weights.weights[:20])
        message = "weights are for 20 vertices, data has 21"
        with pytest.raises(ValueError, match=message):
            ss.fit_fpca(tangent, short)
        with pytest.raises(ValueError, match=message):
            ss.permutation_test(tangent, ["a"] * 4 + ["b"] * 5, p=2, weights=short, n_perm=5)
