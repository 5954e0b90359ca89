"""The cohort spectrum from the n x n Gram matrix against a full SVD of the n x 3J matrix.

Tolerances, fixed from the arithmetic before looking at results: Gram
eigenvalues carry an absolute rounding error of a few eps * lambda_0, so every
eigenvalue must agree with the squared singular value to 1e-13 * lambda_0
(about 450 eps), which for components with lambda_k >= 1e-6 lambda_0 bounds
the relative error by 1e-7. Eigenfunctions must agree to principal angles
below 1e-6 rad.
"""
import numpy as np
import pytest

import surfshape as ss
from conftest import principal_angles, sphere_mesh, weighted_a_norm
from surfshape.fpca import _gram_spectrum
from surfshape.groupcompare import PERMUTATION_MODES, _batched_stats, _pca_scores, _within_group_eigen_stats

EIGEN_RTOL = 1e-7
EIGEN_ATOL = 1e-13  # times lambda_0
ANGLE_TOL = 1e-6


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
    return tangent, ss.AreaWeights.from_weights(rng.uniform(0.2, 2.0, j)), n


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
    return tangent, ss.AreaWeights.from_weights(w), 14


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
