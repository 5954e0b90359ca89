import numpy as np
import pytest

import surfshape as ss
from conftest import sphere_mesh


def two_sample_t_oracle(xa, xb):
    """Textbook pooled two-sample t statistic."""
    na, nb = len(xa), len(xb)
    var = (((xa - xa.mean()) ** 2).sum() + ((xb - xb.mean()) ** 2).sum()) / (na + nb - 2)
    return (xa.mean() - xb.mean()) / np.sqrt(var * (1 / na + 1 / nb))


def null_tangent(seed=0, n=30, p=5, m=60):
    rng = np.random.default_rng(seed)
    tangent = rng.standard_normal((n, m)) * np.linspace(2.0, 0.1, m)
    labels = np.array(["A"] * (n // 2) + ["B"] * (n - n // 2))
    return tangent, labels


def two_groups(a, b, p, **kwargs):
    """The permutation test's observed statistics for rows ``a`` against rows ``b``."""
    labels = ["A"] * len(a) + ["B"] * len(b)
    return ss.permutation_test(np.vstack([a, b]), labels, p=p, n_perm=9, seed=0, **kwargs)


class TestHotellingT2:
    """The global statistic ``permutation_test`` reports is sqrt(T2 / p)."""

    def test_identical_means_give_zero(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((10, 3))
        assert 3 * two_groups(scores, scores, 3).global_stat ** 2 == pytest.approx(0.0, abs=1e-20)

    def test_p_equals_one_reduces_to_squared_t(self):
        rng = np.random.default_rng(1)
        xa = rng.normal(0.0, 1.0, 12)[:, None]
        xb = rng.normal(0.5, 1.3, 9)[:, None]
        t = two_sample_t_oracle(xa[:, 0], xb[:, 0])
        assert two_groups(xa, xb, 1).global_stat ** 2 == pytest.approx(t**2, rel=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((14, 4))
        b = rng.standard_normal((11, 4)) + 0.3
        assert two_groups(10 * a, 10 * b, 4).global_stat == pytest.approx(two_groups(a, b, 4).global_stat, rel=1e-12)

    def test_singular_pooled_covariance_rejected(self):
        a = np.zeros((6, 3))
        a[:, 0] = np.arange(6.0)
        b = a + 1.0  # columns 1, 2 constant in both groups
        with pytest.raises(ss.NumericalFailure, match="singular; reduce p"):
            two_groups(a, b, 2)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="too few samples"):
            two_groups(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), 4)


class TestComponentT:
    """The component statistics ``permutation_test`` reports are |t| on the
    label-blind PCA scores."""

    def test_equal_means_zero(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 2))
        np.testing.assert_allclose(two_groups(a, a.copy(), 2).component_stats, 0.0, atol=1e-14)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(13, 3))
        b = rng.normal(0.4, 1.1, size=(10, 3))
        both = np.vstack([a, b])
        centred = both - both.mean(axis=0)
        scores = centred @ np.linalg.svd(centred, full_matrices=False)[2].T
        report = two_groups(a, b, 3)
        for component in (1, 2, 3):
            expected = two_sample_t_oracle(scores[:13, component - 1], scores[13:, component - 1])
            assert report.component_stats[component - 1] == pytest.approx(abs(expected), rel=1e-12)

    def test_unchanged_when_the_labels_swap(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(7, 2))
        rows = np.vstack([a, b])
        named = ss.permutation_test(rows, ["A"] * 9 + ["B"] * 7, p=2, n_perm=9, seed=0)
        swapped = ss.permutation_test(rows, ["B"] * 9 + ["A"] * 7, p=2, n_perm=9, seed=0)
        assert np.array_equal(named.component_stats, swapped.component_stats)

    def test_zero_variance_rejected(self):
        a = np.ones((5, 1))
        b = np.zeros((5, 1))
        with pytest.raises(ss.NumericalFailure, match="zero pooled variance"):
            two_groups(a, b, 1)


class TestPermutationTest:
    def test_deterministic_given_seed(self):
        tangent, labels = null_tangent()
        a = ss.permutation_test(tangent, labels, p=4, n_perm=99, seed=7)
        b = ss.permutation_test(tangent, labels, p=4, n_perm=99, seed=7)
        assert a.global_p == b.global_p
        assert np.array_equal(a.permuted_global, b.permuted_global)
        assert np.array_equal(a.permuted_components, b.permuted_components)

    def test_threads_do_not_change_results(self):
        tangent, labels = null_tangent(seed=3)
        a = ss.permutation_test(tangent, labels, p=3, n_perm=64, seed=1, threads=1)
        b = ss.permutation_test(tangent, labels, p=3, n_perm=64, seed=1, threads=3)
        assert np.array_equal(a.permuted_global, b.permuted_global)
        assert a.global_p == b.global_p

    def test_p_values_strictly_positive_and_at_most_one(self):
        tangent, labels = null_tangent(seed=9)
        report = ss.permutation_test(tangent, labels, p=5, n_perm=49, seed=2)
        assert 0 < report.global_p <= 1
        assert np.all(report.component_p > 0) and np.all(report.component_p <= 1)

    def test_observed_stat_invariant_to_data_sign_flips(self):
        tangent, labels = null_tangent(seed=11)
        a = ss.permutation_test(tangent, labels, p=4, n_perm=10, seed=0)
        b = ss.permutation_test(-tangent, labels, p=4, n_perm=10, seed=0)
        assert a.global_stat == pytest.approx(b.global_stat, rel=1e-10)
        np.testing.assert_allclose(a.component_stats, b.component_stats, rtol=1e-10)

    def test_group_shape_space_statistic_decomposes_into_t_squares(self):
        rng = np.random.default_rng(13)
        n = 24
        tangent = rng.standard_normal((n, 40)) * np.linspace(1.5, 0.05, 40)
        labels = np.array(["x"] * 12 + ["y"] * 12)
        p = 4
        report = ss.permutation_test(tangent, labels, p=p, n_perm=19, seed=5, mode="group_shape_space")
        # independent second path: within-group eigenbasis, then classical t per column
        mask = labels == "x"
        within = tangent - np.where(mask[:, None], tangent[mask].mean(0), tangent[~mask].mean(0))
        lam, vectors = np.linalg.eigh(within.T @ within / (n - 2))
        order = np.argsort(lam)[::-1]
        basis = vectors[:, order[:p]]
        scores = tangent @ basis
        t_squares = [two_sample_t_oracle(scores[mask, k], scores[~mask, k]) ** 2 for k in range(p)]
        assert p * report.global_stat**2 == pytest.approx(sum(t_squares), rel=1e-8)
        assert report.global_stat**2 * p == pytest.approx((report.component_stats**2).sum(), rel=1e-12)

    def test_planted_shift_is_detected_on_its_component(self):
        config = ss.SynthConfig(
            resolution=2,
            eigen_spectrum=(0.16, 0.08, 0.01, 0.005, 0.001),
            group_sizes=(15, 15),
            group_shift_component=3,
            group_shift_sd=3.0,
            noise_sd=0.002,
            nuisance_rotation_deg=10,
            nuisance_translation=0.5,
            seed=21,
        )
        sample, _ = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        report = ss.permutation_test(tangent, sample.labels, p=5, weights=gpa.mean_weights, n_perm=500, seed=3)
        assert 3 in report.significant
        assert report.global_p < 0.01

    def test_null_data_usually_not_significant(self):
        tangent, labels = null_tangent(seed=17)
        report = ss.permutation_test(tangent, labels, p=5, n_perm=500, seed=4)
        assert report.global_p > 0.01

    def test_mode_and_size_validation(self):
        tangent, labels = null_tangent()
        with pytest.raises(ValueError, match="mode"):
            ss.permutation_test(tangent, labels, p=2, mode="bootstrap")
        with pytest.raises(ValueError, match="n_perm"):
            ss.permutation_test(tangent, labels, p=2, n_perm=0)
        with pytest.raises(ValueError, match="two groups"):
            ss.permutation_test(tangent, np.array(["A"] * len(labels)), p=2)

    @pytest.mark.parametrize("count", [7, 9])
    def test_labels_for_another_number_of_shapes_refused(self, count):
        tangent = np.random.default_rng(0).standard_normal((8, 12))
        labels = np.array(["A", "B"] * 5)[:count]
        with pytest.raises(ValueError, match=f"^{count} labels for 8 shapes$"):
            ss.permutation_test(tangent, labels, p=1, n_perm=10)

    def test_component_count_validation(self):
        tangent, labels = null_tangent()  # 30 samples
        with pytest.raises(ValueError, match="p must be at least 1"):
            ss.permutation_test(tangent, labels, p=0)
        with pytest.raises(ValueError, match="too few samples for p components"):
            ss.permutation_test(tangent, labels, p=29)

    def test_budget_above_the_memory_limit_refused_before_the_first_draw(self, monkeypatch):
        # 10^10 permutations of 30 shapes would need 300 GB of label masks alone
        tangent, labels = null_tangent()
        monkeypatch.setattr("numpy.random.default_rng", lambda *a: pytest.fail("a permutation was drawn"))
        with pytest.raises(ValueError, match=r"10,000,000,000 permutations of 30 shapes on 2 components need about"):
            ss.permutation_test(tangent, labels, p=2, n_perm=10**10)

    @pytest.mark.parametrize("n, p", [(60, 3), (16, 2), (12, 1)])
    def test_size_rule_at_the_limit(self, n, p):
        from surfshape.groupcompare import check_permutation_size
        from surfshape.mesh import MEMORY_LIMIT

        largest = MEMORY_LIMIT // (n + 16 * (p + 1))  # masks of n bytes, p + 1 statistics held twice
        assert largest > 1000  # so stats-65k's 1,000 permutations and the --n-perm default of 500 pass
        check_permutation_size(largest, n, p)
        with pytest.raises(ValueError, match=r"above the limit of 2,147,483,648 bytes \(2 GiB\)"):
            check_permutation_size(largest + 1, n, p)

    def test_quartiles_shape(self):
        tangent, labels = null_tangent(seed=23)
        report = ss.permutation_test(tangent, labels, p=3, n_perm=40, seed=6)
        quartiles = report.permuted_quartiles()
        assert quartiles["global"].shape == (3,)
        assert quartiles["components"].shape == (3, 3)


class TestAlignComponentSigns:
    def fitted(self, seed=0):
        config = ss.SynthConfig(resolution=2, n_shapes=20, group_sizes=(10, 10), noise_sd=0.01, seed=seed)
        sample, truth = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        model = ss.fit_fpca(tangent, gpa.mean_weights, k=3, mean_shape=gpa.mean)
        return model, ss.scores_from_tangent(model, tangent), np.asarray(sample.labels)

    def test_reference_group_mean_is_higher_after_alignment(self):
        model, rows, labels = self.fitted()
        adjusted_model, adjusted = ss.align_component_signs(model, rows, labels, "B")
        diff = adjusted[labels == "B"].mean(axis=0) - adjusted[labels != "B"].mean(axis=0)
        assert np.all(diff >= 0)

    def test_idempotent(self):
        model, rows, labels = self.fitted(seed=1)
        model1, rows1 = ss.align_component_signs(model, rows, labels, "A")
        model2, rows2 = ss.align_component_signs(model1, rows1, labels, "A")
        assert np.array_equal(model1.eigenfunctions, model2.eigenfunctions)
        assert np.array_equal(rows1, rows2)

    def test_already_aligned_unchanged(self):
        model, rows, labels = self.fitted(seed=2)
        _, aligned_rows = ss.align_component_signs(model, rows, labels, "A")
        model2, rows2 = ss.align_component_signs(model, aligned_rows, labels, "A")
        assert np.array_equal(rows2, aligned_rows)

    def test_scores_stay_consistent_with_eigenfunctions(self):
        model, rows, labels = self.fitted(seed=3)
        adjusted_model, adjusted_rows = ss.align_component_signs(model, rows, labels, "B")
        config_scores = adjusted_rows[0]
        recomputed = ss.scores(adjusted_model, ss.reconstruct(adjusted_model, config_scores))
        np.testing.assert_allclose(recomputed, config_scores, atol=1e-10)


class TestCombinedEffectShape:
    def model(self):
        config = ss.SynthConfig(resolution=2, n_shapes=25, noise_sd=0.01, seed=5)
        sample, truth = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        return ss.fit_fpca(tangent, gpa.mean_weights, k=3, mean_shape=gpa.mean), gpa.mean_weights

    def test_single_component_reduces_to_component_shape(self):
        model, _ = self.model()
        effect = ss.combined_effect_shape(model, [2], c=2.0)
        np.testing.assert_allclose(effect.plus_shape, ss.component_shape(model, 2, 2.0), atol=1e-12)
        np.testing.assert_allclose(effect.minus_shape, ss.component_shape(model, 2, -2.0), atol=1e-12)

    def test_displacement_norm_on_the_common_contour(self):
        model, weights = self.model()
        effect = ss.combined_effect_shape(model, [1, 3], c=2.0)
        displacement = ss.vec(effect.plus_shape - model.mean)
        w = weights.stacked
        norm = np.sqrt(displacement @ (w * displacement))
        lam = model.eigenvalues[[0, 2]]
        assert norm == pytest.approx(2.0 * np.sqrt(lam.sum() / 2), rel=1e-10)

    def test_plus_minus_average_to_mean(self):
        model, _ = self.model()
        effect = ss.combined_effect_shape(model, [1, 2, 3])
        np.testing.assert_allclose(0.5 * (effect.plus_shape + effect.minus_shape), model.mean, atol=1e-12)

    def test_empty_set_rejected(self):
        model, _ = self.model()
        with pytest.raises(ValueError, match="empty"):
            ss.combined_effect_shape(model, [])


class TestAffineNonaffineSplit:
    def aligned_cohort(self, seed=0, n=10):
        config = ss.SynthConfig(resolution=2, n_shapes=n, noise_sd=0.02, seed=seed)
        sample, _ = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        return gpa.aligned, gpa.mean

    def test_pure_affine_shapes(self):
        _, mean = self.aligned_cohort()
        rng = np.random.default_rng(7)
        m = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        shapes = (mean @ m)[None]
        affine, nonaffine, alphas = ss.affine_nonaffine_split(shapes, mean)
        np.testing.assert_allclose(alphas[0], m, atol=1e-10)
        np.testing.assert_allclose(affine[0], mean @ m, atol=1e-10)
        np.testing.assert_allclose(nonaffine[0], mean, atol=1e-10)

    def test_pure_nonaffine_shapes(self):
        _, mean = self.aligned_cohort(seed=1)
        rng = np.random.default_rng(8)
        raw = rng.normal(size=mean.shape)
        residual = raw - mean @ np.linalg.solve(mean.T @ mean, mean.T @ raw)
        assert np.abs(mean.T @ residual).max() < 1e-10
        shapes = (mean + residual)[None]
        affine, nonaffine, alphas = ss.affine_nonaffine_split(shapes, mean)
        np.testing.assert_allclose(alphas[0], np.eye(3), atol=1e-10)
        np.testing.assert_allclose(affine[0], mean, atol=1e-10)
        np.testing.assert_allclose(nonaffine[0], shapes[0], atol=1e-10)

    def test_decomposition_identity_and_orthogonality(self):
        aligned, mean = self.aligned_cohort(seed=2)
        affine, nonaffine, _ = ss.affine_nonaffine_split(aligned, mean)
        np.testing.assert_allclose(affine + nonaffine - mean, aligned, atol=1e-12)
        for i in range(aligned.shape[0]):
            np.testing.assert_allclose(mean.T @ (aligned[i] - affine[i]), 0.0, atol=1e-10)

    def test_planar_mean_rejected(self):
        flat = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2, np.zeros(6)])
        with pytest.raises(ValueError, match="planar"):
            ss.affine_nonaffine_split(flat[None], flat)
