import re
from dataclasses import replace

import numpy as np
import pytest

import surfshape as ss
from conftest import principal_angles, similarity_cohort, sphere_mesh, weighted_a_norm


def unweighted_pca_oracle(tangent):
    """Plain covariance eigendecomposition, written independently of the fit path."""
    centered = tangent - tangent.mean(axis=0)
    cov = centered.T @ centered / (tangent.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def planted_model(seed=0, n=40, spectrum=(5.0, 3.0, 1.0, 0.5, 0.1)):
    config = ss.SynthConfig(
        resolution=2,
        eigen_spectrum=spectrum,
        n_shapes=n,
        standardize_scores=True,
        seed=seed,
    )
    sample, truth = ss.synth_cohort(config)
    weights = ss.vertex_areas(truth.base_mesh)
    tangent = ss.tangent_coordinates(sample.vertex_array(), truth.base_mesh.vertices)
    return tangent, weights, truth


class TestFitFpca:
    def test_rank_one_data(self):
        mesh = sphere_mesh()
        weights = ss.vertex_areas(mesh)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(3 * mesh.n_vertices)
        direction /= weighted_a_norm(weights, direction)
        t = np.linspace(-1, 1, 9)[:, None] * direction
        model = ss.fit_fpca(t, weights, k=5, mean_shape=mesh.vertices)
        assert model.n_components == 1
        assert model.warnings and "truncated" in model.warnings[0]
        # e_1 proportional to the direction under the A inner product
        cosine = model.eigenfunctions[0] @ (weights.stacked * direction)
        assert abs(cosine) == pytest.approx(1.0, abs=1e-10)

    def test_two_samples_fit(self):
        tangent = np.random.default_rng(4).standard_normal((2, 3 * 10))
        model = ss.fit_fpca(tangent, ss.AreaWeights(np.ones(10)), k=1)
        assert model.n_components == 1

    def test_equal_weights_match_unweighted_pca(self):
        rng = np.random.default_rng(3)
        n, j = 25, 30
        tangent = rng.standard_normal((n, 3 * j)) @ np.diag(rng.uniform(0.1, 2.0, 3 * j))
        weights = ss.AreaWeights(np.full(j, 0.49))
        model = ss.fit_fpca(tangent, weights, k=n - 1)
        oracle_values, oracle_vectors = unweighted_pca_oracle(tangent)
        k = model.n_components
        # weighted eigenvalues scale by the constant weight; eigenvectors by its sqrt
        np.testing.assert_allclose(model.eigenvalues, 0.49 * oracle_values[:k], rtol=1e-8)
        angles = principal_angles(weights, model.eigenfunctions, oracle_vectors[:, :k].T)
        assert angles.max() < 1e-6

    def test_variance_fraction_rule(self):
        tangent, weights, truth = planted_model()
        model80 = ss.fit_fpca(tangent, weights, k=0.80)
        assert model80.n_components == 2  # 5+3 = 8 of 9.6 total = 83.3%
        model90 = ss.fit_fpca(tangent, weights, k=0.90)
        assert model90.n_components == 3  # 9 of 9.6 = 93.75%
        model_all = ss.fit_fpca(tangent, weights, k=0.999)
        assert model_all.n_components == 5

    def test_explained_fractions_are_cumulative_over_total(self):
        tangent, weights, _ = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2)
        total = 5.0 + 3.0 + 1.0 + 0.5 + 0.1
        np.testing.assert_allclose(model.explained, [5.0 / total, 8.0 / total], rtol=1e-10)

    def test_a_orthonormal_eigenfunctions(self):
        tangent, weights, _ = planted_model(seed=5)
        model = ss.fit_fpca(tangent, weights, k=5)
        w = weights.stacked
        gram = (model.eigenfunctions * w) @ model.eigenfunctions.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
        assert np.all(np.diff(model.eigenvalues) <= 0)

    def test_eigenvalue_sum_matches_total_weighted_variance(self):
        rng = np.random.default_rng(8)
        mesh = sphere_mesh()
        weights = ss.vertex_areas(mesh)
        tangent = rng.standard_normal((12, 3 * mesh.n_vertices)) * 0.1
        model = ss.fit_fpca(tangent, weights, k=11)
        centered = tangent - tangent.mean(axis=0)
        total = np.einsum("nk,k,nk->", centered, weights.stacked, centered) / (tangent.shape[0] - 1)
        assert model.eigenvalues.sum() == pytest.approx(total, rel=1e-8)
        assert model.total_variance == pytest.approx(total, rel=1e-8)

    def test_deterministic_signs_on_refit(self):
        tangent, weights, _ = planted_model(seed=9)
        a = ss.fit_fpca(tangent, weights, k=5)
        b = ss.fit_fpca(tangent.copy(), weights, k=5)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
        for row in a.eigenfunctions:
            assert row[np.argmax(np.abs(row))] > 0

    @pytest.mark.parametrize("seed", [31, 32])
    def test_similarity_of_each_shape_changes_no_spectrum(self, seed):
        """GPA removes a different similarity on each shape; only the frame, which
        follows shape 0, turns with it, so the whole spectrum is unchanged and each
        eigenfunction is the same field up to that rotation and its sign."""
        fits = []
        for sample in similarity_cohort(seed):
            gpa = ss.weighted_gpa(sample)
            tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
            fits.append((gpa.mean, ss.fit_fpca(tangent, gpa.mean_weights, k=sample.n_shapes - 1, mean_shape=gpa.mean)))
        (base_mean, base), (moved_mean, moved) = fits
        assert moved.eigenvalues.size == base.eigenvalues.size == 17
        np.testing.assert_allclose(moved.eigenvalues, base.eigenvalues, rtol=1e-9)
        u, _, vt = np.linalg.svd(moved_mean.T @ base_mean)
        rotation = u @ vt  # moved_mean @ rotation is base_mean
        for want, got in zip(base.eigenfunctions, moved.eigenfunctions):
            got = ss.vec(ss.vec_inverse(got) @ rotation)
            got *= np.sign(want @ got)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_input_validation(self):
        mesh = sphere_mesh()
        weights = ss.vertex_areas(mesh)
        with pytest.raises(ValueError, match="at least two"):
            ss.fit_fpca(np.zeros((1, 3 * mesh.n_vertices)), weights)
        with pytest.raises(ValueError, match="3J"):
            ss.fit_fpca(np.zeros((4, 3 * mesh.n_vertices + 1)), weights)
        with pytest.raises(ValueError, match="count must be positive"):
            ss.fit_fpca(np.random.default_rng(0).normal(size=(4, 3 * mesh.n_vertices)), weights, k=0)

    @pytest.mark.parametrize(
        "k", [1.0, 1.5, 0.0, -0.5, np.float64(1.0), float("nan")], ids=["1.0", "1.5", "0.0", "-0.5", "float64", "nan"]
    )
    def test_float_outside_the_open_unit_interval_refused(self, k):
        # 1.0 and 1.5 were read as a count of one component
        tangent, weights, _ = planted_model()
        with pytest.raises(ValueError, match=re.escape("k must be a component count or a variance fraction in (0, 1)")):
            ss.fit_fpca(tangent, weights, k=k)

    def test_numpy_integer_count_kept(self):
        tangent, weights, _ = planted_model()
        assert ss.fit_fpca(tangent, weights, k=np.int64(3)).n_components == 3


class TestTotalVarianceRule:
    """``total_variance`` is positive and at least the eigenvalue sum, up to
    1e-12 relative. Over 45 full-rank fits (seeds 1-15; J = 66, 258 and 1,026;
    n = 8, 20 and 40; noise 0.01 and 0; GPA then every component up to the
    rank) the eigenvalue sum exceeded ``total_variance`` by at most 3.3e-15
    relative: the bound is 300 times that."""

    @pytest.mark.parametrize(
        "total, message",
        [
            (1e-9, "total_variance 1e-09 is below the eigenvalue sum "),
            (-1.0, "total_variance must be positive and finite, got -1.0"),
            (0.0, "total_variance must be positive and finite, got 0.0"),
            (float("nan"), "total_variance must be positive and finite, got nan"),
            (float("inf"), "total_variance must be positive and finite, got inf"),
        ],
        ids=["1e-9", "negative", "zero", "nan", "inf"],
    )
    def test_refused(self, total, message):
        model = ss.fit_fpca(*planted_model()[:2], k=3)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            replace(model, total_variance=total)

    def test_bound_is_1e_12_relative(self):
        model = ss.fit_fpca(*planted_model()[:2], k=5)
        total = model.eigenvalues.sum()
        assert replace(model, total_variance=total * (1 - 1e-13)).explained[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="is below the eigenvalue sum"):
            replace(model, total_variance=total * (1 - 1e-11))


class TestScoresAndReconstruct:
    def test_mean_scores_to_zero(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=3, mean_shape=truth.base_mesh.vertices)
        np.testing.assert_array_equal(ss.scores(model, truth.base_mesh.vertices), np.zeros(3))

    def test_unit_eigenfunction_displacement_scores_delta(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=3, mean_shape=truth.base_mesh.vertices)
        shape = model.mean + 1.7 * ss.vec_inverse(model.eigenfunctions[1])
        np.testing.assert_allclose(ss.scores(model, shape), [0.0, 1.7, 0.0], atol=1e-9)

    def test_training_score_variance_equals_eigenvalue(self):
        config = ss.SynthConfig(resolution=2, n_shapes=30, noise_sd=0.01, seed=12)
        sample, truth = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        model = ss.fit_fpca(tangent, gpa.mean_weights, k=5, mean_shape=gpa.mean)
        rows = ss.scores(model, gpa.aligned)
        np.testing.assert_allclose(rows.var(axis=0, ddof=1), model.eigenvalues, rtol=1e-8)

    def test_full_rank_round_trip_reproduces_training_shape(self):
        config = ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.02, seed=4)
        sample, _ = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        model = ss.fit_fpca(tangent, gpa.mean_weights, k=7, mean_shape=gpa.mean)
        assert model.n_components == 7  # full rank for 8 shapes
        fourth = gpa.aligned[3]
        rebuilt = ss.reconstruct(model, ss.scores(model, fourth))
        np.testing.assert_allclose(rebuilt, fourth, atol=1e-10)

    def test_scores_of_reconstruct_identity(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=4, mean_shape=truth.base_mesh.vertices)
        rng = np.random.default_rng(2)
        s = rng.normal(size=4)
        np.testing.assert_allclose(ss.scores(model, ss.reconstruct(model, s)), s, atol=1e-10)

    def test_zero_scores_reconstruct_mean(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2, mean_shape=truth.base_mesh.vertices)
        np.testing.assert_array_equal(ss.reconstruct(model, np.zeros(2)), model.mean)

    def test_two_sd_display_shape(self):
        # the standard "+2 sd" first-component display shape
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2, mean_shape=truth.base_mesh.vertices)
        s = np.array([2.0 * np.sqrt(model.eigenvalues[0]), 0.0])
        np.testing.assert_allclose(ss.reconstruct(model, s), ss.component_shape(model, 1, 2.0), atol=1e-12)


class TestComponentShape:
    def test_zero_multiplier_returns_mean(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2, mean_shape=truth.base_mesh.vertices)
        np.testing.assert_array_equal(ss.component_shape(model, 1, 0.0), model.mean)

    def test_plus_minus_symmetric_about_mean(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2, mean_shape=truth.base_mesh.vertices)
        plus = ss.component_shape(model, 2, 2.0)
        minus = ss.component_shape(model, 2, -2.0)
        np.testing.assert_allclose(0.5 * (plus + minus), model.mean, atol=1e-12)

    def test_displacement_a_norm_is_c_sqrt_lambda(self):
        tangent, weights, truth = planted_model()
        model = ss.fit_fpca(tangent, weights, k=3, mean_shape=truth.base_mesh.vertices)
        for k, c in ((1, 2.0), (2, -3.0), (3, 0.5)):
            shape = ss.component_shape(model, k, c)
            norm = weighted_a_norm(weights, ss.vec(shape - model.mean))
            assert norm == pytest.approx(abs(c) * np.sqrt(model.eigenvalues[k - 1]), rel=1e-10)

    def test_component_bounds_checked(self):
        tangent, weights, _ = planted_model()
        model = ss.fit_fpca(tangent, weights, k=2)
        with pytest.raises(ValueError, match="component 3"):
            ss.component_shape(model, 3, 1.0)


class TestGrandTour:
    def model(self):
        tangent, weights, truth = planted_model()
        return ss.fit_fpca(tangent, weights, k=3, mean_shape=truth.base_mesh.vertices)

    def test_zero_stop_is_the_mean(self):
        model = self.model()
        tour = ss.grand_tour(model, p=3, n_stops=1, z_vectors=np.zeros((1, 3)))
        assert tour.frames.shape[0] == 1
        np.testing.assert_array_equal(tour.frames[0], model.mean)

    def test_same_seed_identical_sequences(self):
        model = self.model()
        a = ss.grand_tour(model, p=2, n_stops=4, seed=11, frames_per_leg=3)
        b = ss.grand_tour(model, p=2, n_stops=4, seed=11, frames_per_leg=3)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.z_vectors, b.z_vectors)

    def test_frame_count_and_stop_indices(self):
        model = self.model()
        tour = ss.grand_tour(model, p=2, n_stops=3, seed=0, frames_per_leg=4)
        assert tour.frames.shape[0] == 3 + 2 * 4
        np.testing.assert_array_equal(tour.stop_indices, [0, 5, 10])

    def test_interpolated_scores_are_convex_combinations(self):
        model = self.model()
        tour = ss.grand_tour(model, p=3, n_stops=3, seed=5, frames_per_leg=4)
        stop_scores = [ss.scores(model, tour.frames[i]) for i in tour.stop_indices]
        for leg in range(2):
            a = stop_scores[leg]
            b = stop_scores[leg + 1]
            for step in range(1, 5):
                t = step / 5
                frame = tour.frames[tour.stop_indices[leg] + step]
                np.testing.assert_allclose(ss.scores(model, frame), (1 - t) * a + t * b, atol=1e-10)

    def test_stop_shapes_match_planted_z(self):
        model = self.model()
        z = np.array([[1.0, -2.0, 0.5]])
        tour = ss.grand_tour(model, p=3, n_stops=1, z_vectors=z)
        expected = model.mean + ss.vec_inverse((z[0] * np.sqrt(model.eigenvalues)) @ model.eigenfunctions)
        np.testing.assert_allclose(tour.frames[0], expected, atol=1e-12)


class TestVariabilityMap:
    def test_identical_shapes_flagged_minus_inf(self):
        mesh = sphere_mesh()
        aligned = np.stack([mesh.vertices] * 6)
        field = ss.variability_map(aligned)
        assert np.all(np.isneginf(field))

    def test_isotropic_noise_matches_log_sigma_six(self):
        rng = np.random.default_rng(42)
        sigma = 0.7
        base = rng.normal(size=(5, 3))
        aligned = base + rng.normal(scale=sigma, size=(10000, 5, 3))
        field = ss.variability_map(aligned)
        np.testing.assert_allclose(field, 6 * np.log(sigma), atol=0.1)

    def test_doubling_noise_raises_by_six_log_two(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(4, 3))
        noise = rng.normal(size=(10000, 4, 3))
        aligned = base + noise * np.array([0.5, 0.5, 1.0, 0.5])[:, None]
        field = ss.variability_map(aligned)
        assert field[2] - field[0] == pytest.approx(6 * np.log(2), abs=0.1)

    def test_needs_four_shapes(self):
        with pytest.raises(ValueError, match="at least 4"):
            ss.variability_map(np.zeros((3, 5, 3)))
