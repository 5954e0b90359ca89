import warnings

import numpy as np
import pytest

import surfshape as ss
from conftest import bumpy_mesh, random_rotation, sphere_mesh
from surfshape.registration import _tangent_over_stack


def weighted_objective(source, target, a, params):
    """The registration criterion evaluated at raw parameters (the oracle's view)."""
    from scipy.spatial.transform import Rotation

    rotation = Rotation.from_rotvec(params[:3]).as_matrix()
    scale = np.exp(params[3])
    translation = params[4:]
    misfit = target - (scale * source @ rotation + translation)
    return float(np.einsum("j,jk,jk->", a, misfit, misfit))


def minimize_objective_oracle(source, target, weights, starts):
    """Generic nonlinear minimization of the weighted criterion over all 7 parameters."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    best = np.inf
    for start in starts:
        result = minimize(
            lambda p: weighted_objective(source, target, weights.weights, p),
            start,
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 2000},
        )
        best = min(best, result.fun)
    return best


def unweighted_procrustes_oracle(source, target, allow_scaling=True):
    """Plain (equal-weight) full Procrustes fit, written independently."""
    xc = source - source.mean(axis=0)
    yc = target - target.mean(axis=0)
    u, s, vt = np.linalg.svd(xc.T @ yc)
    d = np.ones(3)
    if np.linalg.det(u @ vt) < 0:
        d[2] = -1
    rotation = (u * d) @ vt
    scale = float(d @ s / np.einsum("jk,jk->", xc, xc)) if allow_scaling else 1.0
    translation = target.mean(axis=0) - scale * source.mean(axis=0) @ rotation
    return scale, rotation, translation


def transform_params_as_start(fit):
    Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
    rotvec = Rotation.from_matrix(fit.transform.rotation).as_rotvec()
    return np.concatenate([rotvec, [np.log(fit.transform.scale)], fit.transform.translation])


class TestWeightedOpa:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(0)
        mesh = bumpy_mesh(rng)
        weights = ss.vertex_areas(mesh)
        fit = ss.weighted_opa(mesh.vertices, mesh.vertices, weights)
        assert fit.rss == 0.0
        assert fit.transform.scale == 1.0
        np.testing.assert_array_equal(fit.transform.rotation, np.eye(3))
        np.testing.assert_array_equal(fit.transform.translation, np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_planted_similarity(self, seed):
        rng = np.random.default_rng(seed)
        mesh = bumpy_mesh(rng)
        weights = ss.vertex_areas(mesh)
        rotation = random_rotation(rng)
        translation = rng.normal(scale=5.0, size=3)
        target = 2.0 * mesh.vertices @ rotation + translation
        fit = ss.weighted_opa(mesh.vertices, target, weights)
        assert fit.transform.scale == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(fit.transform.rotation, rotation, atol=1e-8)
        np.testing.assert_allclose(fit.transform.translation, translation, atol=1e-8)
        assert fit.rss < 1e-12

    def test_matches_nonlinear_minimization_oracle(self):
        rng = np.random.default_rng(42)
        source = rng.normal(size=(10, 3))
        target = source @ random_rotation(rng) * 1.4 + rng.normal(size=3) + rng.normal(scale=0.2, size=(10, 3))
        weights = ss.AreaWeights(rng.uniform(0.2, 2.0, 10))
        fit = ss.weighted_opa(source, target, weights)
        starts = [transform_params_as_start(fit)] + [
            np.concatenate([rng.normal(scale=1.0, size=3), [rng.normal(scale=0.3)], rng.normal(size=3)])
            for _ in range(4)
        ]
        oracle = minimize_objective_oracle(source, target, weights, starts)
        assert fit.rss <= oracle + 1e-6
        assert fit.rss == pytest.approx(oracle, abs=1e-6)

    def test_equal_weights_match_unweighted_oracle(self):
        rng = np.random.default_rng(5)
        source = rng.normal(size=(30, 3))
        target = rng.normal(size=(30, 3))
        weights = ss.AreaWeights(np.full(30, 0.37))
        fit = ss.weighted_opa(source, target, weights)
        scale, rotation, translation = unweighted_procrustes_oracle(source, target)
        assert fit.transform.scale == pytest.approx(scale, abs=1e-10)
        np.testing.assert_allclose(fit.transform.rotation, rotation, atol=1e-10)
        np.testing.assert_allclose(fit.transform.translation, translation, atol=1e-10)

    def test_objective_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(9)
        source = rng.normal(size=(20, 3))
        target = rng.normal(size=(20, 3))
        weights = ss.AreaWeights(rng.uniform(0.5, 1.5, 20))
        base = ss.weighted_opa(source, target, weights).rss
        rotation = random_rotation(rng)
        shift = rng.normal(size=3)
        moved = ss.weighted_opa(source @ rotation + shift, target @ rotation + shift, weights).rss
        assert moved == pytest.approx(base, rel=1e-8)

    def test_zero_residual_iff_similarity(self):
        rng = np.random.default_rng(13)
        source = rng.normal(size=(15, 3))
        weights = ss.AreaWeights(rng.uniform(0.5, 1.5, 15))
        exact = 0.7 * source @ random_rotation(rng) + rng.normal(size=3)
        assert ss.weighted_opa(source, exact, weights).rss < 1e-10
        noisy = exact + rng.normal(scale=0.05, size=source.shape)
        assert ss.weighted_opa(source, noisy, weights).rss > 1e-6

    def test_reflection_flag(self):
        rng = np.random.default_rng(21)
        source = rng.normal(size=(12, 3))
        weights = ss.AreaWeights(np.ones(12))
        mirrored = source * np.array([-1.0, 1.0, 1.0])
        constrained = ss.weighted_opa(source, mirrored, weights, allow_reflection=False)
        assert np.linalg.det(constrained.transform.rotation) == pytest.approx(1.0, abs=1e-10)
        free = ss.weighted_opa(source, mirrored, weights, allow_reflection=True)
        assert np.linalg.det(free.transform.rotation) == pytest.approx(-1.0, abs=1e-10)
        assert free.rss < 1e-15
        assert free.rss <= constrained.rss

    def test_no_scaling_fixes_scale(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(10, 3))
        target = 3.0 * source
        weights = ss.AreaWeights(np.ones(10))
        fit = ss.weighted_opa(source, target, weights, allow_scaling=False)
        assert fit.transform.scale == 1.0

    def test_zero_weights_refused_before_any_division(self):
        mesh = bumpy_mesh(np.random.default_rng(2))
        with pytest.raises(ValueError, match="weights sum to zero"):
            ss.weighted_opa(mesh.vertices, 2.0 * mesh.vertices, ss.AreaWeights(np.zeros(mesh.n_vertices)))

    def test_collinear_source_rejected(self):
        t = np.linspace(0, 1, 8)
        line = np.column_stack([t, 2 * t, -t])
        rng = np.random.default_rng(1)
        target = rng.normal(size=(8, 3))
        with pytest.raises(ValueError, match="degenerate configuration"):
            ss.weighted_opa(line, target, ss.AreaWeights(np.ones(8)))


def reference_opa(source, target, a, allow_scaling, allow_reflection):
    """Weighted OPA on (J, 3) rows, written straight from the formula: the
    oracle for the coordinate-major kernel behind weighted_opa."""
    total = a.sum()
    centroid_x = a @ source / total
    centroid_y = a @ target / total
    xc = source - centroid_x
    yc = target - centroid_y
    u, s, vt = np.linalg.svd(xc.T @ (a[:, None] * yc))
    signs = np.ones(3)
    if not allow_reflection and np.linalg.det(u @ vt) < 0:
        signs[2] = -1.0
    rotation = (u * signs) @ vt
    scale = float(signs @ s) / float(np.einsum("j,jk,jk->", a, xc, xc)) if allow_scaling else 1.0
    translation = centroid_y - scale * centroid_x @ rotation
    fitted = scale * source @ rotation + translation
    rss = float(np.einsum("j,jk,jk->", a, target - fitted, target - fitted))
    return scale, rotation, translation, fitted, rss


def opa_case(kind, seed, n=400):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0, 3)
    if kind == "near_planar":
        source[:, 2] *= 1e-4
    target = 1.3 * source @ random_rotation(rng) + rng.normal(size=3) + rng.normal(scale=0.1, size=(n, 3))
    if kind == "mirrored":
        target[:, 0] *= -1.0
    a = rng.uniform(0.1, 2.0, n)
    if kind == "zero_weights":
        a[rng.permutation(n)[: n // 3]] = 0.0
        target[a == 0] += 1e3  # vertices without weight must not pull the fit
    return source, target, ss.AreaWeights(a)


class TestOpaKernelMatchesReference:
    """weighted_opa (the coordinate-major kernel) against the row-wise formula.

    Both evaluate the same expressions; only summation order and the SVD's
    input differ in the last bits, so every output must agree to rtol 1e-12
    (absolute parts scaled by the data). Largest errors seen over the 48
    cases: scale 1.7e-15 and rss 4.1e-15 relative, rotation entries 3.1e-15,
    translation 8.4e-17 and fitted coordinates 2.3e-15 of the data's size.
    """

    RTOL = 1e-12

    @pytest.mark.parametrize("kind", ["generic", "near_planar", "zero_weights", "mirrored"])
    @pytest.mark.parametrize("allow_scaling", [True, False])
    @pytest.mark.parametrize("allow_reflection", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches(self, kind, allow_scaling, allow_reflection, seed):
        source, target, weights = opa_case(kind, seed)
        scale, rotation, translation, fitted, rss = reference_opa(
            source, target, weights.weights, allow_scaling, allow_reflection
        )
        fit = ss.weighted_opa(source, target, weights, allow_scaling=allow_scaling, allow_reflection=allow_reflection)
        size = np.abs(target).max()
        assert fit.transform.scale == pytest.approx(scale, rel=self.RTOL)
        np.testing.assert_allclose(fit.transform.rotation, rotation, rtol=0, atol=self.RTOL)
        np.testing.assert_allclose(fit.transform.translation, translation, rtol=0, atol=self.RTOL * size)
        np.testing.assert_allclose(fit.fitted, fitted, rtol=0, atol=self.RTOL * size)
        assert fit.rss == pytest.approx(rss, rel=self.RTOL)
        assert fit.fitted.shape == source.shape


def reference_gpa(
    sample, max_iter=100, tol=1e-10, size_constraint="unit_area", allow_scaling=True, weight_overrides=None
):
    """GPA on (J, 3) rows as a plain loop over shapes, one reference_opa each,
    in the original iteration order (area weights and surface area recomputed
    from every new mean): the oracle for weighted_gpa's stack kernel."""
    mesh = sample.meshes[0]
    shapes = [m.vertices for m in sample.meshes]

    def weights_of(mean):
        return ss.vertex_areas(mesh.with_vertices(mean), weight_overrides)

    def area_of(mean):
        return ss.triangle_areas(mesh.with_vertices(mean)).sum()

    def centred(mean):
        weights = weights_of(mean)
        return mean - weights.weights @ mean / weights.total_area

    mean = centred(shapes[0])
    target = 1.0 if size_constraint == "unit_area" else area_of(mean)
    mean = mean * np.sqrt(target / area_of(mean))
    trace, previous, converged = [], np.inf, False
    for _ in range(max_iter):
        a = weights_of(mean).weights
        fits = [reference_opa(x, mean, a, allow_scaling, False) for x in shapes]
        objective = sum(fit[4] for fit in fits)
        trace.append(objective)
        noise_floor = 1e-24 * len(shapes) * np.einsum("j,jk,jk->", a, mean, mean)
        if objective <= noise_floor or (np.isfinite(previous) and abs(previous - objective) <= tol * previous):
            converged = True
            break
        previous = objective
        mean = centred(np.mean([fit[3] for fit in fits], axis=0))
        mean = mean * np.sqrt(target / area_of(mean))
    factor = np.sqrt(target / area_of(np.mean([fit[3] for fit in fits], axis=0)))
    aligned = np.array([fit[3] * factor for fit in fits])
    transforms = [(scale * factor, rotation, translation * factor) for scale, rotation, translation, _, _ in fits]
    return len(trace), converged, np.array(trace), aligned.mean(axis=0), aligned, transforms


def gpa_case(kind):
    config = ss.SynthConfig(
        resolution=3, n_shapes=8, noise_sd=0.02, nuisance_rotation_deg=30, nuisance_translation=2.0,
        nuisance_log_scale=0.3, seed=12,
    )
    sample, _ = ss.synth_cohort(config)
    if kind == "mirrored_member":
        meshes = list(sample.meshes)
        meshes[3] = meshes[3].with_vertices(meshes[3].vertices * np.array([-1.0, 1.0, 1.0]))
        # its proper-rotation fit keeps the objective wobbling: the run ends at max_iter
        return ss.ShapeSample(tuple(meshes)), {"max_iter": 25}
    if kind == "far_from_origin":
        # 100 sizes out: uncentred, the expanded sums of squares would lose about 1e-11
        shift = np.array([100.0, -70.0, 30.0])
        return ss.ShapeSample(tuple(m.with_vertices(m.vertices + shift) for m in sample.meshes)), {}
    options = {
        "defaults": {},
        "initial_mean_area": {"size_constraint": "initial_mean_area"},
        "no_scaling": {"allow_scaling": False},
        "weight_overrides": {"weight_overrides": {0: 0.0, 7: 0.05, 100: 0.3}},
    }[kind]
    return sample, options


class TestGpaKernelMatchesReference:
    """weighted_gpa (batched stack passes) against a per-shape loop over
    reference_opa. Only summation order, the expanded sums of squares and the
    area bookkeeping differ, so every output agrees to rtol 1e-12 (absolute
    parts scaled by the data's size)."""

    RTOL = 1e-12

    @pytest.mark.parametrize(
        "kind", ["defaults", "initial_mean_area", "no_scaling", "weight_overrides", "mirrored_member", "far_from_origin"]
    )
    def test_matches(self, kind):
        sample, options = gpa_case(kind)
        iterations, converged, trace, mean, aligned, transforms = reference_gpa(sample, **options)
        result = ss.weighted_gpa(sample, **options)
        assert (result.iterations, result.converged) == (iterations, converged)
        np.testing.assert_allclose(result.objective_trace, trace, rtol=self.RTOL, atol=0)
        size = np.abs(aligned).max()
        np.testing.assert_allclose(result.mean, mean, rtol=0, atol=self.RTOL * size)
        np.testing.assert_allclose(result.aligned, aligned, rtol=0, atol=self.RTOL * size)
        for got, (scale, rotation, translation), mesh in zip(result.transforms, transforms, sample.meshes):
            assert got.scale == pytest.approx(scale, rel=self.RTOL)
            np.testing.assert_allclose(got.rotation, rotation, rtol=0, atol=self.RTOL)
            offset = np.abs(mesh.vertices).max() * scale  # translation absorbs the shape's position
            np.testing.assert_allclose(got.translation, translation, rtol=0, atol=self.RTOL * offset)


class TestClosedFormMisfit:
    """Each fit's misfit comes from the Procrustes closed form only where its
    rounding cannot change a convergence decision at the given ``tol``;
    elsewhere it takes the explicit residual. So down to ``tol`` = 1e-15 the
    iteration count stays that of the per-shape reference, and ``weighted_opa``
    keeps the explicit residual's bits."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("kind", ["defaults", "no_scaling", "weight_overrides"])
    def test_iterations_match_the_reference(self, kind, tol):
        sample, options = gpa_case(kind)
        options = {**options, "tol": tol, "max_iter": 300}
        iterations, converged, *_ = reference_gpa(sample, **options)
        result = ss.weighted_gpa(sample, **options)
        assert (result.iterations, result.converged) == (iterations, converged)
        a, allow_scaling = result.mean_weights.weights, options.get("allow_scaling", True)
        for shape in sample.meshes[:3]:
            fit = ss.weighted_opa(shape.vertices, result.mean, result.mean_weights, allow_scaling=allow_scaling)
            residual = np.ascontiguousarray((result.mean - fit.fitted).T)
            assert fit.rss == float(np.einsum("j,kj,kj->", a, residual, residual))


    @pytest.mark.parametrize("tol", [0.0, 1e-16, np.nan, np.inf, -1.0])
    def test_tol_below_the_floor_is_refused(self, tol):
        """Below MIN_TOL = 1e-15, rounding would set the iteration count."""
        sample, _ = gpa_case("defaults")
        with pytest.raises(ValueError, match="tol must be finite and at least 1e-15"):
            ss.weighted_gpa(sample, tol=tol)


class TestApplySimilarity:
    def test_identity_leaves_shape(self):
        rng = np.random.default_rng(2)
        shape = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(ss.SimilarityTransform.identity().apply(shape), shape)

    def test_pure_translation(self):
        shape = np.zeros((4, 3))
        t = ss.SimilarityTransform(1.0, np.eye(3), np.array([1.0, 0, 0]))
        np.testing.assert_array_equal(t.apply(shape)[:, 0], np.ones(4))


class TestWeightedGpa:
    def test_identical_shapes_collapse_immediately(self):
        mesh = sphere_mesh()
        sample = ss.ShapeSample((mesh, mesh, mesh))
        result = ss.weighted_gpa(sample)
        assert result.iterations <= 2
        assert result.converged
        assert result.objective_trace[-1] < 1e-20
        # the mean is the shape itself, rescaled to unit surface area
        expected = mesh.vertices - ss.vertex_areas(mesh).weights @ mesh.vertices / ss.vertex_areas(mesh).total_area
        expected /= np.sqrt(ss.vertex_areas(mesh).total_area)
        np.testing.assert_allclose(result.mean, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_similarity_cohort_aligns_pairwise(self, seed):
        config = ss.SynthConfig(
            resolution=2,
            eigen_spectrum=(),
            n_shapes=6,
            nuisance_rotation_deg=60,
            nuisance_translation=4.0,
            nuisance_log_scale=0.5,
            seed=seed,
        )
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample)
        spread = result.aligned[:, None] - result.aligned[None, :]
        assert np.abs(spread).max() < 1e-6
        assert result.objective_trace[-1] < 1e-12
        assert np.all(np.diff(result.objective_trace) <= 1e-15)

    def test_mean_is_average_of_aligned_and_meets_constraint(self):
        config = ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.02, nuisance_rotation_deg=15, seed=5)
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample)
        np.testing.assert_allclose(result.mean, result.aligned.mean(axis=0), atol=1e-10)
        area = ss.triangle_areas(sample.meshes[0].with_vertices(result.mean)).sum()
        assert area == pytest.approx(1.0, rel=1e-10)
        assert result.mean_weights.total_area == pytest.approx(1.0, rel=1e-10)

    def test_initial_mean_area_constraint(self):
        config = ss.SynthConfig(resolution=2, n_shapes=5, noise_sd=0.01, seed=6)
        sample, _ = ss.synth_cohort(config)
        first_area = ss.triangle_areas(sample.meshes[0]).sum()
        result = ss.weighted_gpa(sample, size_constraint="initial_mean_area")
        area = ss.triangle_areas(sample.meshes[0].with_vertices(result.mean)).sum()
        assert area == pytest.approx(first_area, rel=1e-10)

    def test_shape_order_does_not_change_the_mean_shape(self):
        config = ss.SynthConfig(
            resolution=2, n_shapes=7, noise_sd=0.02, nuisance_rotation_deg=25, nuisance_translation=1.0, seed=8
        )
        sample, _ = ss.synth_cohort(config)
        reordered = ss.ShapeSample(tuple(reversed(sample.meshes)))
        mean_a = ss.weighted_gpa(sample, tol=1e-14, max_iter=300).mean
        mean_b = ss.weighted_gpa(reordered, tol=1e-14, max_iter=300).mean
        weights = ss.AreaWeights(np.ones(mean_a.shape[0]))
        fit = ss.weighted_opa(mean_b, mean_a, weights)
        assert np.sqrt(fit.rss) < 1e-8

    def test_objective_trace_non_increasing_on_similarity_cohorts(self):
        for seed in range(3):
            config = ss.SynthConfig(
                resolution=2, eigen_spectrum=(), n_shapes=10,
                nuisance_rotation_deg=45, nuisance_translation=2.0, nuisance_log_scale=0.3, seed=seed,
            )
            sample, _ = ss.synth_cohort(config)
            trace = ss.weighted_gpa(sample).objective_trace
            assert np.all(np.diff(trace) <= 1e-12 * max(trace[0], 1e-30))

    def test_objective_improves_overall_on_noisy_cohorts(self):
        # the per-iteration criterion changes with the weights, so strict
        # monotonicity is only guaranteed for exact-similarity cohorts; the
        # run must still end at least as good as it started
        for seed in range(3):
            config = ss.SynthConfig(
                resolution=2, n_shapes=10, noise_sd=0.05, nuisance_rotation_deg=30,
                nuisance_translation=2.0, nuisance_log_scale=0.2, seed=seed,
            )
            sample, _ = ss.synth_cohort(config)
            trace = ss.weighted_gpa(sample).objective_trace
            assert trace[-1] <= trace[0]
            assert np.all(np.diff(trace) <= 1e-4 * trace[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_override_rejected(self, value):
        config = ss.SynthConfig(resolution=2, n_shapes=4, noise_sd=0.01, seed=2)
        sample, _ = ss.synth_cohort(config)
        with pytest.raises(ValueError, match="weight override for vertex 0 is not finite"):
            ss.weighted_gpa(sample, weight_overrides={0: value})

    def test_all_zero_weight_overrides_refused_before_any_division(self):
        config = ss.SynthConfig(resolution=2, n_shapes=4, noise_sd=0.01, seed=2)
        sample, _ = ss.synth_cohort(config)
        assert sample.n_vertices == 66
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights sum to zero"):
                ss.weighted_gpa(sample, weight_overrides={j: 0.0 for j in range(66)})

    def test_non_convergence_flagged_not_raised(self):
        config = ss.SynthConfig(resolution=2, n_shapes=6, noise_sd=0.05, nuisance_rotation_deg=20, seed=2)
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample, max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_needs_two_shapes_and_correspondence(self):
        mesh = sphere_mesh()
        with pytest.raises(ValueError, match="at least two"):
            ss.weighted_gpa(ss.ShapeSample((mesh,)))
        other = sphere_mesh(3)
        # refused where the sample is built, before any registration
        with pytest.raises(ValueError, match=f"shape 1: vertex count {other.n_vertices} != {mesh.n_vertices} of shape 0"):
            ss.ShapeSample((mesh, other))

    def test_similarity_of_each_shape_changes_nothing(self):
        # a similarity applied to every member leaves the registration unchanged,
        # apart from the rotation of the first shape, which sets the mean's frame
        config = ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.02, nuisance_rotation_deg=20, seed=4)
        sample, _ = ss.synth_cohort(config)
        rng = np.random.default_rng(17)
        rotations = [random_rotation(rng) for _ in sample.meshes]
        moved = ss.ShapeSample(
            tuple(
                m.with_vertices(np.exp(rng.normal(scale=0.5)) * m.vertices @ r + rng.normal(scale=3.0, size=3))
                for m, r in zip(sample.meshes, rotations)
            )
        )
        base = ss.weighted_gpa(sample)
        result = ss.weighted_gpa(moved)
        np.testing.assert_allclose(result.mean, base.mean @ rotations[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.aligned, base.aligned @ rotations[0], rtol=0, atol=1e-10)

    def test_results_are_coordinate_major(self):
        # GPA works on one C-contiguous (n, 3, J) stack; the (J, 3) results are
        # views of it, so tangent rows are a reshape, not a transpose copy
        config = ss.SynthConfig(resolution=2, n_shapes=4, noise_sd=0.01, seed=2)
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample)
        assert result.aligned.transpose(0, 2, 1).flags.c_contiguous
        assert result.mean.T.flags.c_contiguous
        tangent = ss.tangent_coordinates(result.aligned, result.mean)
        assert tangent.base is not None  # a reshaped view, not a copy
        np.testing.assert_array_equal(tangent[1], ss.vec(result.aligned[1] - result.mean))

    @pytest.mark.parametrize("allow_scaling", [True, False])
    def test_tangent_rows_over_the_stack_are_tangent_coordinates(self, allow_scaling):
        config = ss.SynthConfig(resolution=2, n_shapes=6, noise_sd=0.02, nuisance_rotation_deg=20, seed=5)
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample, allow_scaling=allow_scaling)
        want = ss.tangent_coordinates(result.aligned, result.mean)
        stack = result.aligned.transpose(0, 2, 1)
        rows = _tangent_over_stack(result)
        assert np.shares_memory(rows, stack) and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()

    def test_transforms_map_originals_onto_aligned(self):
        config = ss.SynthConfig(resolution=2, n_shapes=5, noise_sd=0.01, nuisance_rotation_deg=10, seed=3)
        sample, _ = ss.synth_cohort(config)
        result = ss.weighted_gpa(sample)
        for mesh, transform, aligned in zip(sample.meshes, result.transforms, result.aligned):
            np.testing.assert_allclose(transform.apply(mesh.vertices), aligned, atol=1e-10)


class TestTangentCoordinates:
    def test_zero_for_mean_itself(self):
        mesh = sphere_mesh()
        np.testing.assert_array_equal(
            ss.tangent_coordinates(mesh.vertices[None], mesh.vertices), np.zeros((1, 3 * mesh.n_vertices))
        )

    def test_stacking_convention(self):
        mesh = sphere_mesh()
        j = mesh.n_vertices
        displaced = mesh.vertices.copy()
        displaced[4, 2] += 0.3
        row = ss.tangent_coordinates(displaced[None], mesh.vertices)[0]
        assert row[2 * j + 4] == pytest.approx(0.3)
        assert np.count_nonzero(row) == 1

    def test_vec_round_trip(self):
        rng = np.random.default_rng(12)
        shape = rng.normal(size=(17, 3))
        np.testing.assert_array_equal(ss.vec_inverse(ss.vec(shape)), shape)

    def test_vec_matches_tangent_rows(self):
        rng = np.random.default_rng(14)
        mean = rng.normal(size=(8, 3))
        shape = rng.normal(size=(8, 3))
        np.testing.assert_array_equal(ss.tangent_coordinates(shape[None], mean)[0], ss.vec(shape - mean))


class TestFarZeroWeightVertices:
    """Vertices without weight do not move the fit, however far they lie.

    The kernel's sums of squares are expanded about the source's centroid; it
    is the weighted centroid, so zero-weight vertices far from the rest leave
    nothing to cancel.
    """

    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_weighted_vertices_alone(self, offset, seed):
        rng = np.random.default_rng(seed)
        near = rng.normal(size=(4, 3))
        target = 1.3 * near @ random_rotation(rng) + 0.5 + rng.normal(scale=0.05, size=(4, 3))
        alone = ss.weighted_opa(near, target, ss.AreaWeights(np.ones(4)))
        source = np.vstack([near, offset + rng.normal(size=(4, 3))])
        weights = ss.AreaWeights(np.r_[np.ones(4), np.zeros(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ss.weighted_opa(source, np.vstack([target, rng.normal(size=(4, 3))]), weights)
        assert fit.transform.scale == pytest.approx(alone.transform.scale, rel=1e-9)
        np.testing.assert_allclose(fit.transform.rotation, alone.transform.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fit.transform.translation, alone.transform.translation, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fit.fitted[:4], alone.fitted, rtol=1e-9, atol=1e-9)
        assert fit.rss == pytest.approx(alone.rss, rel=1e-9)
        assert np.isfinite(fit.fitted).all()

    def test_scale_that_is_not_finite_is_a_numerical_failure(self):
        # the weighted sum of squares underflows to 0, so the scale divides by it
        corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], float)
        with np.errstate(all="ignore"), pytest.raises(ss.NumericalFailure, match="scale is not finite"):
            ss.weighted_opa(1e-170 * corners, corners, ss.AreaWeights(np.ones(5)))
