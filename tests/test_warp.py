import tracemalloc

import numpy as np
import pytest

import surfshape as ss
from conftest import random_rotation, sphere_mesh


def closed_form_oracle(x, y):
    """Bending-energy-matrix route: Be = S^-1 - S^-1 Q (Q^T S^-1 Q)^-1 Q^T S^-1."""
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    s = -cdist(x, x) / (8.0 * np.pi)
    q = np.hstack([np.ones((len(x), 1)), x])
    s_inv = np.linalg.inv(s)
    middle = np.linalg.inv(q.T @ s_inv @ q)
    be = s_inv - s_inv @ q @ middle @ q.T @ s_inv
    beta1 = be @ y
    beta2 = middle @ q.T @ s_inv @ y
    energy = np.trace(y.T @ be @ y)
    return be, beta1, beta2, energy


def random_points(seed, n=20, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, 3))


class TestFitTps:
    def test_identity_warp(self):
        x = random_points(0)
        field = ss.fit_tps(x, x)
        np.testing.assert_allclose(field.beta1, 0.0, atol=1e-10)
        expected_affine = np.vstack([np.zeros(3), np.eye(3)])
        np.testing.assert_allclose(field.beta2, expected_affine, atol=1e-9)
        assert field.bending_energy == pytest.approx(0.0, abs=1e-10)

    def test_affine_targets_have_zero_bending(self):
        rng = np.random.default_rng(1)
        x = random_points(2)
        m = rng.standard_normal((3, 3))
        t = rng.standard_normal(3)
        field = ss.fit_tps(x, x @ m + t)
        np.testing.assert_allclose(field.beta1, 0.0, atol=1e-10)
        assert field.bending_energy == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(field.beta2[0], t, atol=1e-8)
        np.testing.assert_allclose(field.beta2[1:], m, atol=1e-8)

    def test_interpolates_control_points(self):
        x = random_points(3)
        y = random_points(4)
        field = ss.fit_tps(x, y)
        np.testing.assert_allclose(ss.apply_warp(field, x), y, atol=1e-8)

    def test_matches_closed_form_oracle(self):
        x = random_points(5)
        y = random_points(6)
        field = ss.fit_tps(x, y)
        _, beta1, beta2, energy = closed_form_oracle(x, y)
        np.testing.assert_allclose(field.beta1, beta1, atol=1e-8)
        np.testing.assert_allclose(field.beta2, beta2, atol=1e-8)
        assert field.bending_energy == pytest.approx(energy, abs=1e-8)

    @pytest.mark.parametrize("j", [5, 12, 50])
    def test_oracle_equivalence_across_sizes(self, j):
        x = random_points(10 + j, n=j)
        y = random_points(20 + j, n=j)
        field = ss.fit_tps(x, y)
        _, beta1, _, energy = closed_form_oracle(x, y)
        np.testing.assert_allclose(field.beta1, beta1, atol=1e-8)
        assert field.bending_energy == pytest.approx(energy, abs=1e-8)

    def test_side_conditions(self):
        x = random_points(7)
        y = random_points(8)
        field = ss.fit_tps(x, y)
        np.testing.assert_allclose(field.beta1.sum(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(x.T @ field.beta1, 0.0, atol=1e-8)

    def test_bending_energy_nonnegative_and_zero_iff_affine(self):
        x = random_points(9)
        bent = ss.fit_tps(x, random_points(11))
        assert bent.bending_energy > 0
        assert np.abs(bent.beta1).max() > 1e-6
        assert np.all(bent.bending_energy_by_coordinate >= 0)
        assert bent.bending_energy == pytest.approx(bent.bending_energy_by_coordinate.sum())

    def test_translation_equivariance(self):
        x = random_points(12)
        y = random_points(13)
        queries = random_points(14, n=7)
        shift = np.array([3.0, -2.0, 0.5])
        base = ss.apply_warp(ss.fit_tps(x, y), queries)
        shifted = ss.apply_warp(ss.fit_tps(x + shift, y + shift), queries + shift)
        np.testing.assert_allclose(shifted, base + shift, atol=1e-8)

    def test_kernel_rescaling_gives_same_interpolant(self):
        # any positive multiple of the kernel yields the same warp
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = random_points(15)
        y = random_points(16)
        queries = random_points(17, n=9)
        j = len(x)
        q = np.hstack([np.ones((j, 1)), x])
        for factor in (2.0, 0.25):
            s = factor * (-cdist(x, x) / (8 * np.pi))
            system = np.zeros((j + 4, j + 4))
            system[:j, :j] = s
            system[:j, j:] = q
            system[j:, :j] = q.T
            solution = np.linalg.solve(system, np.vstack([y, np.zeros((4, 3))]))
            kernel = factor * (-cdist(queries, x) / (8 * np.pi))
            rescaled = kernel @ solution[:j] + np.hstack([np.ones((9, 1)), queries]) @ solution[j:]
            np.testing.assert_allclose(rescaled, ss.apply_warp(ss.fit_tps(x, y), queries), atol=1e-8)

    def test_duplicate_points_rejected(self):
        x = random_points(18)
        x[3] = x[7]
        with pytest.raises(ValueError, match="duplicate"):
            ss.fit_tps(x, random_points(19))

    def test_coplanar_points_rejected(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((10, 3))
        x[:, 2] = 0.0
        with pytest.raises(ValueError, match="coplanar"):
            ss.fit_tps(x, random_points(21, n=10))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            ss.fit_tps(random_points(22, n=4), random_points(23, n=4))


class TestRadialBasis:
    def test_value_at_one(self):
        assert ss.radial_basis(1.0) == -1.0 / (8.0 * np.pi)

    def test_linear_in_distance(self):
        z = np.array([0.0, 2.0, 5.0])
        np.testing.assert_array_equal(ss.radial_basis(z), -z / (8 * np.pi))


class TestApplyWarp:
    def test_single_point_matches_batch(self):
        field = ss.fit_tps(random_points(24), random_points(25))
        queries = random_points(26, n=4)
        batch = ss.apply_warp(field, queries)
        for i in range(len(queries)):
            np.testing.assert_allclose(ss.apply_warp(field, queries[i : i + 1]), batch[i : i + 1], atol=1e-12)

    def test_affine_field_equals_direct_affine_map(self):
        rng = np.random.default_rng(27)
        x = random_points(28)
        m = rng.standard_normal((3, 3))
        t = rng.standard_normal(3)
        field = ss.fit_tps(x, x @ m + t)
        queries = random_points(29, n=30, scale=2.0)
        np.testing.assert_allclose(ss.apply_warp(field, queries), queries @ m + t, atol=1e-7)


class TestWarpTemplate:
    def test_identity_model_leaves_template(self):
        template = sphere_mesh(3)
        model_points = random_points(30, n=12, scale=1.2)
        warped = template.with_vertices(ss.apply_warp(ss.fit_tps(model_points, model_points), template.vertices))
        np.testing.assert_allclose(warped.vertices, template.vertices, atol=1e-9)
        np.testing.assert_array_equal(warped.triangles, template.triangles)

    def test_rigid_model_motion_moves_template_rigidly(self):
        template = sphere_mesh(3)
        rng = np.random.default_rng(31)
        model_points = random_points(32, n=15, scale=1.5)
        rotation = random_rotation(rng)
        shift = rng.normal(size=3)
        field = ss.fit_tps(model_points, model_points @ rotation + shift)
        warped = template.with_vertices(ss.apply_warp(field, template.vertices))
        np.testing.assert_allclose(warped.vertices, template.vertices @ rotation + shift, atol=1e-8)

    def test_model_points_land_on_target(self):
        rng = np.random.default_rng(33)
        template = sphere_mesh(3)
        model_source = template.vertices[rng.choice(template.n_vertices, 20, replace=False)]
        model_target = model_source + rng.normal(scale=0.1, size=model_source.shape)
        field = ss.fit_tps(model_source, model_target)
        warped = template.with_vertices(ss.apply_warp(field, template.vertices))
        np.testing.assert_allclose(ss.apply_warp(field, model_source), model_target, atol=1e-8)
        assert set(warped.regions) == set(template.regions)
        for name in template.regions:
            np.testing.assert_array_equal(warped.regions[name], template.regions[name])


class TestSizeLimit:
    """fit_tps refuses a system above MEMORY_LIMIT before building it."""

    def test_limit_is_two_gib_at_j_8188(self):
        from surfshape.mesh import MEMORY_LIMIT
        from surfshape.warp import check_tps_size

        assert MEMORY_LIMIT == 2 * 1024**3
        check_tps_size(8188)  # 4 * 8 * 8192^2 bytes is exactly the limit
        with pytest.raises(ValueError, match="J = 8189 control points needs about 2,148,007,968 bytes"):
            check_tps_size(8189)

    def test_fit_refuses_before_allocating(self):
        # 8,189 points would need a 537 MB distance matrix alone; the refusal
        # has to come first (pdist, cdist and the system are never built)
        x = random_points(3, n=8189)
        with pytest.raises(ValueError, match=r"above the limit of 2,147,483,648 bytes \(2 GiB\)"):
            ss.fit_tps(x, x)

    def test_apply_warp_evaluates_the_kernel_in_blocks_within_the_limit(self, monkeypatch):
        import surfshape.mesh

        control = sphere_mesh(4).vertices  # J = 1,026
        template = sphere_mesh(5).vertices  # M = 4,098: a 33.6 MB kernel, one block at the real limit
        field = ss.fit_tps(control, control + 0.01 * np.random.default_rng(2).standard_normal(control.shape))
        whole = ss.apply_warp(field, template)
        limit = 8 * control.shape[0] * 500  # blocks of 500 rows, 9 of them
        monkeypatch.setattr(surfshape.mesh, "MEMORY_LIMIT", limit)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            blocked = ss.apply_warp(field, template)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)
        # beside the kernel block and the (M, 3) result: the distances' scratch of at most
        # 2**18 floats (255 rows here) and numpy's ufunc buffers (8,192 elements per operand)
        assert peak < limit + template.nbytes + 8 * 2**18 + 2**18



def scipy_fit_tps(source, target, ridge=0.0):
    """The scipy-cdist fit that fit_tps replaced, kept as a bitwise oracle:
    (beta1, beta2), or the ValueError message it raises."""
    distance = pytest.importorskip("scipy.spatial.distance")
    cdist, pdist = distance.cdist, distance.pdist

    x, y = np.asarray(source, dtype=float), np.asarray(target, dtype=float)
    j = x.shape[0]
    if pdist(x).min() < 1e-9:
        raise ValueError("duplicate source points make the kernel matrix singular")
    q = np.hstack([np.ones((j, 1)), x])
    s = -cdist(x, x) / (8.0 * np.pi)
    if ridge:
        s = s + ridge * np.eye(j)
    system = np.zeros((j + 4, j + 4))
    system[:j, :j] = s
    system[:j, j:] = q
    system[j:, :j] = q.T
    solution = np.linalg.solve(system, np.vstack([y, np.zeros((4, 3))]))
    return solution[:j], solution[j:]


def scipy_apply_warp(beta1, beta2, control_points, points):
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    kernel = -cdist(points, control_points) / (8.0 * np.pi)
    return kernel @ beta1 + np.hstack([np.ones((points.shape[0], 1)), points]) @ beta2


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestMatchesScipyCdist:
    """fit_tps and apply_warp build their distances with numpy alone and give
    the bits of the scipy cdist code they replaced."""

    @pytest.mark.parametrize("n, m, ridge", [(5, 3, 0.0), (20, 40, 0.0), (66, 258, 0.0), (300, 1100, 0.0),
                                              (40, 50, 1e-3), (40, 50, 2.5), (300, 1100, 0.1)])
    def test_fit_and_apply_are_bitwise(self, n, m, ridge):
        rng = np.random.default_rng(n + m)
        x = rng.standard_normal((n, 3))
        y = x + 0.2 * rng.standard_normal((n, 3))
        queries = 1.5 * rng.standard_normal((m, 3))
        field = ss.fit_tps(x, y, ridge=ridge)
        beta1, beta2 = scipy_fit_tps(x, y, ridge=ridge)
        assert_bitwise(field.beta1, beta1)
        assert_bitwise(field.beta2, beta2)
        assert_bitwise(ss.apply_warp(field, queries), scipy_apply_warp(beta1, beta2, x, queries))

    def test_template_warp_is_bitwise(self):
        template = sphere_mesh(4)  # 1,026 vertices: the rows go through the scratch in several blocks
        x = sphere_mesh(2).vertices * np.array([1.0, 1.1, 0.9])
        y = x + 0.05 * np.random.default_rng(5).standard_normal(x.shape)
        field = ss.fit_tps(x, y)
        beta1, beta2 = scipy_fit_tps(x, y)
        assert_bitwise(ss.apply_warp(field, template.vertices), scipy_apply_warp(beta1, beta2, x, template.vertices))

    def test_duplicate_refusal_at_the_boundary(self):
        # two points whose distance is 1e-9 give or take a few ulps: both codes
        # refuse exactly the same inputs, and give the same bits for the others
        y = random_points(32)
        refused = set()
        for steps in range(-4, 5):
            x = random_points(31)
            gap = 1e-9
            for _ in range(abs(steps)):
                gap = np.nextafter(gap, np.inf if steps > 0 else 0.0)
            x[0], x[1] = 0.0, (gap, 0.0, 0.0)
            try:
                expected = scipy_fit_tps(x, y)
            except ValueError as err:
                refused.add(steps)
                with pytest.raises(ValueError, match=str(err)):
                    ss.fit_tps(x, y)
                continue
            assert_bitwise(ss.fit_tps(x, y).beta1, expected[0])
        assert refused == set(range(-4, 0))

    def test_refusal_boundary_is_one_nanometre(self):
        x = random_points(33)
        x[1] = x[0]
        x[1, 0] += 2e-9
        ss.fit_tps(x, random_points(34))
        x[1, 0] = x[0, 0] + 0.5e-9
        with pytest.raises(ValueError, match="duplicate source points"):
            ss.fit_tps(x, random_points(34))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf])
    def test_non_finite_ridge_is_refused(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite"):
            ss.fit_tps(random_points(35), random_points(36), ridge=ridge)

    @pytest.mark.parametrize("ridge", [-1e-3, -1.0, -5e-324])
    def test_negative_ridge_is_refused(self, ridge):
        # a negative ridge can give negative per-coordinate energies, or more bending than the exact fit
        with pytest.raises(ValueError, match="ridge must be finite and at least 0"):
            ss.fit_tps(random_points(35), random_points(36), ridge=ridge)
