"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import surfshape as ss
from surfshape.chi2 import chi_square_quantile
from surfshape.cli import main as cli_main
from conftest import principal_angles, random_rotation


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_weighted_opa_exactness():
    minimize = pytest.importorskip("scipy.optimize").minimize
    Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
    with criterion(1, "weighted OPA exactness"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        j = 50
        cases = []
        for _ in range(100):
            source = rng.standard_normal((j, 3)) * rng.uniform(0.5, 3.0)
            rotation = random_rotation(rng)
            scale = rng.uniform(0.3, 3.0)
            translation = rng.normal(scale=10.0, size=3)
            target = scale * source @ rotation + translation
            weights = ss.AreaWeights(rng.uniform(0.1, 2.0, j))
            fit = ss.weighted_opa(source, target, weights)
            assert abs(fit.transform.scale - scale) < 1e-8
            assert np.abs(fit.transform.rotation - rotation).max() < 1e-8
            assert np.abs(fit.transform.translation - translation).max() < 1e-8
            assert fit.rss < 1e-12
            cases.append((source, target, weights, fit))

        def objective(source, target, a, params):
            rot = Rotation.from_rotvec(params[:3]).as_matrix()
            misfit = target - (np.exp(params[3]) * source @ rot + params[4:])
            return float(np.einsum("j,jk,jk->", a, misfit, misfit))

        def oracle(source, target, weights, fit):
            start_params = np.concatenate(
                [
                    Rotation.from_matrix(fit.transform.rotation).as_rotvec(),
                    [np.log(fit.transform.scale)],
                    fit.transform.translation,
                ]
            )
            starts = [start_params] + [
                np.concatenate([rng.normal(size=3), [rng.normal(scale=0.3)], rng.normal(size=3)])
                for _ in range(2)
            ]
            return min(
                minimize(
                    lambda p: objective(source, target, weights.weights, p),
                    s,
                    method="BFGS",
                    options={"gtol": 1e-12, "maxiter": 1000},
                ).fun
                for s in starts
            )

        # oracle on a subset of the exact pairs plus noisy pairs (nonzero optimum)
        for source, target, weights, fit in cases[:5]:
            assert abs(fit.rss - oracle(source, target, weights, fit)) < 1e-6
        for _ in range(5):
            source = rng.standard_normal((10, 3))
            target = source @ random_rotation(rng) * 1.5 + rng.normal(size=3)
            target += rng.normal(scale=0.1, size=target.shape)
            weights = ss.AreaWeights(rng.uniform(0.2, 1.5, 10))
            fit = ss.weighted_opa(source, target, weights)
            best = oracle(source, target, weights, fit)
            assert fit.rss <= best + 1e-6
            assert abs(fit.rss - best) < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_02_gpa_collapse():
    with criterion(2, "GPA collapse on similarity cohorts"):
        for seed in range(5):
            config = ss.SynthConfig(
                resolution=2, eigen_spectrum=(), n_shapes=10,
                nuisance_rotation_deg=60, nuisance_translation=5.0, nuisance_log_scale=0.5,
                seed=seed,
            )
            sample, _ = ss.synth_cohort(config)
            result = ss.weighted_gpa(sample, max_iter=20)
            assert result.iterations <= 20
            spread = result.aligned[:, None] - result.aligned[None, :]
            assert np.sqrt((spread**2).sum(axis=3)).max() < 1e-6
            trace = result.objective_trace
            assert np.all(np.diff(trace) <= 1e-12 * max(trace[0], 1e-30))


def test_03_fpca_oracle():
    with criterion(3, "FPCA eigenvalue and subspace recovery"):
        rng = np.random.default_rng(103)
        n, j = 30, 40
        tangent = rng.standard_normal((n, 3 * j)) * np.linspace(2.0, 0.05, 3 * j)
        weights = ss.AreaWeights(np.ones(j))
        model = ss.fit_fpca(tangent, weights, k=n - 1)
        centered = tangent - tangent.mean(axis=0)
        oracle_values = np.sort(np.linalg.eigvalsh(centered.T @ centered / (n - 1)))[::-1]
        k = model.n_components
        np.testing.assert_allclose(model.eigenvalues, oracle_values[:k], rtol=1e-8)

        spectrum = (5.0, 3.0, 1.0, 0.5, 0.1)
        config = ss.SynthConfig(
            resolution=2, eigen_spectrum=spectrum, n_shapes=40,
            standardize_scores=True, seed=103,
        )
        sample, truth = ss.synth_cohort(config)
        base_weights = ss.vertex_areas(truth.base_mesh)
        planted_tangent = ss.tangent_coordinates(sample.vertex_array(), truth.base_mesh.vertices)
        fitted = ss.fit_fpca(planted_tangent, base_weights, k=5)
        np.testing.assert_allclose(fitted.eigenvalues, spectrum, rtol=1e-6)
        angles = principal_angles(base_weights, fitted.eigenfunctions, truth.modes)
        assert angles.max() < 1e-4


def _calibration_cohort(seed: int):
    config = ss.SynthConfig(
        resolution=2,
        radii=(10.0, 10.0, 10.0),
        eigen_spectrum=(5.0, 3.0, 1.0, 0.5, 0.1),
        group_sizes=(15, 15),
        noise_sd=0.05,
        nuisance_rotation_deg=10,
        nuisance_translation=1.0,
        nuisance_log_scale=0.05,
        seed=seed,
    )
    return ss.synth_cohort(config)


def test_04_permutation_calibration():
    with criterion(4, "permutation test calibration at the 5% level"):
        start = time.perf_counter()
        rejections = 0
        n_reps = 200
        for rep in range(n_reps):
            sample, _ = _calibration_cohort(seed=1000 + rep)
            gpa = ss.weighted_gpa(sample, tol=1e-8)
            tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
            report = ss.permutation_test(
                tangent, sample.labels, p=5, weights=gpa.mean_weights, n_perm=500, seed=rep
            )
            rejections += report.global_p < 0.05
        rate = rejections / n_reps
        two_se = 2 * np.sqrt(0.05 * 0.95 / n_reps)
        assert abs(rate - 0.05) <= two_se, f"rejection rate {rate:.3f} outside 0.05 +/- {two_se:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"


def test_05_permutation_power():
    with criterion(5, "permutation test power for a planted 3-sigma shift"):
        detections = 0
        n_reps = 50
        for rep in range(n_reps):
            config = ss.SynthConfig(
                resolution=2,
                radii=(10.0, 10.0, 10.0),
                eigen_spectrum=(16.0, 8.0, 1.0, 0.5, 0.1),
                group_sizes=(15, 15),
                group_shift_component=3,
                group_shift_sd=3.0,
                noise_sd=0.05,
                nuisance_rotation_deg=10,
                nuisance_translation=1.0,
                seed=2000 + rep,
            )
            sample, _ = ss.synth_cohort(config)
            gpa = ss.weighted_gpa(sample, tol=1e-8)
            tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
            report = ss.permutation_test(
                tangent, sample.labels, p=5, weights=gpa.mean_weights, n_perm=500, seed=rep
            )
            detections += 3 in report.significant
        assert detections >= 0.90 * n_reps, f"detected {detections}/{n_reps}"


def test_06_group_shape_space_identity():
    with criterion(6, "group-shape-space statistic equals the sum of squared t's"):
        rng = np.random.default_rng(106)
        for _ in range(5):
            n = 26
            tangent = rng.standard_normal((n, 45)) * np.linspace(1.5, 0.02, 45)
            labels = np.array(["a"] * 13 + ["b"] * 13)
            p = 5
            report = ss.permutation_test(tangent, labels, p=p, n_perm=9, seed=0, mode="group_shape_space")
            mask = labels == "a"
            within = tangent - np.where(mask[:, None], tangent[mask].mean(0), tangent[~mask].mean(0))
            lam, vectors = np.linalg.eigh(within.T @ within / (n - 2))
            order = np.argsort(lam)[::-1]
            scores = tangent @ vectors[:, order[:p]]
            total = 0.0
            for k in range(p):
                xa, xb = scores[mask, k], scores[~mask, k]
                var = (((xa - xa.mean()) ** 2).sum() + ((xb - xb.mean()) ** 2).sum()) / (n - 2)
                total += (xa.mean() - xb.mean()) ** 2 / (var * (2 / 13))
            assert p * report.global_stat**2 == pytest.approx(total, abs=1e-8)


def test_07_affine_nonaffine():
    with criterion(7, "affine/non-affine split orthogonality and subspaces"):
        for seed in range(3):
            config = ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.02, seed=seed)
            sample, _ = ss.synth_cohort(config)
            gpa = ss.weighted_gpa(sample)
            affine, nonaffine, alphas = ss.affine_nonaffine_split(gpa.aligned, gpa.mean)
            for i in range(8):
                assert np.abs(gpa.mean.T @ (gpa.aligned[i] - affine[i])).max() < 1e-10
            np.testing.assert_allclose(affine + nonaffine - gpa.mean, gpa.aligned, atol=1e-12)

        rng = np.random.default_rng(107)
        mean = gpa.mean
        m = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        pure_affine, pure_nonaffine, pure_alpha = ss.affine_nonaffine_split((mean @ m)[None], mean)
        np.testing.assert_allclose(pure_alpha[0], m, atol=1e-10)
        np.testing.assert_allclose(pure_nonaffine[0], mean, atol=1e-10)

        raw = rng.normal(size=mean.shape)
        residual = raw - mean @ np.linalg.solve(mean.T @ mean, mean.T @ raw)
        shapes = (mean + residual)[None]
        a2, n2, alpha2 = ss.affine_nonaffine_split(shapes, mean)
        np.testing.assert_allclose(alpha2[0], np.eye(3), atol=1e-10)
        np.testing.assert_allclose(a2[0], mean, atol=1e-10)
        np.testing.assert_allclose(n2[0], shapes[0], atol=1e-10)


def test_08_asymmetry():
    with criterion(8, "asymmetry score exactness and invariance"):
        mesh, pairing = ss.synth_base_mesh(ss.SynthConfig(resolution=2))
        report = ss.asymmetry_report(mesh, pairing)
        assert report.global_score == 0.0
        assert np.all(report.per_vertex_distance == 0.0)

        from test_individual import brute_force_asymmetry, perturbed_mesh

        rng = np.random.default_rng(108)
        for magnitude in (0.01, 0.05, 0.15):
            bumped, bumped_pairing = perturbed_mesh(magnitude)
            got = ss.asymmetry_report(bumped, bumped_pairing).global_score
            expected = brute_force_asymmetry(bumped, bumped_pairing)
            assert got == pytest.approx(expected, abs=1e-10)
            for _ in range(2):
                moved = bumped.with_vertices(bumped.vertices @ random_rotation(rng) + rng.normal(size=3))
                moved_score = ss.asymmetry_report(moved, bumped_pairing).global_score
                assert moved_score == pytest.approx(got, abs=1e-8)


def test_09_closest_control():
    special = pytest.importorskip("scipy.special")
    with criterion(9, "closest-control shrinkage, exceedance, chi-square quantiles"):
        for p in range(1, 31):
            oracle = 2.0 * special.gammaincinv(p / 2.0, 0.95)
            assert abs(chi_square_quantile(p) - oracle) < 1e-8

        config = ss.SynthConfig(
            resolution=2,
            eigen_spectrum=(0.05, 0.03, 0.01, 0.005, 0.001),
            n_shapes=2000,
            noise_sd=0.002,
            nuisance_rotation_deg=5,
            nuisance_translation=0.2,
            seed=109,
        )
        controls, _ = ss.synth_cohort(config)
        model = ss.fit_control_model(controls, variance_threshold=0.80)
        exceedance = (model.control_d > model.chi2_threshold).mean()
        assert abs(exceedance - 0.05) <= 0.015, f"exceedance {exceedance:.4f}"

        # shrunk scores land exactly on the 95% ellipsoid boundary
        rng = np.random.default_rng(9)
        boundary_checked = 0
        for _ in range(10):
            coeffs = rng.normal(scale=4.0, size=model.p) * np.sqrt(model.fpca.eigenvalues)
            wild = model.fpca.mean + ss.vec_inverse(coeffs @ model.fpca.eigenfunctions)
            wild += rng.normal(scale=0.001, size=wild.shape)
            result = ss.assess_individual(model, model.mean_mesh().with_vertices(wild))
            if not result.within_component_range:
                shrunk = float((result.alpha1 * result.scores) ** 2 @ (1.0 / model.fpca.eigenvalues))
                assert shrunk == pytest.approx(model.chi2_threshold, abs=1e-8)
                boundary_checked += 1
        assert boundary_checked >= 5


def test_10_thin_plate_spline():
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    with criterion(10, "thin-plate-spline interpolation, affinity, oracle"):
        assert ss.radial_basis(1.0) == -1.0 / (8.0 * np.pi)
        rng = np.random.default_rng(110)
        for j in (5, 20, 50):
            x = rng.standard_normal((j, 3))
            y = rng.standard_normal((j, 3))
            field = ss.fit_tps(x, y)
            np.testing.assert_allclose(ss.apply_warp(field, x), y, atol=1e-8)
            s_inv = np.linalg.inv(-cdist(x, x) / (8 * np.pi))
            q = np.hstack([np.ones((j, 1)), x])
            middle = np.linalg.inv(q.T @ s_inv @ q)
            be = s_inv - s_inv @ q @ middle @ q.T @ s_inv
            np.testing.assert_allclose(field.beta1, be @ y, atol=1e-8)
            assert field.bending_energy == pytest.approx(np.trace(y.T @ be @ y), abs=1e-8)

        x = rng.standard_normal((30, 3))
        m = rng.standard_normal((3, 3))
        t = rng.standard_normal(3)
        affine_field = ss.fit_tps(x, x @ m + t)
        assert np.abs(affine_field.beta1).max() < 1e-10
        assert affine_field.bending_energy == pytest.approx(0.0, abs=1e-10)


def test_11_cli_determinism(tmp_path):
    with criterion(11, "CLI byte-identical reruns"):
        def pipeline(root):
            sim = root / "sim"
            assert cli_main([
                "simulate", "--out", str(sim), "--group-sizes", "10,10",
                "--spectrum", "0.05,0.02,0.01", "--noise-sd", "0.01",
                "--nuisance-rotation", "15", "--asymmetry", "0.02", "--seed", "77",
            ]) == 0
            cmp_out = root / "cmp"
            assert cli_main([
                "compare", "--meshes", str(sim / "meshes"), "--labels", str(sim / "labels.csv"),
                "--p", "3", "--n-perm", "99", "--seed", "5", "--out", str(cmp_out),
            ]) == 0
            asym_out = root / "asym"
            assert cli_main([
                "asymmetry", "--meshes", str(sim / "meshes"), "--pairing", str(sim / "pairing.csv"),
                "--regions", str(sim / "regions.csv"), "--out", str(asym_out),
            ]) == 0

        def artifacts(root):
            out = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    rel = str(path.relative_to(root))
                    if path.name == "manifest.json":
                        doc = json.loads(path.read_text())
                        doc.pop("created_at")
                        doc["options"].pop("out", None)
                        doc["options"].pop("meshes", None)
                        doc["options"].pop("labels", None)
                        doc["options"].pop("pairing", None)
                        doc["options"].pop("regions", None)
                        out[rel] = json.dumps(doc, sort_keys=True)
                    else:
                        out[rel] = path.read_bytes()
            return out

        first = tmp_path / "run1"
        second = tmp_path / "run2"
        pipeline(first)
        pipeline(second)
        a, b = artifacts(first), artifacts(second)
        assert set(a) == set(b)
        mismatched = [name for name in a if a[name] != b[name]]
        assert not mismatched, f"artifacts differ: {mismatched}"
