"""Micro-benchmarks of the synthetic base mesh, the OBJ reader and writers, the
model writer, the geometry and the registration kernels at J = 16,386, and of
the permutation test at n = 60.

Under the plain test run each case times a single round, so the suite stays
fast. For timings, run

    pytest tests/test_kernels_bench.py --benchmark-only

which repeats each case ``BENCH_ROUNDS`` times.
"""
import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

import surfshape as ss
from surfshape.groupcompare import PERMUTATION_MODES
from surfshape.io import load_mesh_directory, mesh_names, read_mesh, write_files

BENCH_ROUNDS = 7


@pytest.fixture(scope="module")
def cohort():
    config = ss.SynthConfig(
        resolution=6, noise_sd=0.01, nuisance_rotation_deg=15.0, nuisance_translation=0.5,
        nuisance_log_scale=0.1, n_shapes=10, seed=1,
    )
    sample, _ = ss.synth_cohort(config)
    assert sample.n_vertices == 16386
    return sample


@pytest.fixture(scope="module")
def obj_directory(cohort, tmp_path_factory):
    directory = tmp_path_factory.mktemp("objs")
    for i, mesh in enumerate(cohort.meshes):
        write_files([(directory / f"shape_{i:02d}.obj", mesh)])
    return directory


@pytest.fixture
def timed(benchmark, request):
    rounds = BENCH_ROUNDS if request.config.getoption("benchmark_only") else 1

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds, iterations=1)

    return run


def test_synth_base_mesh(timed):
    mesh, pairing = timed(ss.synth_base_mesh, ss.SynthConfig(resolution=6))
    assert mesh.n_vertices == 16386 and pairing.pair.shape == (16386,)


def test_write_files(timed, cohort, tmp_path):
    """Ten files that share one triangle array: the face block is formatted once."""
    paths = [tmp_path / f"shape_{i:02d}.obj" for i in range(cohort.n_shapes)]
    timed(write_files, list(zip(paths, cohort.meshes)))
    assert all(path.stat().st_size > 2**20 for path in paths)


def test_read_mesh(timed, obj_directory):
    mesh = timed(read_mesh, obj_directory / "shape_00.obj")
    assert mesh.n_vertices == 16386


def test_load_mesh_directory(timed, obj_directory):
    """Ten files that share one face block: the later nine parse only their vertices."""
    meshes = timed(load_mesh_directory, obj_directory, mesh_names(obj_directory))
    assert len(meshes) == 10 and all(mesh.triangles is meshes[0].triangles for mesh in meshes)


def test_triangle_areas(timed, cohort):
    areas = timed(ss.triangle_areas, cohort.meshes[0])
    assert areas.shape == (cohort.meshes[0].n_triangles,) and (areas > 0).all()


def test_vertex_areas(timed, cohort):
    weights = timed(ss.vertex_areas, cohort.meshes[0])
    assert weights.weights.shape == (cohort.n_vertices,)


def test_weighted_opa(timed, cohort):
    weights = ss.vertex_areas(cohort.meshes[1])
    fit = timed(ss.weighted_opa, cohort.meshes[0].vertices, cohort.meshes[1].vertices, weights)
    assert np.isfinite(fit.rss)


def test_weighted_gpa(timed, cohort):
    result = timed(ss.weighted_gpa, cohort)
    assert result.converged


@pytest.mark.parametrize("mode", PERMUTATION_MODES)
def test_permutation_statistics(timed, mode):
    """1,000 permutations of 60 shapes already reduced to 59 coordinates, so the
    Gram reduction is negligible and the per-permutation statistics dominate."""
    rng = np.random.default_rng(2)
    coords = rng.standard_normal((60, 59)) * np.linspace(1.0, 0.05, 59)
    labels = np.repeat(["A", "B"], 30)
    report = timed(ss.permutation_test, coords, labels, p=3, n_perm=1000, seed=1, mode=mode)
    assert report.permuted_global.shape == (1000,)


def test_save_model(timed, cohort, tmp_path):
    """A control model of the ten shapes: mean, weights, eigenfunctions and triangles."""
    model = ss.fit_control_model(cohort)
    path = tmp_path / "control_model.json"
    timed(write_files, [(path, model)])
    assert path.stat().st_size > 2**20


def test_permutation_test(timed, cohort):
    """The area-weighted test of compare-sized data: 60 rows of 3J tangent
    coordinates, 500 permutations."""
    rng = np.random.default_rng(3)
    tangent = rng.standard_normal((60, 3 * cohort.n_vertices)) * np.linspace(1.0, 0.1, 60)[:, None]
    labels = np.repeat(["A", "B"], 30)
    weights = ss.vertex_areas(cohort.meshes[0])
    report = timed(ss.permutation_test, tangent, labels, p=3, weights=weights, n_perm=500, seed=1)
    assert report.permuted_global.shape == (500,)
