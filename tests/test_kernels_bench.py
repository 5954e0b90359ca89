"""Micro-benchmarks of the geometry and registration kernels at J = 16,386, and
of the closed-form permutation statistics at n = 60.

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


@pytest.fixture
def timed(benchmark, request):
    rounds = BENCH_ROUNDS if request.config.getoption("benchmark_only") else 1

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds, iterations=1)

    return run


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
