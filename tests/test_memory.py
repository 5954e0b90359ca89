"""Memory guards for registration and the cohort statistics.

The statistics make no copy of their (n, 3J) tangent rows: they walk them in
blocks of 8,192 columns. GPA works on one (n, 3, J) stack of the cohort, over
which the control fit and the CLI write the tangent rows. tracemalloc (which
sees numpy's buffers) measures the peak a call allocates, in units of the
input stack; the call must also leave its input unchanged. The older bounds
(one copy: 1.3 and 1.4 stacks) stand beside the tighter ones.
"""
import tracemalloc

import numpy as np
import pytest

import surfshape as ss
from conftest import random_rotation, sphere_mesh
from surfshape import ShapeSample, weighted_gpa
from surfshape.cli import main
from surfshape.fpca import fit_fpca
from surfshape.groupcompare import PERMUTATION_MODES, permutation_test
from surfshape.individual import _residual_lengths, fit_control_model
from surfshape.io import write_files, write_labels
from surfshape.mesh import AreaWeights

N_SHAPES, N_VERTICES = 40, 20_000


@pytest.fixture(scope="module")
def tangent():
    rng = np.random.default_rng(8)
    return rng.standard_normal((N_SHAPES, 3 * N_VERTICES)) * np.linspace(2.0, 0.1, N_SHAPES)[:, None]


@pytest.fixture(scope="module")
def weights():
    return AreaWeights(np.random.default_rng(9).uniform(0.5, 1.5, N_VERTICES))


def peak_bytes(fn, *args, **kwargs):
    """The peak memory ``fn(*args, **kwargs)`` allocates, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def peak_stacks(tangent, fn, *args, **kwargs):
    """The peak memory ``fn(tangent, ...)`` allocates, in stacks of ``tangent``'s
    size, after checking that the call leaves ``tangent`` as it was."""
    before = tangent.copy()
    peak = peak_bytes(fn, tangent, *args, **kwargs)
    assert np.array_equal(tangent, before), "the call wrote into its tangent argument"
    return peak / tangent.nbytes


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("mode", PERMUTATION_MODES)
def test_permutation_test_holds_one_copy(tangent, weights, mode, weighted):
    labels = np.repeat(["A", "B"], N_SHAPES // 2)
    stacks = peak_stacks(
        tangent, permutation_test, labels, p=2, weights=weights if weighted else None, n_perm=50, seed=1, mode=mode
    )
    assert stacks <= 1.3


def test_fit_fpca_holds_one_copy(tangent, weights):
    assert peak_stacks(tangent, fit_fpca, weights, k=2) <= 1.3


def test_residual_lengths_hold_one_copy(tangent, weights):
    model = fit_fpca(tangent, weights, k=2)
    score_rows = tangent @ (model.eigenfunctions * weights.stacked).T
    assert peak_stacks(tangent, _residual_lengths, model, score_rows) <= 1.4


def test_weighted_gpa_holds_one_stack():
    # the working stack becomes the aligned stack, so GPA holds one stack of
    # the cohort, not the input and the aligned shapes side by side
    rng = np.random.default_rng(10)
    base = sphere_mesh(6)  # J = 16,386: several blocks of triangle_areas
    sample = ShapeSample(
        tuple(
            base.with_vertices(
                np.exp(rng.normal(scale=0.1)) * (base.vertices + rng.normal(scale=0.01, size=base.vertices.shape))
                @ random_rotation(rng)
                + rng.normal(size=3)
            )
            for _ in range(N_SHAPES)
        )
    )
    before = sample.vertex_array()
    stacks = peak_bytes(weighted_gpa, sample) / before.nbytes
    assert np.array_equal(sample.vertex_array(), before), "GPA wrote into its input meshes"
    assert stacks <= 1.3


# the block buffer of the reduction is (n, 8,192): 8,192 / 60,000 of a stack here
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("mode", PERMUTATION_MODES)
def test_permutation_test_holds_no_copy(tangent, weights, mode, weighted):
    labels = np.repeat(["A", "B"], N_SHAPES // 2)
    stacks = peak_stacks(
        tangent, permutation_test, labels, p=2, weights=weights if weighted else None, n_perm=50, seed=1, mode=mode
    )
    assert stacks <= 0.3


def test_fit_fpca_holds_no_copy(tangent, weights):
    assert peak_stacks(tangent, fit_fpca, weights, k=2) <= 0.3


def test_residual_lengths_hold_their_output_and_one_block(tangent, weights):
    # the (n, J) lengths are a third of a stack
    model = fit_fpca(tangent, weights, k=2)
    score_rows = tangent @ (model.eigenfunctions * weights.stacked).T
    assert peak_stacks(tangent, _residual_lengths, model, score_rows) <= 0.5


def planted_cohort(n_shapes, **options):
    """A J = 16,386 cohort whose three planted modes carry most of the variance,
    so that the 0.80 rule keeps few components."""
    config = ss.SynthConfig(
        resolution=6, eigen_spectrum=(0.05, 0.02, 0.01), n_shapes=n_shapes, noise_sd=0.01, seed=1, **options
    )
    return ss.synth_cohort(config)


def test_fit_control_model_holds_one_stack_beyond_its_input():
    controls, truth = planted_cohort(N_SHAPES, nuisance_rotation_deg=10, nuisance_translation=0.5)
    before = controls.vertex_array()
    stacks = peak_bytes(
        fit_control_model, controls, pairing=truth.pairing, regions=truth.base_mesh.regions
    ) / before.nbytes
    assert np.array_equal(controls.vertex_array(), before), "the fit wrote into its input meshes"
    assert stacks <= 1.5


def test_compare_holds_the_meshes_and_one_stack(tmp_path):
    # the meshes are released after GPA and the tangent rows written over its
    # stack, so the peak is the GPA step: the meshes plus one stack
    sample, _ = planted_cohort(60, group_sizes=(30, 30))
    names = [f"shape_{i:03d}.obj" for i in range(sample.n_shapes)]
    (tmp_path / "meshes").mkdir()
    write_files(zip((tmp_path / "meshes" / name for name in names), sample.meshes))
    write_labels(dict(zip(names, sample.labels)), tmp_path / "labels.csv")
    stack = sample.vertex_array().nbytes
    del sample
    args = ["compare", "--meshes", str(tmp_path / "meshes"), "--labels", str(tmp_path / "labels.csv")]
    args += ["--p", "2", "--n-perm", "20", "--seed", "1", "--out", str(tmp_path / "out")]
    assert peak_bytes(main, args) / stack <= 2.3
