"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

import surfshape as ss

try:
    from hypothesis import settings
except ImportError:  # property suites skip themselves without hypothesis
    pass
else:
    # reproducible and bounded: the same examples on every run, no example database
    settings.register_profile("surfshape", derandomize=True, deadline=None, max_examples=150, database=None)
    # the same, with more examples, for CI's tier-1 step (pytest --hypothesis-profile ci)
    settings.register_profile("ci", settings.get_profile("surfshape"), max_examples=1000)
    settings.load_profile("surfshape")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def similarity_cohort(seed):
    """A synthetic two-group cohort, and the same cohort with a different random
    similarity (rotation, scale, translation) applied to each shape."""
    config = ss.SynthConfig(
        resolution=2, group_sizes=(9, 9), group_shift_component=1, group_shift_sd=1.5, noise_sd=0.01, seed=seed
    )
    sample, _ = ss.synth_cohort(config)
    rng = np.random.default_rng(seed + 1000)
    moved = []
    for mesh in sample.meshes:
        scale = np.exp(rng.uniform(-0.5, 0.5))
        shift = rng.uniform(-3.0, 3.0, 3)
        moved.append(mesh.with_vertices(scale * mesh.vertices @ random_rotation(rng).T + shift))
    return sample, ss.ShapeSample(tuple(moved), labels=sample.labels)


def sphere_mesh(resolution: int = 2) -> ss.SurfaceMesh:
    mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=resolution))
    return mesh


def sphere_with_pairing(resolution: int = 2):
    return ss.synth_base_mesh(ss.SynthConfig(resolution=resolution))


def bumpy_mesh(rng: np.random.Generator, resolution: int = 2, amplitude: float = 0.05) -> ss.SurfaceMesh:
    """Randomly perturbed sphere: generic non-degenerate geometry."""
    mesh = sphere_mesh(resolution)
    return mesh.with_vertices(mesh.vertices + amplitude * rng.standard_normal(mesh.vertices.shape))


def flat_square_mesh() -> ss.SurfaceMesh:
    """Unit square in the z=0 plane, counterclockwise seen from +z."""
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return ss.SurfaceMesh(vertices, triangles)


def weighted_a_norm(weights: ss.AreaWeights, v: np.ndarray) -> float:
    w = weights.stacked
    return float(np.sqrt(v @ (w * v)))


def principal_angles(weights: ss.AreaWeights, basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles between two spans of (K, 3J) rows under the A inner product."""
    sw = np.sqrt(weights.stacked)
    qa, _ = np.linalg.qr((basis_a * sw).T)
    qb, _ = np.linalg.qr((basis_b * sw).T)
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def drawn_masks(seed, n: int, na: int, n_perm: int) -> np.ndarray:
    """The group-a masks permutation_test draws for ``seed``."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((n_perm, n), dtype=bool)
    for r in range(n_perm):
        masks[r, rng.permutation(n)[:na]] = True
    return masks
