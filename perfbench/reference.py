"""Reference computations for the benchmark's checks, in plain numpy/scipy.

Nothing here imports surfshape.  The checks compare the program's outputs
with these independent computations, or test properties the method must
have; none of them compares against a stored copy of earlier output.
"""
from __future__ import annotations

import numpy as np
from scipy import stats


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (J, 3) and 0-based triangles (T, 3) of a v/f OBJ file."""
    vertices, faces = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                vertices.append(line.split()[1:4])
            elif line.startswith("f "):
                faces.append([int(ref.split("/")[0]) - 1 for ref in line.split()[1:4]])
    return np.array(vertices, dtype=float), np.array(faces, dtype=np.int64)


def read_obj_vertices(path) -> np.ndarray:
    return read_obj(path)[0]


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def vertex_weights(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area measure per vertex: one third of the area of every incident triangle."""
    share = np.repeat(triangle_areas(vertices, triangles) / 3.0, 3)
    return np.bincount(triangles.ravel(), weights=share, minlength=len(vertices))


def weighted_centroid(vertices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return weights @ vertices / weights.sum()


def vertex_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Unit normals from the area-weighted sum of incident face normals."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    cross = np.cross(b - a, c - a)
    flat = triangles.ravel()
    summed = np.stack(
        [np.bincount(flat, weights=np.repeat(cross[:, k], 3), minlength=len(vertices)) for k in range(3)], axis=1
    )
    return summed / np.linalg.norm(summed, axis=1)[:, None]


def difference_fields(base: np.ndarray, other: np.ndarray, triangles: np.ndarray) -> dict[str, np.ndarray]:
    """Per-vertex displacement from ``base`` to ``other``: its projection on the base
    normals, and its Euclidean length signed by that projection."""
    delta = other - base
    normal = np.einsum("jk,jk->j", delta, vertex_normals(base, triangles))
    length = np.linalg.norm(delta, axis=1)
    return {"normal": normal, "signed_euclidean": np.where(normal < 0, -length, length)}


def stacked(weights: np.ndarray) -> np.ndarray:
    """Vertex weights repeated for the (x block, y block, z block) layout of a 3J row."""
    return np.tile(weights, 3)


def weighted_pca(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain-SVD PCA of (n, 3J) rows under the inner product sum_j a_j u_j . v_j.

    Returns eigenvalues, eigenfunctions (rows, orthonormal under the area
    inner product) and the scores of the centred rows.
    """
    w = stacked(weights)
    root = np.sqrt(w)
    centred = rows - rows.mean(axis=0)
    u, s, vt = np.linalg.svd(centred * root, full_matrices=False)
    return s**2 / (rows.shape[0] - 1), vt / root, u * s


def within_group_scores(rows: np.ndarray, weights: np.ndarray, in_a: np.ndarray, p: int) -> np.ndarray:
    """Scores of all rows on the first ``p`` eigenvectors of the pooled within-group
    covariance, under the area inner product."""
    data = rows * np.sqrt(stacked(weights))
    means = np.where(in_a[:, None], data[in_a].mean(axis=0), data[~in_a].mean(axis=0))
    _, _, vt = np.linalg.svd(data - means, full_matrices=False)
    return data @ vt[:p].T


def hotelling_t2(scores: np.ndarray, in_a: np.ndarray) -> float:
    """Two-sample Hotelling T^2 with the pooled covariance."""
    a, b = scores[in_a], scores[~in_a]
    ca, cb = a - a.mean(axis=0), b - b.mean(axis=0)
    pooled = (ca.T @ ca + cb.T @ cb) / (len(scores) - 2)
    diff = a.mean(axis=0) - b.mean(axis=0)
    return float(diff @ np.linalg.solve(pooled, diff) / (1.0 / len(a) + 1.0 / len(b)))


def chi2_threshold(p: int, level: float = 0.95) -> float:
    return float(stats.chi2.ppf(level, p))


def on_permutation_grid(p_value: float, n_perm: int) -> bool:
    """Permutation p-values are k / (n_perm + 1) for an integer k in [1, n_perm + 1]."""
    k = p_value * (n_perm + 1)
    return abs(k - round(k)) < 1e-9 * (n_perm + 1) and 1 <= round(k) <= n_perm + 1
