"""Synthetic cohorts with planted ground truth.

The base surface is an octahedron-subdivision sphere shaped into a stretched
superellipsoid (exponent 1 is the stretched sphere), built so that reflection
in the x = 0 plane maps the vertex set onto itself bitwise-exactly; the
bilateral pairing is found by coordinate lookup, not by nearest-neighbour
search. Cohorts add planted area-orthonormal deformation modes, optional
group shifts, optional mirror-breaking displacement, noise, and nuisance
similarity transforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import AreaWeights, BilateralPairing, ShapeSample, SurfaceMesh, check_memory, vertex_areas, vertex_normals
from .registration import SimilarityTransform, vec_inverse

_OCTAHEDRON_VERTICES = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)
_OCTAHEDRON_FACES = np.array(
    [
        [0, 2, 4],
        [2, 1, 4],
        [1, 3, 4],
        [3, 0, 4],
        [2, 0, 5],
        [1, 2, 5],
        [3, 1, 5],
        [0, 3, 5],
    ],
    dtype=np.intp,
)


# Areas, and the area-weighted inner products of the planted modes and of registration, are fourth powers of
# lengths: a radius or noise sd in this range keeps them normal floats, with two decades to spare for sums.
_LENGTH_BOUNDS = (np.finfo(float).tiny ** 0.25 * 100, np.finfo(float).max ** 0.25 / 100)


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a synthetic cohort; every draw is determined by ``seed``.

    ``exponent`` shapes the superellipsoid that ``radii`` stretches; exponent 1
    is the (stretched) sphere. The recipe owns its rules: a bad or non-finite
    number, or an option that the recipe would ignore, is refused here."""

    resolution: int = 2
    radii: tuple[float, float, float] = (1.0, 1.0, 1.0)
    exponent: float = 1.0
    eigen_spectrum: tuple[float, ...] = (0.05, 0.02, 0.01)
    n_shapes: int = 20
    group_sizes: tuple[int, int] | None = None
    group_shift_component: int | None = None  # 1-based planted mode index
    group_shift_sd: float = 0.0
    asymmetry_magnitude: float = 0.0
    noise_sd: float = 0.0
    nuisance_rotation_deg: float = 0.0
    nuisance_translation: float = 0.0
    nuisance_log_scale: float = 0.0
    standardize_scores: bool = False
    seed: int | None = None

    def __post_init__(self):
        if len(self.radii) != 3:
            raise ValueError(f"radii must be three values, got {len(self.radii)}")
        if len(self.eigen_spectrum) > MAX_PLANTED_MODES:
            raise ValueError(f"eigen_spectrum gives at most {MAX_PLANTED_MODES} modes, got {len(self.eigen_spectrum)}")
        if self.group_sizes is not None and (len(self.group_sizes) != 2 or min(self.group_sizes) < 1):
            raise ValueError(f"group_sizes must be two positive counts, got {self.group_sizes}")
        for name in ("radii", "exponent", "eigen_spectrum", "group_shift_sd", "asymmetry_magnitude", "noise_sd",
                     "nuisance_rotation_deg", "nuisance_translation", "nuisance_log_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 subdivisions")
        # synth_cohort holds the shapes and their tangent rows at once: 48 bytes per vertex of each shape
        need = 48 * self.n_total * (4 ** (self.resolution + 1) + 2)
        check_memory(need, f"resolution {self.resolution} with {self.n_total:,} shapes needs about {need:,} bytes")
        if min(self.radii) <= 0 or min(self.noise_sd, self.nuisance_translation, self.nuisance_log_scale) < 0:
            raise ValueError("radii must be positive; noise_sd, nuisance_translation, nuisance_log_scale non-negative")
        lo, hi = _LENGTH_BOUNDS
        if not lo <= min(self.radii) <= max(self.radii) <= hi:
            raise ValueError(f"radii must lie in [{lo:.2g}, {hi:.2g}], got {self.radii}")
        if self.noise_sd > hi:
            raise ValueError(f"noise_sd must be at most {hi:.2g}, got {self.noise_sd}")
        # the unit sphere's coordinates strictly between 0 and 1 in magnitude lie in [sin t, cos t], t the angle
        # from a pole to its nearest vertex: cos(t)**e must stay a rounding unit below 1 (or vertices coincide)
        # and the fourth power of sin(t)**e a normal float (or areas and normals underflow)
        t = np.ldexp(np.pi, -(self.resolution + 1))
        lo, hi = np.finfo(float).eps / -np.log(np.cos(t)), np.log(np.finfo(float).tiny) / (4 * np.log(np.sin(t)))
        if not lo <= self.exponent <= hi:
            raise ValueError(f"exponent must lie in [{lo:.2g}, {hi:.3g}] at resolution {self.resolution}, "
                             f"got {self.exponent}")
        # numpy draws the translation over a span of 2 * nuisance_translation; the scale is exp(log scale)
        if 2 * self.nuisance_translation > np.finfo(float).max or self.nuisance_log_scale > np.log(np.finfo(float).max):
            raise ValueError("nuisance_translation and nuisance_log_scale must keep the drawn transforms finite")
        spectrum = tuple(float(s) for s in self.eigen_spectrum)
        if any(s <= 0 for s in spectrum):
            raise ValueError("eigen_spectrum entries must be positive")
        if any(a <= b for a, b in zip(spectrum, spectrum[1:])):
            raise ValueError("eigen_spectrum must be strictly decreasing")
        if self.group_shift_component is not None and not 1 <= self.group_shift_component <= len(spectrum):
            raise ValueError("group_shift_component outside the planted modes")
        given = (self.group_shift_component is not None, bool(self.group_shift_sd), bool(self.group_sizes))
        if any(given[:2]) and not all(given):
            raise ValueError("a group shift needs group_shift_component, a non-zero group_shift_sd and group_sizes")
        if self.standardize_scores and self.n_total <= len(spectrum):
            raise ValueError("standardization needs more shapes than modes")
        object.__setattr__(self, "eigen_spectrum", spectrum)

    @property
    def n_modes(self) -> int:
        return len(self.eigen_spectrum)

    @property
    def n_total(self) -> int:
        return sum(self.group_sizes) if self.group_sizes else self.n_shapes


@dataclass(frozen=True)
class SynthGroundTruth:
    """What the draw adds to its :class:`SynthConfig`, for recovery checks."""

    modes: np.ndarray  # (K, 3J), A-orthonormal on the base mesh
    spectrum: np.ndarray
    z: np.ndarray  # (n, K) standard-normal draws behind the shapes
    transforms: tuple[SimilarityTransform, ...]
    base_mesh: SurfaceMesh
    pairing: BilateralPairing


def _subdivide_octasphere(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere vertices and faces of the octahedron after ``resolution``
    midpoint subdivisions. Each level numbers its new vertices by the first
    appearance of their edge, walking the faces in order and each face's edges
    as ab, bc, ca, and splits face abc into (a, ab, ca), (b, bc, ab),
    (c, ca, bc), (ab, bc, ca)."""
    vertices = _OCTAHEDRON_VERTICES
    faces = _OCTAHEDRON_FACES
    for _ in range(resolution):
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = ends.min(axis=1) * vertices.shape[0] + ends.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        new_ends = ends[first[order]]
        m = 0.5 * (vertices[new_ends[:, 0]] + vertices[new_ends[:, 1]])
        # a stacked matmul is the dot product np.linalg.norm takes of one
        # 3-vector, bit for bit; norm(axis=1) and einsum round differently
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])[:, None]
        ab, bc, ca = (vertices.shape[0] + rank[inverse].reshape(-1, 3)).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        vertices = np.concatenate([vertices, m])
    return vertices + 0.0, faces  # +0.0 turns -0.0 into +0.0 for exact mirror lookups


def _pairing_from_coordinates(vertices: np.ndarray) -> BilateralPairing:
    """Pair each vertex with the vertex whose bytes equal its x-mirrored
    coordinates (the last such vertex, should two coincide)."""
    n = vertices.shape[0]
    mirrored = vertices * np.array([-1.0, 1.0, 1.0]) + 0.0
    rows = np.concatenate([vertices, mirrored]).view("V24").ravel()  # one 24-byte key per row
    unique, inverse = np.unique(rows, return_inverse=True)
    index = np.full(unique.size, -1, dtype=np.intp)
    np.maximum.at(index, inverse[:n], np.arange(n))
    pair = index[inverse[n:]]
    if (pair < 0).any():
        raise ValueError(f"vertex {int(np.flatnonzero(pair < 0)[0])} has no exact mirror partner")
    return BilateralPairing(pair)


def synth_base_mesh(config: SynthConfig) -> tuple[SurfaceMesh, BilateralPairing]:
    """Mirror-symmetric base surface with exact vertex pairing across x = 0:
    the superellipsoid ``sign(u) |u|**exponent * radii`` over the unit-sphere
    vertices u (exponent 1 is the stretched sphere, bit for bit).

    Regions ``upper`` (z >= 0) and ``lower`` (z < 0) are attached for
    sub-region scores.
    """
    unit, faces = _subdivide_octasphere(config.resolution)
    vertices = np.sign(unit) * np.abs(unit) ** config.exponent * np.asarray(config.radii, dtype=float) + 0.0
    regions = {
        "upper": np.flatnonzero(vertices[:, 2] >= 0),
        "lower": np.flatnonzero(vertices[:, 2] < 0),
    }
    mesh = SurfaceMesh(vertices, faces, regions)
    return mesh, _pairing_from_coordinates(vertices)


_SMOOTH_FIELDS = (
    lambda x, y, z: z,
    lambda x, y, z: y,
    lambda x, y, z: x,
    lambda x, y, z: x * y,
    lambda x, y, z: y * z,
    lambda x, y, z: z * x,
    lambda x, y, z: x * x - y * y,
    lambda x, y, z: 2 * z * z - x * x - y * y,
    lambda x, y, z: x * y * z,
    lambda x, y, z: x * (x * x - 3 * y * y),
    lambda x, y, z: y * (y * y - 3 * z * z),
    lambda x, y, z: z * (z * z - 3 * x * x),
)
MAX_PLANTED_MODES = len(_SMOOTH_FIELDS)


def _similarity_directions(base: np.ndarray) -> np.ndarray:
    """Tangent directions of translations, rotations and scaling at the base shape."""
    j = base.shape[0]
    directions = []
    for axis in range(3):
        t = np.zeros((j, 3))
        t[:, axis] = 1.0
        directions.append(t)
    generators = (
        np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        np.array([[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        np.array([[0.0, 0, 0], [0, 0, 1], [0, -1, 0]]),
    )
    directions.extend(base @ g for g in generators)
    directions.append(base.copy())
    return np.stack([d.reshape(-1, order="F") for d in directions])


def planted_modes(mesh: SurfaceMesh, weights: AreaWeights, n_modes: int) -> np.ndarray:
    """A-orthonormal low-frequency displacement modes, orthogonal to the similarity
    directions so alignment does not eat the planted variation."""
    if n_modes > MAX_PLANTED_MODES:
        raise ValueError(f"at most {MAX_PLANTED_MODES} planted modes are available")
    if n_modes == 0:
        return np.zeros((0, 3 * mesh.n_vertices))
    w = weights.stacked  # <u, v>_A is einsum("j,j->", u, w * v): fixed order, where a BLAS dot splits by thread
    normals = vertex_normals(mesh)
    unit = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    x, y, z = unit.T

    basis = list(_similarity_directions(mesh.vertices))
    for u in basis:
        u /= np.sqrt(np.einsum("j,j->", u, w * u))
    # Gram-Schmidt within the basis itself first
    ortho: list[np.ndarray] = []
    for u in basis:
        for v in ortho:
            u = u - np.einsum("j,j->", v, w * u) * v
        norm = np.sqrt(np.einsum("j,j->", u, w * u))
        if norm > 1e-10:
            ortho.append(u / norm)
    n_nuisance = len(ortho)

    for h in _SMOOTH_FIELDS:
        if len(ortho) - n_nuisance == n_modes:
            break
        u = (h(x, y, z)[:, None] * normals).reshape(-1, order="F")
        scale = np.sqrt(np.einsum("j,j->", u, w * u))
        for v in ortho:
            u = u - np.einsum("j,j->", v, w * u) * v
        norm = np.sqrt(np.einsum("j,j->", u, w * u))
        if norm > 1e-8 * scale:
            ortho.append(u / norm)
    modes = np.stack(ortho[n_nuisance:])
    if modes.shape[0] < n_modes:
        raise ValueError("could not construct enough independent planted modes")
    return modes


def _standardize(z: np.ndarray) -> np.ndarray:
    """Exact empirical standardization: zero mean, identity covariance (ddof=1)."""
    n = z.shape[0]
    centered = z - z.mean(axis=0)
    q, _ = np.linalg.qr(centered)
    return q * np.sqrt(n - 1)


def _random_transform(rng: np.random.Generator, config: SynthConfig) -> SimilarityTransform:
    angle = np.radians(config.nuisance_rotation_deg) * rng.uniform(-1.0, 1.0)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rotation = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    translation = rng.uniform(-config.nuisance_translation, config.nuisance_translation, 3)
    scale = float(np.exp(rng.uniform(-config.nuisance_log_scale, config.nuisance_log_scale)))
    return SimilarityTransform(scale, rotation, translation)


def _asymmetry_field(mesh: SurfaceMesh, magnitude: float) -> np.ndarray:
    """Smooth one-sided bump (off the midline) along the vertex normals."""
    unit = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    center = np.array([1.0, 0.5, 0.3])
    center /= np.linalg.norm(center)
    bump = np.exp(-np.sum((unit - center) ** 2, axis=1) / 0.5)
    return magnitude * (bump[:, None] * vertex_normals(mesh)).reshape(-1, order="F")


def synth_cohort(config: SynthConfig) -> tuple[ShapeSample, SynthGroundTruth]:
    """Generate a cohort of shapes with planted modes, recording all ground truth.

    Each shape is base + planted-mode displacement (+ group shift for the
    second group) (+ common asymmetry field) + iid noise, then hit with a
    random nuisance similarity transform. ``standardize_scores`` forces the
    mode draws to have exactly zero mean and identity covariance so the
    planted spectrum is recoverable to numerical precision.
    """
    mesh, pairing = synth_base_mesh(config)
    weights = vertex_areas(mesh)
    modes = planted_modes(mesh, weights, config.n_modes)
    spectrum = np.asarray(config.eigen_spectrum)
    rng = np.random.default_rng(config.seed)

    n = config.n_total
    z = rng.standard_normal((n, config.n_modes))
    if config.standardize_scores:
        z = _standardize(z)

    labels: tuple[str, ...] | None = None
    shift = np.zeros((n, 1))
    if config.group_sizes is not None:
        n_a, n_b = config.group_sizes
        labels = ("A",) * n_a + ("B",) * n_b
        shift[n_a:] = 1.0

    tangent = np.einsum("nk,km->nm", z * np.sqrt(spectrum), modes)  # BLAS rounds by thread even at k = 3
    if config.group_shift_component is not None:
        k = config.group_shift_component - 1
        tangent += shift * (config.group_shift_sd * np.sqrt(spectrum[k])) * modes[k]
    if config.asymmetry_magnitude:
        tangent += _asymmetry_field(mesh, config.asymmetry_magnitude)

    meshes = []
    transforms = []
    for i in range(n):
        verts = mesh.vertices + vec_inverse(tangent[i])
        if config.noise_sd:
            verts = verts + rng.normal(0.0, config.noise_sd, verts.shape)
        transform = _random_transform(rng, config)
        transforms.append(transform)
        meshes.append(mesh.with_vertices(transform.apply(verts)))

    sample = ShapeSample(tuple(meshes), labels=labels)
    return sample, SynthGroundTruth(modes, spectrum, z, tuple(transforms), mesh, pairing)
