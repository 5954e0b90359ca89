"""Triangle mesh geometry: area weights, normals, correspondence, difference fields,
and the split of per-shape work over the CPUs.

Meshes are corresponded: vertex j means the same surface location on every
shape in a sample, and all shapes in a sample share one triangulation.
"""
from __future__ import annotations

import copy
import os
import pickle
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import Iterable, Mapping

import numpy as np

DIFFERENCE_MODES = ("x", "y", "z", "normal", "signed_euclidean")

_BLOCK = 8_192  # triangles per block of triangle_areas; tangent columns per block in fpca


class NumericalFailure(ValueError):
    """A singular, rank-deficient, degenerate or zero-variance computation.

    The inputs were well formed but the statistics cannot be computed from
    them; the command line maps this (and ``np.linalg.LinAlgError``) to exit 3.
    """


def _as_vertices(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"vertices must be (J, 3), got {v.shape}")
    return v


def _as_triangles(triangles) -> np.ndarray:
    t = np.asarray(triangles, dtype=np.intp)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"triangles must be (T, 3), got {t.shape}")
    return t


def _region_indices(idx, n_vertices: int, name: str | None = None, min_size: int = 0) -> np.ndarray:
    """A region's distinct vertex indices as an increasing intp array. A boolean
    mask or a fractional array is refused, not cast to indices, and so is a
    region of fewer than ``min_size`` distinct vertices (3 for one registered
    on its own)."""
    label = "region" if name is None else f"region {name!r}"
    idx = np.ravel(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{label} must hold integer vertex indices, got {idx.dtype} values")
    idx = idx.astype(np.intp, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= n_vertices):
        raise ValueError(f"{label} references a vertex outside [0, {n_vertices})")
    # np.unique sorts; a region that is already strictly increasing (the usual case) skips it
    idx = idx if (idx[1:] > idx[:-1]).all() else np.unique(idx)
    if idx.size < min_size:
        reason = "is empty" if idx.size == 0 else f"has {idx.size} vertices; registering it on its own needs {min_size}"
        raise ValueError(f"{label} {reason}")
    return idx


@dataclass(frozen=True)
class SurfaceMesh:
    """A triangulated surface: (J, 3) vertex coordinates in mm plus (T, 3) index triples.

    Every vertex lies on at least one triangle, and no triangle repeats a vertex.
    ``regions`` optionally names vertex subsets (region name -> increasing index
    array). They are metadata carried with the mesh and written by ``simulate``;
    scoring takes its regions as an argument, never from the mesh.
    ``first_index`` numbers the vertex or triangle a refusal names: 0, or 1 as
    an OBJ file does.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    regions: dict[str, np.ndarray] | None = None
    _: KW_ONLY
    first_index: InitVar[int] = 0

    def __post_init__(self, first_index: int):
        v = _as_vertices(self.vertices)
        t = _as_triangles(self.triangles)
        if v.shape[0] < 3:
            raise ValueError(f"mesh needs at least 3 vertices, got {v.shape[0]}")
        if t.shape[0] < 1:
            raise ValueError("mesh needs at least 1 triangle")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("triangle index out of range")
        degenerate = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        if degenerate.any():
            raise ValueError(f"triangle {int(np.flatnonzero(degenerate)[0]) + first_index} repeats a vertex index")
        # a vertex on no triangle would get zero weight in every surface sum
        isolated = np.ones(v.shape[0], dtype=bool)
        isolated[t] = False
        if isolated.any():
            raise ValueError(f"vertex {int(np.flatnonzero(isolated)[0]) + first_index} appears in no triangle")
        regions = self.regions
        if regions is not None:
            regions = {name: _region_indices(idx, v.shape[0], name) for name, idx in regions.items()}
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "regions", regions)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def with_vertices(self, vertices) -> "SurfaceMesh":
        """Same topology and regions, new coordinates.

        Only the new vertex array is checked; the triangles and regions were
        validated when this mesh was built and are shared, not re-checked.
        """
        v = _as_vertices(vertices)
        if v.shape[0] != self.n_vertices:
            raise ValueError(f"expected {self.n_vertices} vertices, got {v.shape[0]}")
        mesh = copy.copy(self)
        object.__setattr__(mesh, "vertices", v)
        return mesh


@dataclass(frozen=True)
class AreaWeights:
    """Per-vertex surface areas (mm^2): the diagonal of the weighting matrix.

    ``total_area`` is the sum of the weights, derived on construction; without
    overrides it equals the total triangle area of the surface.
    """

    weights: np.ndarray
    total_area: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be 1-D")
        if (w < 0).any():
            raise ValueError("area weights must be non-negative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total_area", float(w.sum()))

    @property
    def stacked(self) -> np.ndarray:
        """Length-3J weight vector matching the vec() stacking (x block, y block, z block)."""
        return np.concatenate([self.weights, self.weights, self.weights])


@dataclass(frozen=True)
class BilateralPairing:
    """Left/right vertex correspondence: an involution on vertex indices.

    ``pair[j]`` is the mirror partner of vertex j; midline vertices are the
    fixed points.
    """

    pair: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pair, dtype=np.intp)
        if p.ndim != 1:
            raise ValueError("pair must be a 1-D index array")
        j = np.arange(p.size)
        if p.min() < 0 or p.max() >= p.size:
            raise ValueError("pairing index out of range")
        if not np.array_equal(p[p], j):
            bad = int(np.flatnonzero(p[p] != j)[0])
            raise ValueError(f"pairing is not an involution at vertex {bad}")
        object.__setattr__(self, "pair", p)

    @property
    def midline(self) -> np.ndarray:
        """Indices of vertices fixed by the involution."""
        return np.flatnonzero(self.pair == np.arange(self.pair.size))


@dataclass(frozen=True)
class ShapeSample:
    """A cohort of corresponded shapes with optional group labels: every shape has
    shape 0's vertex count and triangle list, and finite coordinates."""

    meshes: tuple[SurfaceMesh, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        meshes = tuple(self.meshes)
        if len(meshes) < 1:
            raise ValueError("a sample needs at least one shape")
        for i, mesh in enumerate(meshes):
            check_correspondence(mesh, meshes[0], "shape 0", f"shape {i}")
            if not np.isfinite(mesh.vertices).all():
                j = int(np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))[0])
                raise ValueError(f"shape {i}: non-finite coordinate at vertex {j}")
        if self.labels is not None:
            labels = tuple(str(l) for l in self.labels)
            if len(labels) != len(meshes):
                raise ValueError(f"{len(labels)} labels for {len(meshes)} shapes")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "meshes", meshes)

    @property
    def n_shapes(self) -> int:
        return len(self.meshes)

    @property
    def n_vertices(self) -> int:
        return self.meshes[0].n_vertices

    def vertex_array(self) -> np.ndarray:
        """All shapes stacked as (n, J, 3)."""
        return np.stack([m.vertices for m in self.meshes])


def _cross_blocks(mesh: SurfaceMesh):
    """(triangle slice, cx, cy, cz) per block of _BLOCK triangles: the cross
    product (b - a) x (c - a) of each triangle's corners a, b, c.

    Gathers coordinate columns and writes the cross product out: the same
    operations, in the same order, as numpy's ``cross``, in fixed-size temporaries.
    """
    x, y, z = mesh.vertices.T
    for start in range(0, mesh.n_triangles, _BLOCK):
        block = slice(start, start + _BLOCK)
        i, j, k = mesh.triangles[block].T
        x0, y0, z0 = x[i], y[i], z[i]
        ux, uy, uz = x[j] - x0, y[j] - y0, z[j] - z0
        vx, vy, vz = x[k] - x0, y[k] - y0, z[k] - z0
        yield block, uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _corner_sums(mesh: SurfaceMesh, values: np.ndarray) -> np.ndarray:
    """Per-vertex sums of a per-triangle value over the vertex's triangles,
    corner by corner in triangle order, into one zero vector."""
    sums = np.zeros(mesh.n_vertices)
    for corner in mesh.triangles.T:
        np.add.at(sums, corner, values)
    return sums


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Per-triangle areas: numpy's ``0.5 * norm(cross(b - a, c - a))`` bit for
    bit, block by block."""
    areas = np.empty(mesh.n_triangles)
    for block, cx, cy, cz in _cross_blocks(mesh):
        areas[block] = 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
    return areas


def vertex_areas(mesh: SurfaceMesh, overrides: Mapping[int, float] | None = None) -> AreaWeights:
    """Area weight per vertex: one third of the area of each incident triangle.

    ``overrides`` replaces the computed weight at the given vertices (used for
    curve points carried in the model as ordinary vertices).

    Raises
    ------
    ValueError
        If every triangle has zero area, or an override is negative, not
        finite or names a vertex outside the mesh.
    """
    return _area_weights(mesh, triangle_areas(mesh), overrides)


def _area_weights(mesh: SurfaceMesh, areas: np.ndarray, overrides: Mapping[int, float] | None) -> AreaWeights:
    """:func:`vertex_areas` of ``mesh``'s triangulation for the given
    per-triangle ``areas``, for a caller that holds them already."""
    if not (areas > 0).any():
        raise ValueError("zero-area surface")
    w = _corner_sums(mesh, areas / 3.0)
    if overrides:
        for j, value in overrides.items():
            if not 0 <= j < mesh.n_vertices:
                raise ValueError(f"weight override references vertex {j} outside [0, {mesh.n_vertices})")
            if not np.isfinite(value):
                raise ValueError(f"weight override for vertex {j} is not finite")
            if value < 0:
                raise ValueError(f"weight override for vertex {j} is negative")
            w[j] = value
    return AreaWeights(w)


def vertex_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Unit outward normals: area-weighted average of incident triangle normals.

    Raises
    ------
    ValueError
        If a vertex's averaged normal vanishes.
    """
    # cross product = 2 * area * unit normal, which is exactly the area weighting
    cross = np.empty((3, mesh.n_triangles))
    for block, *columns in _cross_blocks(mesh):
        cross[:, block] = columns
    normals = np.column_stack([_corner_sums(mesh, c) for c in cross])
    lengths = np.linalg.norm(normals, axis=1)
    if (lengths == 0).any():
        raise ValueError(f"vertex {int(np.flatnonzero(lengths == 0)[0])} has a degenerate normal")
    return normals / lengths[:, None]


def check_correspondence(mesh: SurfaceMesh, reference: SurfaceMesh, reference_name: str, label: str) -> None:
    """Refuse ``mesh`` as ``label: reason`` unless it shares the vertex count and
    the triangle list of ``reference`` (called ``reference_name`` in the reason).
    A shared triangle array is not compared."""
    if mesh.n_vertices != reference.n_vertices:
        raise ValueError(f"{label}: vertex count {mesh.n_vertices} != {reference.n_vertices} of {reference_name}")
    if mesh.triangles is not reference.triangles and not np.array_equal(mesh.triangles, reference.triangles):
        raise ValueError(f"{label}: triangle list differs from {reference_name}")


def shape_difference_field(base: SurfaceMesh, other: SurfaceMesh, mode: str) -> np.ndarray:
    """Per-vertex scalar difference field (mm) from ``base`` to ``other``.

    Modes: ``x``/``y``/``z`` coordinate differences, ``normal`` projection of the
    displacement on base's vertex normal, ``signed_euclidean`` distance signed by
    that projection.
    """
    if mode not in DIFFERENCE_MODES:
        raise ValueError(f"unknown difference mode {mode!r}; expected one of {DIFFERENCE_MODES}")
    check_correspondence(other, base, "the base mesh", "meshes are not in correspondence")
    # C order whatever the inputs' layout: the reductions below round by layout,
    # and a mesh built on a transposed view (a GPA result) must read as its copy
    delta = np.subtract(other.vertices, base.vertices, order="C")
    if mode in ("x", "y", "z"):
        return delta[:, ("x", "y", "z").index(mode)].copy()
    projection = np.einsum("jk,jk->j", delta, vertex_normals(base))
    if mode == "normal":
        return projection
    distance = np.linalg.norm(delta, axis=1)
    sign = np.where(projection < 0, -1.0, 1.0)
    return distance * sign


def _in_shares(n: int, task, sizes=None) -> list:
    """What ``task(indices)`` gives for a list of indices into ``range(n)``, a
    list with one item per index, run in one share per CPU this process may
    run on, at most ``n``.

    The items are dealt largest first by ``sizes`` (one each when None),
    each to the least-loaded share, the first of equals: equal sizes are
    dealt round robin, so shares differ by at most one item. A share runs
    its items in index order.

    The first share runs here and each other one in a child made by
    ``os.fork``, which sends its list back through a pipe as one pickle (the
    pickles come only from this process's own children). A child that fails
    exits non-zero having sent nothing or part of it, so its stream does not
    unpickle. Such a share, this process's own share if it raised, and every
    share left when a fork fails are run again here once the others are in,
    as one list in index order: every exception is thus the serial code's
    first. With one CPU or one item, or without ``os.fork``, this is
    ``task(range(n))``.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    count = min(n, cpus)
    if count < 2:
        return task(range(n))
    sizes = [1] * n if sizes is None else sizes
    shares, loads = [[] for _ in range(count)], [0] * count
    for i in sorted(range(n), key=lambda i: -sizes[i]):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += sizes[i]
    shares = [sorted(share) for share in shares]
    results, again, children = [None] * n, [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this share and the rest run here
                os.close(read)
                os.close(write)
                break
            if not pid:
                # Python 3.12 warns about forking a process with (OpenBLAS)
                # threads. The child takes no lock they hold: numpy's OpenBLAS
                # registers blas_thread_shutdown_ as a fork handler, so its pool
                # stops before the fork and starts again at the next BLAS or
                # LAPACK call on either side. Every per-shape product gives the
                # same bits on any thread count (FORMATS.md, "Run manifest").
                # Besides numpy, the child parses or formats text and does file
                # I/O, then leaves by os._exit.
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        # all of it before the first write, or the pipe stalls the child
                        pickle.dump(task(share), pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((share, pid, open(read, "rb")))
        try:
            done = task(shares[0])
        except Exception:  # raised again by the rerun below, after the items before it
            again += shares[0]
        else:
            results = _placed(results, shares[0], done)
        for share, _, pipe in children:
            try:
                results = _placed(results, share, pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):  # the child failed before its list was all sent
                again += share
        again = sorted(again + [i for share in shares[1 + len(children) :] for i in share])
        return _placed(results, again, task(again)) if again else results
    finally:
        for _, pid, pipe in children:  # closed first, so that a child blocked on its pipe ends
            pipe.close()
            os.waitpid(pid, 0)


def _placed(results: list, indices, done: list) -> list:
    """``results`` with ``done[k]`` put at ``indices[k]``."""
    for i, value in zip(indices, done):
        results[i] = value
    return results
