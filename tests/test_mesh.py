import os
import pickle
from unittest import mock

import numpy as np
import pytest

import surfshape as ss
import surfshape.io as sio
from conftest import assert_no_child_left, bumpy_mesh, flat_square_mesh, random_rotation, sphere_mesh
from surfshape.io import load_mesh_directory, mesh_names, read_mesh, write_files
from surfshape.mesh import _in_shares, check_correspondence


def single_triangle():
    return ss.SurfaceMesh(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        np.array([[0, 1, 2]]),
    )


class TestVertexAreas:
    def test_single_triangle_splits_area_three_ways(self):
        weights = ss.vertex_areas(single_triangle())
        np.testing.assert_allclose(weights.weights, [1 / 6, 1 / 6, 1 / 6])
        assert weights.total_area == pytest.approx(0.5)

    def test_unit_square(self):
        weights = ss.vertex_areas(flat_square_mesh())
        np.testing.assert_allclose(weights.weights, [1 / 3, 1 / 6, 1 / 3, 1 / 6])
        assert weights.total_area == pytest.approx(1.0)

    def test_scaling_mesh_scales_weights_quadratically(self):
        mesh = bumpy_mesh(np.random.default_rng(1))
        base = ss.vertex_areas(mesh)
        doubled = ss.vertex_areas(mesh.with_vertices(2.0 * mesh.vertices))
        np.testing.assert_allclose(doubled.weights, 4.0 * base.weights, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_total_area_matches_triangle_sum(self, seed):
        mesh = bumpy_mesh(np.random.default_rng(seed))
        weights = ss.vertex_areas(mesh)
        assert weights.total_area == pytest.approx(ss.triangle_areas(mesh).sum(), rel=1e-12)
        assert weights.weights.sum() == pytest.approx(weights.total_area, rel=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        mesh = bumpy_mesh(rng)
        rotation = random_rotation(rng)
        moved = mesh.with_vertices(mesh.vertices @ rotation + np.array([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(
            ss.vertex_areas(moved).weights, ss.vertex_areas(mesh).weights, rtol=1e-10
        )

    def test_overrides_replace_weight(self):
        weights = ss.vertex_areas(single_triangle(), overrides={1: 0.25})
        assert weights.weights[1] == 0.25
        assert weights.total_area == pytest.approx(1 / 6 + 0.25 + 1 / 6)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_override_rejected(self, value):
        with pytest.raises(ValueError, match="weight override for vertex 1 is not finite"):
            ss.vertex_areas(single_triangle(), overrides={1: value})

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_override_outside_the_mesh_rejected(self, vertex):
        with pytest.raises(ValueError, match=rf"weight override references vertex {vertex} outside \[0, 3\)"):
            ss.vertex_areas(single_triangle(), overrides={vertex: 0.1})

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError, match="weight override for vertex 1 is negative"):
            ss.vertex_areas(single_triangle(), overrides={1: -0.1})

    def test_zero_area_surface_rejected(self):
        mesh = ss.SurfaceMesh(np.zeros((3, 3)) + np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), [[0, 1, 2]])
        with pytest.raises(ValueError, match="zero-area"):
            ss.vertex_areas(mesh)


class TestVertexNormals:
    def test_flat_mesh_points_up(self):
        normals = ss.vertex_normals(flat_square_mesh())
        np.testing.assert_allclose(normals, np.tile([0.0, 0, 1], (4, 1)), atol=1e-15)

    def test_reversed_winding_points_down(self):
        mesh = flat_square_mesh()
        flipped = ss.SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1])
        np.testing.assert_allclose(ss.vertex_normals(flipped), np.tile([0.0, 0, -1], (4, 1)), atol=1e-15)

    def test_sphere_normals_are_radial_within_5_degrees(self):
        mesh = sphere_mesh(resolution=3)
        normals = ss.vertex_normals(mesh)
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
        cosines = np.einsum("jk,jk->j", normals, radial)
        assert np.degrees(np.arccos(np.clip(cosines, -1, 1))).max() < 5.0

    def test_first_degenerate_normal_named(self):
        # two bow ties, each of two opposite-facing triangles of equal area about
        # its centre, vertices 2 and 7, whose normals cancel
        bow_tie = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 0], [-1, 0, 0], [0, -1, 0]])
        vertices = np.vstack([bow_tie, bow_tie + [5.0, 0, 0]])
        triangles = np.array([[2, 0, 1], [2, 4, 3], [7, 5, 6], [7, 9, 8]])
        with pytest.raises(ValueError, match="^vertex 2 has a degenerate normal$"):
            ss.vertex_normals(ss.SurfaceMesh(vertices, triangles))

    def test_isolated_vertex_named_in_error(self):
        # refused where the mesh is built, so no normal is ever taken of it
        with pytest.raises(ValueError, match="vertex 3 appears in no triangle"):
            ss.SurfaceMesh(
                np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]),
                np.array([[0, 1, 2]]),
            )


class TestAccumulationMatchesAddAt:
    """vertex_areas/vertex_normals sum corner contributions with bincount; the
    sums must equal np.add.at's bit for bit (same per-vertex order)."""

    @staticmethod
    def scrambled_mesh(resolution=3):
        rng = np.random.default_rng(11)
        mesh = bumpy_mesh(rng, resolution=resolution, amplitude=0.2)
        # shuffled triangles and widely spread magnitudes make summation order matter
        order = rng.permutation(mesh.n_triangles)
        scale = 10.0 ** rng.uniform(-3, 3, (mesh.n_vertices, 1))
        return ss.SurfaceMesh(mesh.vertices * scale, mesh.triangles[order])

    def test_triangle_areas_bitwise(self):
        # column gathers and a written-out cross product against np.cross + norm,
        # on row-major vertices and on a transposed view of coordinate-major ones;
        # resolution 6 has 32,768 triangles, several blocks of triangle_areas
        for resolution in (3, 6):
            mesh = self.scrambled_mesh(resolution)
            tri = mesh.vertices[mesh.triangles]
            expected = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
            assert ss.triangle_areas(mesh).tobytes() == expected.tobytes()
            view = mesh.with_vertices(np.ascontiguousarray(mesh.vertices.T).T)
            assert ss.triangle_areas(view).tobytes() == expected.tobytes()

    def test_vertex_areas_bitwise(self):
        mesh = self.scrambled_mesh()
        expected = np.zeros(mesh.n_vertices)
        for c in range(3):
            np.add.at(expected, mesh.triangles[:, c], ss.triangle_areas(mesh) / 3.0)
        weights = ss.vertex_areas(mesh)
        assert weights.weights.tobytes() == expected.tobytes()
        assert weights.total_area == float(expected.sum())

    def test_vertex_normals_bitwise(self):
        mesh = self.scrambled_mesh()
        tri = mesh.vertices[mesh.triangles]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        summed = np.zeros_like(mesh.vertices)
        for c in range(3):
            np.add.at(summed, mesh.triangles[:, c], cross)
        expected = summed / np.linalg.norm(summed, axis=1)[:, None]
        assert ss.vertex_normals(mesh).tobytes() == expected.tobytes()


class TestValidateCorrespondence:
    """ShapeSample refuses the first shape out of correspondence with shape 0."""

    def test_matching_sample_is_ok(self):
        mesh = sphere_mesh()
        assert ss.ShapeSample((mesh, mesh.with_vertices(mesh.vertices + 1))).n_shapes == 2

    def test_vertex_count_mismatch_reported(self):
        a = sphere_mesh(2)
        b = sphere_mesh(3)
        with pytest.raises(ValueError, match=f"^shape 1: vertex count {b.n_vertices} != {a.n_vertices} of shape 0$"):
            ss.ShapeSample((a, b))

    def test_nan_coordinate_refused_before_a_sample_is_built(self):
        # the mesh type owns the rule, so no sample can hold a non-finite shape
        mesh = sphere_mesh()
        bad_vertices = mesh.vertices.copy()
        bad_vertices[5, 1] = np.nan
        with pytest.raises(ValueError, match="^vertex 5 has a non-finite coordinate$"):
            ss.ShapeSample((mesh, mesh.with_vertices(bad_vertices)))

    def test_triangle_mismatch_reported(self):
        mesh = sphere_mesh()
        other = ss.SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1])
        with pytest.raises(ValueError, match="^shape 1: triangle list differs from shape 0$"):
            ss.ShapeSample((mesh, other))


class TestSharedTriangleArray:
    """A cohort read from one directory shares one triangle array, which the
    correspondence check does not compare with itself; the other checks stay."""

    def test_shared_array_still_reports_vertex_count_and_nan(self):
        mesh = sphere_mesh()
        # one more vertex, on a triangle of its own
        extra = ss.SurfaceMesh(
            np.vstack([mesh.vertices, [[0.0, 0.0, 2.0]]]), np.vstack([mesh.triangles, [[0, 1, mesh.n_vertices]]])
        )
        moved = mesh.with_vertices(mesh.vertices + 1)
        assert moved.triangles is mesh.triangles
        with pytest.raises(ValueError, match=f"^shape 1: vertex count {extra.n_vertices} != {mesh.n_vertices} of shape 0$"):
            ss.ShapeSample((mesh, extra, moved))
        bad_vertices = mesh.vertices.copy()
        bad_vertices[3, 2] = np.nan
        with pytest.raises(ValueError, match="^vertex 3 has a non-finite coordinate$"):
            mesh.with_vertices(bad_vertices)

    def test_equal_but_distinct_arrays_pass(self):
        mesh = sphere_mesh()
        copies = tuple(ss.SurfaceMesh(mesh.vertices + i, mesh.triangles.copy()) for i in range(3))
        assert copies[0].triangles is not copies[1].triangles
        sample = ss.ShapeSample(copies)
        assert sample.n_shapes == 3
        assert all(m.triangles is copies[0].triangles for m in sample.meshes)
        assert all(m.vertices is copy.vertices for m, copy in zip(sample.meshes, copies))

    def test_check_returns_the_mesh_on_the_reference_array(self):
        reference = sphere_mesh()
        own = ss.SurfaceMesh(reference.vertices + 1, reference.triangles.copy(), {"cap": np.arange(5)})
        adopted = check_correspondence(own, reference, "the reference", "own")
        assert adopted.triangles is reference.triangles
        assert adopted.vertices is own.vertices
        assert adopted.regions is own.regions  # its own regions, not the reference's
        assert own.triangles is not reference.triangles  # the argument is left as it was
        shared = reference.with_vertices(reference.vertices + 2)
        assert check_correspondence(shared, reference, "the reference", "shared") is shared

    def test_shared_array_is_never_compared(self):
        mesh = sphere_mesh()
        meshes = tuple(mesh.with_vertices(mesh.vertices + i) for i in range(60))
        with mock.patch.object(np, "array_equal", side_effect=AssertionError("compared")):
            assert ss.ShapeSample(meshes).n_shapes == 60


class TestShapeDifferenceField:
    def test_identical_meshes_zero_in_every_mode(self):
        mesh = bumpy_mesh(np.random.default_rng(3))
        for mode in ("x", "y", "z", "normal", "signed_euclidean"):
            np.testing.assert_array_equal(ss.shape_difference_field(mesh, mesh, mode), 0.0)

    def test_normal_mode_on_lifted_flat_mesh(self):
        mesh = flat_square_mesh()
        lifted = mesh.with_vertices(mesh.vertices + np.array([0.0, 0, 0.75]))
        np.testing.assert_allclose(ss.shape_difference_field(mesh, lifted, "normal"), 0.75, rtol=1e-14)

    def test_coordinate_modes_return_differences(self):
        rng = np.random.default_rng(11)
        mesh = bumpy_mesh(rng)
        other = mesh.with_vertices(mesh.vertices + rng.normal(scale=0.01, size=mesh.vertices.shape))
        delta = other.vertices - mesh.vertices
        for i, mode in enumerate(("x", "y", "z")):
            np.testing.assert_array_equal(ss.shape_difference_field(mesh, other, mode), delta[:, i])

    def test_signed_euclidean_magnitude_is_distance(self):
        rng = np.random.default_rng(19)
        mesh = bumpy_mesh(rng)
        other = mesh.with_vertices(mesh.vertices + rng.normal(scale=0.02, size=mesh.vertices.shape))
        field = ss.shape_difference_field(mesh, other, "signed_euclidean")
        distances = np.linalg.norm(other.vertices - mesh.vertices, axis=1)
        np.testing.assert_array_equal(np.abs(field), distances)

    @pytest.mark.parametrize("mode", ["normal", "signed_euclidean"])
    def test_memory_layout_changes_no_bit(self, mode):
        # GPA and FPCA return (J, 3) transposed views; a mesh on such a view must
        # give the field of a mesh on a row-major copy, bit for bit
        rng = np.random.default_rng(23)
        mesh = bumpy_mesh(rng, resolution=4)
        other = mesh.with_vertices(mesh.vertices + rng.normal(scale=0.02, size=mesh.vertices.shape))
        expected = ss.shape_difference_field(mesh, other, mode)
        views = [m.with_vertices(np.ascontiguousarray(m.vertices.T).T) for m in (mesh, other)]
        for base, moved in ((views[0], other), (mesh, views[1]), views):
            assert ss.shape_difference_field(base, moved, mode).tobytes() == expected.tobytes()

    def test_unknown_mode_and_mismatch_rejected(self):
        mesh = flat_square_mesh()
        with pytest.raises(ValueError, match="unknown difference mode"):
            ss.shape_difference_field(mesh, mesh, "chebyshev")
        with pytest.raises(ValueError, match="correspondence"):
            ss.shape_difference_field(mesh, sphere_mesh(), "x")


class TestMeshValidation:
    def test_triangle_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ss.SurfaceMesh(np.eye(3), [[0, 1, 3]])

    def test_repeated_vertex_in_triangle(self):
        with pytest.raises(ValueError, match="repeats"):
            ss.SurfaceMesh(np.eye(3), [[0, 1, 1]])

    def test_minimum_sizes(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            ss.SurfaceMesh(np.eye(3)[:2], [[0, 1, 0]])
        with pytest.raises(ValueError, match="at least 1 triangle"):
            ss.SurfaceMesh(np.eye(3), np.zeros((0, 3), dtype=int))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first_index", [0, 1])
    def test_non_finite_vertex_refused_by_number(self, value, first_index):
        # such a mesh used to be built, and vertex_areas then called it a zero-area surface
        vertices = np.array([[0.0, 0, 0], [1, 0, 0], [value, 1, 0]])
        with pytest.raises(ValueError, match=f"^vertex {2 + first_index} has a non-finite coordinate$"):
            ss.SurfaceMesh(vertices, [[0, 1, 2]], first_index=first_index)
        mesh = ss.SurfaceMesh(np.nan_to_num(vertices), [[0, 1, 2]])
        with pytest.raises(ValueError, match="^vertex 2 has a non-finite coordinate$"):
            mesh.with_vertices(vertices)

    def test_region_bounds_checked(self):
        with pytest.raises(ValueError, match="region 'nose'"):
            ss.SurfaceMesh(np.eye(3), [[0, 1, 2]], regions={"nose": np.array([4])})

    @pytest.mark.parametrize("values", [np.array([True, True, False]), np.array([0.0, 2.0]), np.array([0.5])])
    def test_region_of_non_integers_refused(self, values):
        # a boolean mask cast to intp would be the vertices 0 and 1
        with pytest.raises(ValueError, match="region 'upper' must hold integer vertex indices"):
            ss.SurfaceMesh(np.eye(3), [[0, 1, 2]], regions={"upper": values})

    def test_empty_region_of_any_type_kept(self):
        mesh = ss.SurfaceMesh(np.eye(3), [[0, 1, 2]], regions={"none": [], "pair": np.array([2, 0], np.uint8)})
        assert mesh.regions["none"].dtype == np.intp and mesh.regions["none"].size == 0
        np.testing.assert_array_equal(mesh.regions["pair"], [0, 2])


class TestWithVertices:
    def test_same_as_a_freshly_validated_mesh(self):
        mesh = ss.SurfaceMesh(np.eye(4)[:, :3], [[0, 1, 2], [0, 2, 3]], regions={"a": [3, 1, 1]})
        vertices = np.arange(12.0).reshape(4, 3)
        moved = mesh.with_vertices(vertices)
        fresh = ss.SurfaceMesh(vertices, mesh.triangles, mesh.regions)
        assert moved.vertices.dtype == fresh.vertices.dtype
        assert np.array_equal(moved.vertices, fresh.vertices)
        assert moved.triangles is mesh.triangles
        assert moved.regions.keys() == fresh.regions.keys()
        assert np.array_equal(moved.regions["a"], fresh.regions["a"])
        assert np.array_equal(mesh.vertices, np.eye(4)[:, :3])  # the original is untouched

    def test_triangles_shared_not_checked_again(self):
        mesh = sphere_mesh()
        with mock.patch.object(ss.SurfaceMesh, "__post_init__", side_effect=AssertionError("checked again")):
            moved = mesh.with_vertices(mesh.vertices + 1)
        assert moved.triangles is mesh.triangles

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 2), (12,)])
    def test_wrong_vertex_array_refused(self, shape):
        mesh = ss.SurfaceMesh(np.eye(4)[:, :3], [[0, 1, 2], [0, 2, 3]])
        with pytest.raises(ValueError, match="vertices"):
            mesh.with_vertices(np.zeros(shape))


class TestBilateralPairing:
    def test_involution_enforced(self):
        with pytest.raises(ValueError, match="involution"):
            ss.BilateralPairing(np.array([1, 2, 0]))

    def test_midline_is_fixed_points(self):
        pairing = ss.BilateralPairing(np.array([1, 0, 2, 3]))
        np.testing.assert_array_equal(pairing.midline, [2, 3])


class TestDealOverCpus:
    """_in_shares deals items largest first, each to the least-loaded share;
    the first share runs here. Each item reports the process that ran it."""

    @staticmethod
    def here(n, sizes, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pids = _in_shares(n, lambda indices: [os.getpid()] * len(indices), sizes)
        assert_no_child_left()
        return [pid == os.getpid() for pid in pids], len(set(pids))

    def test_largest_item_dealt_first(self, monkeypatch):
        # the last item is the largest: it opens the first share, and the other
        # share takes the small ones until it is as loaded
        assert self.here(5, [1, 1, 1, 1, 3], 2, monkeypatch) == ([False, False, False, True, True], 2)
        assert self.here(4, [5, 1, 1, 9], 2, monkeypatch) == ([False, False, False, True], 2)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_equal_sizes_dealt_round_robin(self, cpus, monkeypatch):
        for sizes in (None, [7] * 10):
            here, processes = self.here(10, sizes, cpus, monkeypatch)
            assert here == [i % cpus == 0 for i in range(10)] and processes == cpus


class TestSharesSendTheirLists:
    """A child sends back its share's list as one pickle, whatever its items
    hold; a stream that does not unpickle has the whole task run here."""

    @pytest.fixture(params=[2, 3], autouse=True)
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        yield request.param
        assert_no_child_left()

    def test_items_of_any_kind_come_back_equal(self, cpus):
        mesh = single_triangle()

        def item(i):
            return ({"index": i}, mesh.with_vertices(mesh.vertices * i), None, np.full((i, 2), 0.5))[i % 4]

        items, pids = zip(*_in_shares(9, lambda indices: [(item(i), os.getpid()) for i in indices]))
        assert len(set(pids)) == cpus  # every child's list came back
        assert [type(back) for back in items] == [dict, ss.SurfaceMesh, type(None), np.ndarray] * 2 + [dict]
        # equal types, values and array bytes give equal pickles
        assert [pickle.dumps(back) for back in items] == [pickle.dumps(item(i)) for i in range(9)]

    def test_child_that_sends_half_its_list_has_its_share_run_here(self, monkeypatch):
        def half_then_exit(obj, file, protocol):  # status 0, but the stream is cut
            data = pickle.dumps(obj, protocol)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(0)

        monkeypatch.setattr(pickle, "dump", half_then_exit)
        items = _in_shares(7, lambda indices: [(i, os.getpid(), np.arange(i * 100.0)) for i in indices])
        assert [(i, pid) for i, pid, _ in items] == [(i, os.getpid()) for i in range(7)]
        assert all(array.tobytes() == np.arange(i * 100.0).tobytes() for i, _, array in items)

    def test_later_files_off_the_fast_path_are_parsed_in_the_children(self, cpus, tmp_path, monkeypatch):
        # CRLF files take the line-by-line scan; the first file and this
        # process's own share (dealt round robin) are the only ones parsed here
        rng = np.random.default_rng(5)
        paths = [tmp_path / f"s{i}.obj" for i in range(7)]
        write_files([(path, bumpy_mesh(rng)) for path in paths])
        for path in paths[1:]:
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        parent, parse, here = os.getpid(), sio._mesh_from_obj, []

        def parse_noting_here(data, path):
            if os.getpid() == parent:
                here.append(path.name)
            return parse(data, path)

        monkeypatch.setattr(sio, "_mesh_from_obj", parse_noting_here)
        meshes = load_mesh_directory(tmp_path, mesh_names(tmp_path))
        assert here == ["s0.obj", *(path.name for i, path in enumerate(paths[1:]) if i % cpus == 0)]
        for path, mesh in zip(paths, meshes):
            expected = read_mesh(path)
            assert mesh.vertices.tobytes() == expected.vertices.tobytes()
            assert mesh.triangles.tobytes() == expected.triangles.tobytes()


class TestFailedShareRunsTheWholeTaskHere:
    """When a fork fails, this process's own share raises or a child's stream
    does not unpickle, the children are reaped and task(range(n)) runs here:
    every item is computed in this process, or the serial first exception is
    raised. At 3 CPUs the 7 items are dealt [0, 3, 6], [1, 4], [2, 5]."""

    @pytest.fixture(params=["a child raises", "the own share raises", "the second fork fails"])
    def fault(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fork, forks = os.fork, []

        def fork_but_the_second():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        if request.param == "the second fork fails":
            monkeypatch.setattr(os, "fork", fork_but_the_second)
        yield request.param
        assert_no_child_left()

    @staticmethod
    def task(fault, failing=()):
        """Each index with the process that computed it; ``fault`` strikes
        once, and every index in ``failing`` raises wherever it runs."""
        parent, runs_here = os.getpid(), []

        def run(indices):
            here = os.getpid() == parent
            runs_here.append(here)
            if fault == "a child raises" and not here and 1 in indices:
                raise RuntimeError("a child's share")
            if fault == "the own share raises" and runs_here == [True]:
                raise RuntimeError("this process's share, once")
            for i in indices:
                if i in failing:
                    raise ValueError(f"item {i}")
            return [(i, os.getpid()) for i in indices]

        return run

    def test_every_item_is_computed_here(self, fault):
        assert _in_shares(7, self.task(fault)) == [(i, os.getpid()) for i in range(7)]

    def test_the_serial_first_exception_is_raised(self, fault):
        # item 5 fails in the last share and item 3 in this process's own
        with pytest.raises(ValueError, match="^item 3$"):
            _in_shares(7, self.task(fault, failing={3, 5}))
