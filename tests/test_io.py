import dataclasses
import json
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import surfshape as ss
import surfshape.io as sio
from surfshape.io import (
    ColorMap,
    DIVERGING_HIGH,
    DIVERGING_LOW,
    DIVERGING_NEUTRAL,
    SEQUENTIAL_HIGH,
    SEQUENTIAL_LOW,
    load_mesh_directory,
    load_model,
    read_labels,
    read_mesh,
    read_pairing,
    read_regions,
    read_weight_overrides,
    csv_table,
    labels_table,
    pairing_table,
    regions_table,
    write_files,
)
from conftest import assert_no_child_left, bumpy_mesh, sphere_with_pairing


@pytest.fixture()
def mesh():
    return bumpy_mesh(np.random.default_rng(0))


class TestObjRoundTrip:
    def test_topology_exact_coordinates_close(self, mesh, tmp_path):
        path = tmp_path / "m.obj"
        write_files([(path, mesh)])
        back = read_mesh(path)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)
        np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-7)

    def test_orientation_preserved(self, mesh, tmp_path):
        path = tmp_path / "m.obj"
        write_files([(path, mesh)])
        back = read_mesh(path)
        base_normals = ss.vertex_normals(mesh)
        back_normals = ss.vertex_normals(back)
        assert np.einsum("jk,jk->j", base_normals, back_normals).min() > 0.99

    def test_writer_is_deterministic(self, mesh, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        write_files([(a, mesh)])
        write_files([(b, mesh)])
        assert a.read_bytes() == b.read_bytes()

    def test_face_slash_syntax_accepted(self, tmp_path):
        path = tmp_path / "slash.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
        back = read_mesh(path)
        assert back.n_triangles == 1


    def test_crlf_comments_and_other_records_accepted(self, mesh, tmp_path):
        plain, messy = tmp_path / "plain.obj", tmp_path / "messy.obj"
        write_files([(plain, mesh)])
        lines = plain.read_text().splitlines()
        messy_lines = ["# exported", "o shape", ""]
        for line in lines:
            messy_lines.append(line.replace(" ", "  ") if line.startswith("v") else line)
            if line.startswith("v"):
                messy_lines.append("vn 0 0 1")
        messy.write_bytes("\r\n".join(messy_lines).encode("ascii"))
        a, b = read_mesh(plain), read_mesh(messy)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_missing_final_newline(self, tmp_path):
        path = tmp_path / "open.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3")
        back = read_mesh(path)
        np.testing.assert_array_equal(back.triangles, [[0, 1, 2]])


class TestObjErrors:
    def test_quad_face_names_line(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValueError, match="line 5: non-triangular"):
            read_mesh(path)

    def test_malformed_vertex_names_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0\nf 1 2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            read_mesh(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("")
        with pytest.raises(ValueError, match="no vertices"):
            read_mesh(path)

    def test_no_faces(self, tmp_path):
        path = tmp_path / "points.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(ValueError, match="no faces"):
            read_mesh(path)

    def test_isolated_vertex_rejected(self, tmp_path):
        path = tmp_path / "iso.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 5 5 5\nf 1 2 3\n")
        with pytest.raises(ValueError, match="iso.obj: vertex 4 appears in no triangle"):
            read_mesh(path)

    def test_out_of_range_face(self, tmp_path):
        path = tmp_path / "oob.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(ValueError, match="face references vertex 9"):
            read_mesh(path)

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin.obj"
        path.write_bytes(b"v 0 0 0\r\nv 1 0 0\nv 0 1 \xe9\nf 1 2 3\n")
        with pytest.raises(ValueError, match="latin.obj: line 3: non-ASCII byte"):
            read_mesh(path)

    def test_index_beyond_index_type_names_line(self, tmp_path):
        path = tmp_path / "huge.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
        with pytest.raises(ValueError, match="huge.obj: line 4: face index 99999999999999999999 is out of range"):
            read_mesh(path)

    @pytest.mark.parametrize("token", ["1.0", "2.9", "1e0", "1e400"])
    def test_non_integer_face_index_names_line(self, tmp_path, token):
        path = tmp_path / "float.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf {token} 2 3\nf 2 4 3\n")
        with pytest.raises(ValueError, match="float.obj: line 5: malformed face index"):
            read_mesh(path)

    def test_non_integer_face_index_rejected_by_a_lenient_loadtxt(self, tmp_path):
        # some numpy versions parse "2.9" as the int 2, with only a DeprecationWarning
        original = np.loadtxt

        def lenient(fname, dtype=float, **kwargs):
            return original(fname, **kwargs).astype(dtype)

        path = tmp_path / "float.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2.9 4 3\n")
        with mock.patch.object(np, "loadtxt", lenient):
            with pytest.raises(ValueError, match="float.obj: line 6: malformed face index"):
                read_mesh(path)

    def test_repeated_face_vertex_names_file(self, tmp_path):
        path = tmp_path / "degenerate.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n")
        with pytest.raises(ValueError, match="degenerate.obj: triangle 2 repeats a vertex index"):
            read_mesh(path)

    # 4-vertex files: every refusal numbers vertices and triangles from 1, as the file does
    @pytest.mark.parametrize(
        "text, message",
        [
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv nan 0 0\nf 1 2 3\nf 1 3 4\n", "vertex 4 has a non-finite coordinate"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\n", "vertex 4 appears in no triangle"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 2\nf 1 3 4\n", "triangle 1 repeats a vertex index"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 4 3 4\n", "triangle 2 repeats a vertex index"),
        ],
        ids=["non-finite", "isolated", "repeat-first", "repeat-second"],
    )
    @pytest.mark.parametrize("layout", ["plain", "scanned"])
    def test_vertices_and_triangles_numbered_from_1(self, tmp_path, text, message, layout):
        path = tmp_path / "four.obj"
        path.write_text(text if layout == "plain" else "# exported\n" + text.replace("\n", "\r\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_mesh(path)
        # a later file of a cohort directory is named the same
        (tmp_path / "a.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 3 4\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_mesh_directory(tmp_path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1 2 3\n", "line 2: malformed vertex coordinate"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1_0 2 3\n", "line 5: malformed face index"),
        ],
        ids=["vertex", "face"],
    )
    def test_underscore_in_a_number_names_line(self, tmp_path, text, message):
        path = tmp_path / "underscore.obj"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"underscore.obj: {message}$"):
            read_mesh(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_file_and_vertex(self, tmp_path, value):
        path = tmp_path / "nonfinite.obj"
        path.write_text(f"v 0 0 0\nv 1 {value} 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ValueError, match="nonfinite.obj: vertex 2 has a non-finite coordinate"):
            read_mesh(path)


class TestColorMap:
    def test_reference_maps_to_neutral(self):
        cmap = ColorMap("diverging", lo=-1.0, hi=1.0, reference=0.0)
        colors = cmap.rgb(np.array([0.0]))
        assert tuple(colors[0]) == DIVERGING_NEUTRAL
        assert cmap.clamped(np.array([0.0])) == 0

    def test_endpoints_hit_extreme_colors(self):
        cmap = ColorMap("diverging", lo=-2.0, hi=3.0, reference=0.5)
        colors = cmap.rgb(np.array([-2.0, 3.0]))
        assert tuple(colors[0]) == DIVERGING_LOW
        assert tuple(colors[1]) == DIVERGING_HIGH

    def test_clamp_count(self):
        cmap = ColorMap("diverging", lo=-1.0, hi=1.0)
        field = np.array([-5.0, -1.0, 0.0, 1.0, 2.0, 99.0])
        colors = cmap.rgb(field)
        assert cmap.clamped(field) == 3
        assert tuple(colors[0]) == DIVERGING_LOW
        assert tuple(colors[-1]) == DIVERGING_HIGH

    @pytest.mark.parametrize(
        "kind, lo, hi, reference, values, clamped, colours",
        [
            # a reference at lo empties the lower half: everything at or below lo is neutral
            (
                "diverging", 0.0, 2.0, 0.0, [-1, 0, 0.5, 1, 2, 3, np.inf, -np.inf], 4,
                [DIVERGING_NEUTRAL] * 2 + [(211, 167, 175), (200, 112, 130)] + [DIVERGING_HIGH] * 3
                + [DIVERGING_NEUTRAL],
            ),
            # a reference at hi empties the upper half: everything at or above hi is neutral
            (
                "diverging", -2.0, 0.0, 0.0, [-3, -2, -1.5, -1, 0, 1, np.inf, -np.inf], 4,
                [DIVERGING_LOW] * 2 + [(100, 112, 199), (140, 148, 206)] + [DIVERGING_NEUTRAL] * 3 + [DIVERGING_LOW],
            ),
            # at the reference and one step to either side of it, then the midpoint of each half
            (
                "diverging", -1.0, 3.0, 0.5, [0.5, np.nextafter(0.5, 1), np.nextafter(0.5, 0), -0.25, 1.75], 0,
                [DIVERGING_NEUTRAL] * 3 + [(140, 148, 206), (200, 112, 130)],
            ),
            (
                "sequential", -1.0, 3.0, 0.0, [-np.inf, -1, 0, 1, 3, np.inf], 2,
                [SEQUENTIAL_LOW] * 2 + [(187, 200, 218), (128, 150, 181)] + [SEQUENTIAL_HIGH] * 2,
            ),
        ],
    )
    def test_colours_at_the_edges(self, kind, lo, hi, reference, values, clamped, colours):
        cmap, values = ColorMap(kind, lo, hi, reference), np.array(values, dtype=float)
        got = cmap.rgb(values)
        assert cmap.clamped(values) == clamped
        assert [tuple(c) for c in got.tolist()] == [tuple(c) for c in colours]

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_of_the_two_branch_formula(self, seed):
        """rgb against the formula it replaced, kept here as the oracle: random
        maps, a reference at lo, at hi, at the midpoint or anywhere between,
        and values around every knot, beyond both ends and infinite."""
        rng = np.random.default_rng(seed)
        for k in range(250):
            lo, hi = np.sort(rng.normal(0, 10.0 ** rng.uniform(-6, 6), 2))
            if lo == hi:
                continue
            kind = ("sequential", "diverging")[k % 3 > 0]
            reference = [lo, hi, (lo + hi) / 2, rng.uniform(lo, hi)][k % 4]
            knots = np.array([lo, reference, hi])
            values = np.concatenate([
                rng.uniform(lo - (hi - lo), hi + (hi - lo), 200),
                knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), (knots[1:] + knots[:-1]) / 2,
                [np.inf, -np.inf, 0.0],
            ])
            cmap = ColorMap(kind, lo, hi, reference)
            colours = cmap.rgb(values)
            expected, count = two_branch_rgb(kind, lo, hi, reference, values)
            assert cmap.clamped(values) == count
            assert colours.dtype == np.uint8 and colours.tobytes() == expected.tobytes()

    def test_nan_refused_by_both(self):
        cmap, values = ColorMap("sequential", lo=0.0, hi=1.0), np.array([0.0, 2.0, np.nan])
        for method in (cmap.rgb, cmap.clamped):
            with pytest.raises(ValueError, match="^value at vertex 2 is NaN, which has no colour$"):
                method(values)

    def test_sequential_monotone_channels(self):
        cmap = ColorMap("sequential", lo=0.0, hi=1.0)
        colors = cmap.rgb(np.linspace(0, 1, 11))
        diffs = np.diff(colors.astype(int), axis=0)
        assert np.all(diffs[:, 0] <= 0)  # red decreases toward the dark end

    def test_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            ColorMap("diverging", lo=1.0, hi=1.0)
        for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="finite lo < hi"):
                ColorMap("sequential", lo=lo, hi=hi)
        with pytest.raises(ValueError, match="reference"):
            ColorMap("diverging", lo=0.0, hi=1.0, reference=2.0)
        with pytest.raises(ValueError, match="kind"):
            ColorMap("rainbow", lo=0.0, hi=1.0)


def two_branch_rgb(kind, lo, hi, reference, values):
    """The colours and clamp count of the sequential and diverging formulas
    that ColorMap had before its knots, one branch each."""
    v = np.asarray(values, dtype=float)
    clamped = int(((v < lo) | (v > hi)).sum())
    v = np.clip(v, lo, hi)
    if kind == "sequential":
        low, high = np.array(SEQUENTIAL_LOW, dtype=float), np.array(SEQUENTIAL_HIGH, dtype=float)
        colors = low + ((v - lo) / (hi - lo))[:, None] * (high - low)
    else:
        low, mid, high = (np.array(c, dtype=float) for c in (DIVERGING_LOW, DIVERGING_NEUTRAL, DIVERGING_HIGH))
        below_span, above_span = reference - lo, hi - reference
        t_below = (v - lo) / below_span if below_span > 0 else np.ones_like(v)
        t_above = (v - reference) / above_span if above_span > 0 else np.zeros_like(v)
        colors = np.where(
            (v <= reference)[:, None],
            low + np.clip(t_below, 0, 1)[:, None] * (mid - low),
            mid + np.clip(t_above, 0, 1)[:, None] * (high - mid),
        )
    return np.rint(colors).astype(np.uint8), clamped


class TestPaintedMesh:
    def test_constant_reference_field_all_neutral(self, mesh, tmp_path):
        path = tmp_path / "flat.ply"
        cmap = ColorMap("diverging", lo=-1.0, hi=1.0, reference=0.25)
        items = [(path, mesh, np.full(mesh.n_vertices, 0.25), cmap)]
        write_files(items)
        assert header_clamp_counts(items) == [0]
        lines = path.read_text().splitlines()
        start = lines.index("end_header") + 1
        for line in lines[start : start + mesh.n_vertices]:
            assert line.endswith("221 221 221")

    def test_clamp_count_reported_and_in_header(self, mesh, tmp_path):
        path = tmp_path / "c.ply"
        field = np.zeros(mesh.n_vertices)
        field[:4] = 99.0
        cmap = ColorMap("diverging", lo=-1.0, hi=1.0)
        write_files([(path, mesh, field, cmap)])
        assert cmap.clamped(field) == 4
        assert "comment clamped 4" in path.read_text()

    def test_length_mismatch_rejected(self, mesh, tmp_path):
        with pytest.raises(ValueError, match="field length"):
            write_files([(tmp_path / "x.ply", mesh, np.zeros(3), ColorMap("sequential", lo=0, hi=1))])

    def test_nan_refused_by_vertex(self, tmp_path):
        # a NaN used to be cast to black, off both palettes, and not counted as clamped
        mesh = ss.synth_base_mesh(ss.SynthConfig(resolution=4))[0]
        field = np.zeros(mesh.n_vertices)
        field[[5, 9]] = np.nan
        for cmap in (ColorMap("diverging", lo=-1.0, hi=1.0), ColorMap("sequential", lo=0.0, hi=1.0)):
            with pytest.raises(ValueError, match="^value at vertex 5 is NaN"):
                write_files([(tmp_path / "nan.ply", mesh, field, cmap)])
        assert not (tmp_path / "nan.ply").exists()

    def test_infinities_clamped_and_counted(self, mesh, tmp_path):
        field = np.zeros(mesh.n_vertices)
        field[:3] = [np.inf, -np.inf, np.inf]
        path = tmp_path / "inf.ply"
        items = [(path, mesh, field, ColorMap("diverging", lo=-1.0, hi=1.0))]
        write_files(items)
        assert header_clamp_counts(items) == [3]
        lines = path.read_text().splitlines()
        start = lines.index("end_header") + 1
        colours = [" ".join(line.split()[3:]) for line in lines[start : start + 3]]
        assert colours == [" ".join(map(str, c)) for c in (DIVERGING_HIGH, DIVERGING_LOW, DIVERGING_HIGH)]

    def test_deterministic_bytes(self, mesh, tmp_path):
        field = np.linspace(-1, 1, mesh.n_vertices)
        cmap = ColorMap("diverging", lo=-1.0, hi=1.0)
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        write_files([(a, mesh, field, cmap)])
        write_files([(b, mesh, field, cmap)])
        assert a.read_bytes() == b.read_bytes()


# 9-digit edge cases: signed zero, the smallest subnormal, a large power of
# ten, rounding up to a new digit, and a sum that is not its shortest repr
GOLDEN_VERTICES = np.array(
    [[-0.0, 5e-324, 1e22], [99999999.95, 0.1 + 0.2, 1.0], [0.0, 1.0, -2.5], [1e-5, 123456789.0, -1e-7]]
)
GOLDEN_TRIANGLES = np.array([[0, 1, 2], [0, 2, 3]])
GOLDEN_COORDINATES = (
    "-0 4.94065646e-324 1e+22",
    "100000000 0.3 1",
    "0 1 -2.5",
    "1e-05 123456789 -1e-07",
)
PLY_HEADER = (
    "ply\nformat ascii 1.0\ncomment clamped {clamped}\nelement vertex 4\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
)


class FixedColours:
    """Stands in for a ColorMap to put the uint8 extremes 0 and 255 in the file."""

    def rgb(self, values):
        return np.array([[0, 0, 0], [255, 255, 255], [0, 128, 255], [7, 0, 255]], dtype=np.uint8)

    def clamped(self, values):
        return 2


class TestMeshWriterGoldenText:
    def test_obj_bytes(self, tmp_path):
        path = tmp_path / "golden.obj"
        write_files([(path, ss.SurfaceMesh(GOLDEN_VERTICES, GOLDEN_TRIANGLES))])
        expected = "".join(f"v {c}\n" for c in GOLDEN_COORDINATES) + "f 1 2 3\nf 1 3 4\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_ply_bytes_with_colour_extremes(self, tmp_path):
        path = tmp_path / "golden.ply"
        write_files([(path, ss.SurfaceMesh(GOLDEN_VERTICES, GOLDEN_TRIANGLES), np.zeros(4), FixedColours())])
        colours = ("0 0 0", "255 255 255", "0 128 255", "7 0 255")
        body = "".join(f"{c} {rgb}\n" for c, rgb in zip(GOLDEN_COORDINATES, colours))
        expected = PLY_HEADER.format(clamped=2) + body + "3 0 1 2\n3 0 2 3\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_ply_bytes_diverging_map(self, tmp_path):
        path = tmp_path / "diverging.ply"
        field = np.array([-2.0, -0.5, 0.0, 3.0])
        mesh = ss.SurfaceMesh(GOLDEN_VERTICES, GOLDEN_TRIANGLES)
        write_files([(path, mesh, field, ColorMap("diverging", lo=-1.0, hi=1.0))])
        colours = ("59 76 192", "140 148 206", "221 221 221", "180 4 38")
        body = "".join(f"{c} {rgb}\n" for c, rgb in zip(GOLDEN_COORDINATES, colours))
        assert path.read_text() == PLY_HEADER.format(clamped=2) + body + "3 0 1 2\n3 0 2 3\n"

    def test_obj_matches_per_value_formatting(self, tmp_path):
        vertices = np.random.default_rng(5).standard_normal((200, 3)) * 10.0 ** np.arange(-20, 20, 0.2)[:, None]
        triangles = np.column_stack([np.arange(198), np.arange(1, 199), np.arange(2, 200)])
        path = tmp_path / "random.obj"
        write_files([(path, ss.SurfaceMesh(vertices, triangles))])
        expected = "".join(f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in vertices.tolist())
        expected += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in triangles.tolist())
        assert path.read_text() == expected


def cohort_bytes_match_per_file_bytes(items, tmp_path):
    """Write ``items`` file by file, and again with one write_files call on 1,
    2 and 3 CPUs; the last call's files stay in ``tmp_path / "together"``."""
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    for mesh, name in items:
        write_files([(alone / name, mesh)])
    for cpus in (1, 2, 3):
        for _, name in items:
            (together / name).unlink(missing_ok=True)
        with mock.patch("os.sched_getaffinity", return_value=set(range(cpus))):
            write_files((together / name, mesh) for mesh, name in items)
        for _, name in items:
            assert (together / name).read_bytes() == (alone / name).read_bytes(), f"{cpus} CPUs"


class TestCohortWriter:
    """write_files formats a face block once per triangle array in a process;
    every file must still hold the bytes of its own one-item call."""

    def test_shared_triangle_array(self, mesh, tmp_path):
        rng = np.random.default_rng(7)
        shapes = [mesh.with_vertices(mesh.vertices + rng.normal(0, 0.1, mesh.vertices.shape)) for _ in range(4)]
        items = [(shape, f"s{i}.obj") for i, shape in enumerate(shapes)]
        assert all(m.triangles is mesh.triangles for m, _ in items)
        cohort_bytes_match_per_file_bytes(items, tmp_path)

    def test_two_interleaved_triangulations(self, mesh, tmp_path):
        flipped = ss.SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1].copy())
        finer = bumpy_mesh(np.random.default_rng(3), resolution=3)
        items = [(m, f"s{i}.obj") for i, m in enumerate([mesh, flipped, flipped, mesh, finer, mesh])]
        cohort_bytes_match_per_file_bytes(items, tmp_path)
        assert (tmp_path / "together" / "s1.obj").read_bytes() != (tmp_path / "together" / "s0.obj").read_bytes()

    def test_equal_but_distinct_triangle_arrays(self, mesh, tmp_path):
        items = [(ss.SurfaceMesh(mesh.vertices * (i + 1), mesh.triangles.copy()), f"s{i}.obj") for i in range(3)]
        assert items[0][0].triangles is not items[1][0].triangles
        cohort_bytes_match_per_file_bytes(items, tmp_path)


def fitted_models():
    config = ss.SynthConfig(resolution=2, n_shapes=12, noise_sd=0.01, seed=2)
    sample, truth = ss.synth_cohort(config)
    gpa = ss.weighted_gpa(sample)
    tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
    fpca = ss.fit_fpca(tangent, gpa.mean_weights, k=3, mean_shape=gpa.mean)
    control = ss.fit_control_model(sample, pairing=truth.pairing, regions=truth.base_mesh.regions)
    return fpca, control


class TestModelSerialization:
    def test_fpca_round_trip_bitwise_eigenvalues_and_scores(self, tmp_path):
        fpca, _ = fitted_models()
        path = tmp_path / "model.json"
        write_files([(path, fpca)])
        back = load_model(path)
        assert np.array_equal(back.eigenvalues, fpca.eigenvalues)
        rng = np.random.default_rng(1)
        shape = fpca.mean + 0.01 * rng.standard_normal(fpca.mean.shape)
        np.testing.assert_allclose(ss.scores(back, shape), ss.scores(fpca, shape), atol=1e-10)

    def test_control_round_trip(self, tmp_path):
        _, control = fitted_models()
        path = tmp_path / "control.json"
        write_files([(path, control)])
        back = load_model(path)
        assert isinstance(back, ss.ControlModel)
        assert back.p == control.p
        assert back.chi2_threshold == control.chi2_threshold
        assert np.array_equal(back.nu, control.nu)
        assert np.array_equal(back.control_d, control.control_d)
        assert np.array_equal(back.triangles, control.triangles)
        assert set(back.control_asymmetry) == set(control.control_asymmetry) == {"global", "upper", "lower"}

    @pytest.mark.parametrize("entry", [0.7, 18.5, -0.25, 2.0**80])
    def test_fractional_or_huge_triangle_index_refused(self, tmp_path, entry):
        # np.asarray([[0.7, 18, 20]], dtype=np.intp) is [[0, 18, 20]]: the entry
        # has to be refused, not truncated into a valid triangle
        _, control = fitted_models()
        path = tmp_path / "control.json"
        write_files([(path, control)])
        doc = json.loads(path.read_text())
        doc["triangles"][0][0] = entry
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^" + re.escape(f"{path}: field 'triangles' holds {entry!r}")):
            load_model(path)

    def test_integral_float_triangle_index_loads(self, tmp_path):
        _, control = fitted_models()
        path = tmp_path / "control.json"
        write_files([(path, control)])
        doc = json.loads(path.read_text())
        doc["triangles"] = [[float(v) for v in row] for row in doc["triangles"]]
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert back.triangles.dtype == np.intp
        assert np.array_equal(back.triangles, control.triangles)

    def test_tampered_eigenvalue_order_rejected(self, tmp_path):
        fpca, _ = fitted_models()
        path = tmp_path / "model.json"
        write_files([(path, fpca)])
        doc = json.loads(path.read_text())
        doc["eigenvalues"] = doc["eigenvalues"][::-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="non-increasing"):
            load_model(path)

    @pytest.mark.parametrize(
        "total, message",
        [
            (1e-9, "total_variance 1e-09 is below the eigenvalue sum"),
            (-1.0, "total_variance must be positive and finite, got -1.0"),
        ],
    )
    def test_total_variance_below_the_eigenvalues_refused(self, tmp_path, total, message):
        # no fit gives either; explained[-1] would be in the hundreds of thousands, or the fractions negative
        fpca, control = fitted_models()
        for model in (fpca, control):
            path = tmp_path / "model.json"
            write_files([(path, model)])
            doc = json.loads(path.read_text())
            (doc.get("fpca") or doc)["total_variance"] = total
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
                load_model(path)

    def test_missing_field_named(self, tmp_path):
        fpca, _ = fitted_models()
        path = tmp_path / "model.json"
        write_files([(path, fpca)])
        doc = json.loads(path.read_text())
        del doc["eigenfunctions"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing field 'eigenfunctions'"):
            load_model(path)

    def test_schema_version_checked(self, tmp_path):
        fpca, _ = fitted_models()
        path = tmp_path / "model.json"
        write_files([(path, fpca)])
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        fpca, _ = fitted_models()
        path = tmp_path / "model.json"
        write_files([(path, fpca)])
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ValueError, match="truncated or malformed"):
            load_model(path)

    def test_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=f"^{path}: not a model: the file holds a JSON list"):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "mystery"}))
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)


class TestSidecarFiles:
    def test_regions_round_trip_and_bounds(self, tmp_path):
        regions = {"nose": np.array([0, 2, 5]), "chin": np.array([1, 3])}
        path = tmp_path / "regions.csv"
        write_files([(path, regions_table(regions))])
        back = read_regions(path, n_vertices=6)
        assert set(back) == {"nose", "chin"}
        np.testing.assert_array_equal(back["nose"], [0, 2, 5])
        with pytest.raises(ValueError, match="outside"):
            read_regions(path, n_vertices=5)

    @pytest.mark.parametrize(
        "body, line, name",
        [
            ('0,"a\n1,b"\n', 2, "a\n1,b"),  # read as one name, it would be written as two rows
            ('0,"a,b"\n', 2, "a,b"),
            ('0,"a\rb"\n', 2, "a\rb"),
            ('0,nose\n1,"""a"\n', 3, '"a'),  # written bare, the quote would open a quoted cell
            ('0,nose\n1, "a\n', 3, '"a'),
        ],
        ids=["quoted-over-two-lines", "comma", "cr", "quote", "quote-after-space"],
    )
    def test_region_name_that_cannot_be_written_back_is_refused(self, tmp_path, body, line, name):
        path = tmp_path / "regions.csv"
        path.write_bytes(f"vertex_index,region_name\n{body}".encode("ascii"))
        with pytest.raises(ValueError) as caught:
            read_regions(path, 3)
        rule = "has a comma, CR or LF, or a leading quote"
        assert str(caught.value) == f"{path}: line {line}: region name {name!r} {rule}"

    @pytest.mark.parametrize(
        "body, line, cell",
        [
            ('a.obj,"A\nB"\n', 2, "label 'A\\nB'"),
            ('a.obj,A\n"b,c.obj",B\n', 3, "filename 'b,c.obj'"),
            ('a.obj,A\nb.obj, """B"\n', 3, "label '\"\"\"B\"'"),
            ('"a\rb.obj",A\n', 2, "filename 'a\\rb.obj'"),
        ],
        ids=["label-over-two-lines", "filename-comma", "label-quote-after-space", "filename-cr"],
    )
    def test_labels_cell_that_cannot_be_written_back_is_refused(self, tmp_path, body, line, cell):
        path = tmp_path / "labels.csv"
        path.write_bytes(f"filename,label\n{body}".encode("ascii"))
        with pytest.raises(ValueError) as caught:
            read_labels(path)
        assert str(caught.value) == f"{path}: line {line}: {cell} has a comma, CR or LF, or a leading quote"

    def test_pairing_round_trip_and_involution_check(self, tmp_path):
        _, pairing = sphere_with_pairing()
        path = tmp_path / "pairing.csv"
        write_files([(path, pairing_table(pairing))])
        back = read_pairing(path, pairing.pair.size)
        np.testing.assert_array_equal(back.pair, pairing.pair)
        bad = tmp_path / "bad.csv"
        bad.write_text("index,mirror_index\n0,1\n1,2\n2,0\n")
        with pytest.raises(ValueError, match="involution"):
            read_pairing(bad, 3)

    def test_pairing_out_of_range(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("0,5\n")
        with pytest.raises(ValueError, match="outside"):
            read_pairing(path, 3)

    def test_labels_round_trip_and_duplicates(self, tmp_path):
        labels = {"b.obj": "B", "a.obj": "A"}
        path = tmp_path / "labels.csv"
        write_files([(path, labels_table(labels))])
        assert read_labels(path) == labels
        dup = tmp_path / "dup.csv"
        dup.write_text("a.obj,A\na.obj,B\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_labels(dup)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_weight_overrides_must_be_finite(self, tmp_path, token):
        path = tmp_path / "weights.csv"
        path.write_text(f"vertex_index,weight\n1,0.5\n0,{token}\n")
        with pytest.raises(ValueError, match=f"^{path}: line 3: weight must be finite$"):
            read_weight_overrides(path, 3)
        path.write_text("vertex_index,weight\n1,0.5\n0,0\n")
        assert read_weight_overrides(path, 3) == {1: 0.5, 0: 0.0}

    @pytest.mark.parametrize(
        "reader, text",
        [
            (read_labels, "filename,label\na.obj,A\ncaf\xe9.obj,B\n"),
            (lambda path: read_regions(path, 3), "0,nose\n1,nose\n2,ch\xeen\n"),
            (lambda path: read_pairing(path, 3), "index,mirror_index\n0,2\n1,\xa01\n"),
            (lambda path: read_weight_overrides(path, 3), "vertex_index,weight\n0,1\n1,\u22121\n"),
        ],
        ids=["labels", "regions", "pairing", "weights"],
    )
    def test_non_ascii_byte_is_named_with_its_line(self, tmp_path, reader, text):
        path = tmp_path / "sidecar.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match=f"^{path}: line 3: non-ASCII byte$"):
            reader(path)

    @pytest.mark.parametrize(
        "reader, text, line, message",
        [
            (read_labels, 'filename,label\na.obj,"A\n"\nb.obj,x\nb.obj,y\n', 5, "duplicate filename 'b.obj'"),
            (lambda path: read_regions(path, 3), 'vertex_index,region_name\n"0\n",a\n1,c\nx,d\n', 5,
             "vertex index 'x' is not an integer"),
            (lambda path: read_pairing(path, 3), 'index,mirror_index\n"0\n",0\n1,1\n2,9\n', 5,
             "vertex 9 outside [0, 3)"),
            (lambda path: read_weight_overrides(path, 3), 'vertex_index,weight\n"0\n",1\n1,1\n2,-1\n', 5,
             "weight must be non-negative"),
            (read_labels, 'filename,label\na.obj,"A\n"\n' + "b" * 200_000 + ".obj,B\n", 4,
             "field larger than field limit (131072)"),
            # a repeated vertex would put 0 and 5 both on the midline, or keep the last weight in silence
            (lambda path: read_pairing(path, 6), 'index,mirror_index\n0,5\n"1\n",1\n0,0\n', 5, "duplicate vertex 0"),
            (lambda path: read_weight_overrides(path, 6), 'vertex_index,weight\n3,0.1\n"1\n",1\n3,0.2\n', 5,
             "duplicate vertex 3"),
        ],
        ids=["labels", "regions", "pairing", "weights", "oversized-field", "pairing-duplicate", "weights-duplicate"],
    )
    def test_rows_are_numbered_by_the_line_they_start_on(self, tmp_path, reader, text, line, message):
        path = tmp_path / "sidecar.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: line {line}: {message}"

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (lambda path: read_regions(path, 20), "1_0,b\n", "vertex index '1_0' is not an integer"),
            (lambda path: read_pairing(path, 20), "0,1_0\n", "vertex index '1_0' is not an integer"),
            (lambda path: read_weight_overrides(path, 20), "1,0_5\n", "weight '0_5' is not a number"),
            (lambda path: read_weight_overrides(path, 20), "1_0,1\n", "vertex index '1_0' is not an integer"),
        ],
        ids=["regions", "pairing", "weight", "weight-index"],
    )
    def test_underscore_in_a_number_is_refused(self, tmp_path, reader, text, message):
        path = tmp_path / "sidecar.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: line 1: {message}"

    def test_oversized_field_is_named_with_its_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a.obj,A\n" + "b" * 200_000 + ".obj,B\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: field larger than field limit"):
            read_labels(path)


class TestCsvGoldenText:
    def test_floats_ints_and_empty_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [
            ("global", np.float64(-0.1), 1.0 / 3.0, ""),
            (2, -2.5, np.float64(1e-300), "true"),
        ]
        write_files([(path, csv_table(("component", "statistic", "p_value", "significant"), rows))])
        assert path.read_text() == (
            "component,statistic,p_value,significant\n"
            "global,-0.10000000000000001,0.33333333333333331,\n"
            "2,-2.5,1e-300,true\n"
        )

    def test_floats_round_trip_exactly(self, tmp_path):
        values = np.random.default_rng(3).standard_normal(50) * 10.0 ** np.arange(-25, 25)
        path = tmp_path / "values.csv"
        write_files([(path, csv_table(("i", "value"), enumerate(values)))])
        lines = path.read_text().splitlines()[1:]
        assert [float(line.split(",")[1]) for line in lines] == values.tolist()
        assert [int(line.split(",")[0]) for line in lines] == list(range(50))

    def test_sidecar_writers(self, tmp_path):
        write_files([(tmp_path / "regions.csv", regions_table({"nose": np.array([5, 2]), "chin": [np.intp(1)]}))])
        assert (tmp_path / "regions.csv").read_text() == "vertex_index,region_name\n1,chin\n5,nose\n2,nose\n"
        write_files([(tmp_path / "pairing.csv", pairing_table(ss.BilateralPairing(np.array([2, 1, 0]))))])
        assert (tmp_path / "pairing.csv").read_text() == "index,mirror_index\n0,2\n1,1\n2,0\n"
        write_files([(tmp_path / "labels.csv", labels_table({"b.obj": "B", "a.obj": "A"}))])
        assert (tmp_path / "labels.csv").read_text() == "filename,label\na.obj,A\nb.obj,B\n"


class TestMeshDirectory:
    def test_lexicographic_order(self, mesh, tmp_path):
        for name in ("b.obj", "a.obj", "c.obj"):
            write_files([(tmp_path / name, mesh)])
        names, meshes = load_mesh_directory(tmp_path)
        assert names == ["a.obj", "b.obj", "c.obj"]
        assert len(meshes) == 3

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no .obj meshes"):
            load_mesh_directory(tmp_path)

    def test_mesh_that_does_not_match_the_first_is_named(self, mesh, tmp_path):
        write_files([(tmp_path / "a.obj", mesh)])
        write_files([(tmp_path / "b.obj", ss.SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1]))])
        with pytest.raises(ValueError, match="b.obj: triangle list differs from a.obj"):
            load_mesh_directory(tmp_path)
        write_files([(tmp_path / "b.obj", bumpy_mesh(np.random.default_rng(1), resolution=3))])
        with pytest.raises(ValueError, match=f"b.obj: vertex count 258 != {mesh.n_vertices} of a.obj"):
            load_mesh_directory(tmp_path)


class TestSplitOverCpus:
    """load_mesh_directory and write_files deal their files over the CPUs the
    process may run on; the arrays, bytes and errors are the serial code's."""

    @pytest.fixture(params=[1, 2, 3], autouse=True)
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    @pytest.fixture()
    def cohort(self, mesh, tmp_path):
        """Seven plain files: the first, then three shares of two at 3 CPUs."""
        rng = np.random.default_rng(11)
        for i in range(7):
            shape = mesh.with_vertices(mesh.vertices + rng.normal(0, 0.01, mesh.vertices.shape))
            write_files([(tmp_path / f"s{i}.obj", shape)])
        return tmp_path

    def serial_error(self, path):
        with pytest.raises(ValueError) as err:
            read_mesh(path)
        return str(err.value)

    def test_forks_one_child_per_cpu_beyond_the_first(self, cohort, cpus, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        names, meshes = load_mesh_directory(cohort)
        assert len(forks) == cpus - 1
        for name, back in zip(names, meshes):
            assert back.vertices.tobytes() == read_mesh(cohort / name).vertices.tobytes()
            assert back.triangles is meshes[0].triangles
        assert_no_child_left()

    def test_malformed_file_in_the_last_share(self, cohort):
        bad = cohort / "s6.obj"
        bad.write_text(bad.read_text().replace("v ", "v x", 1))
        with pytest.raises(ValueError, match="^" + re.escape(self.serial_error(bad)) + "$"):
            load_mesh_directory(cohort)
        assert_no_child_left()

    # dealt round robin: at 3 CPUs the files 1 and 4 are read here, 2 and 5 in
    # the first child and 3 and 6 in the second
    @pytest.mark.parametrize("early, late", [(1, 4), (3, 5), (2, 6), (3, 4)])
    def test_first_of_two_bad_files_named(self, cohort, early, late):
        # a non-finite coordinate, then a line the scan refuses
        text = (cohort / f"s{early}.obj").read_text()
        (cohort / f"s{early}.obj").write_text("v nan 0 0\n" + text.split("\n", 1)[1])
        (cohort / f"s{late}.obj").write_text("v 0 0 0\nf 1 2\n")
        with pytest.raises(ValueError, match="^" + re.escape(self.serial_error(cohort / f"s{early}.obj")) + "$"):
            load_mesh_directory(cohort)

    def test_unreadable_entry_after_a_malformed_file(self, cohort):
        (cohort / "s2.obj").write_text("v 0 0 0\nf 1 2\n")
        (cohort / "s5.obj").unlink()
        (cohort / "s5.obj").mkdir()  # read_bytes raises IsADirectoryError
        with pytest.raises(ValueError, match="s2.obj: line 2: non-triangular face"):
            load_mesh_directory(cohort)
        (cohort / "s2.obj").unlink()
        with pytest.raises(IsADirectoryError):
            load_mesh_directory(cohort)
        assert_no_child_left()

    def test_file_off_the_fast_path_gives_read_mesh_arrays(self, cohort):
        messy = cohort / "s5.obj"
        messy.write_bytes(b"# exported\r\n" + messy.read_bytes().replace(b"\n", b"\r\n"))
        back = load_mesh_directory(cohort)[1][5]
        expected = read_mesh(messy)
        assert back.vertices.tobytes() == expected.vertices.tobytes()
        assert back.triangles.tobytes() == expected.triangles.tobytes()

    @pytest.mark.parametrize("fault", ["raises", "exits early", "no fork"])
    def test_share_that_fails_in_a_child_is_run_here(self, cohort, cpus, monkeypatch, fault):
        # s2.obj is in the only child's share at 2 CPUs and in the first of two at 3;
        # the last fork fails, the only one at 2 CPUs and the second at 3
        serial = [m.vertices.tobytes() for m in load_mesh_directory(cohort)[1]]
        parent, read_bytes, fork, forks = os.getpid(), Path.read_bytes, os.fork, []

        def read_here_only(path):
            if os.getpid() != parent and path.name == "s2.obj" and fault != "no fork":
                if fault == "exits early":  # status 0, but the pipe comes up short
                    os._exit(0)
                raise MemoryError("in the child")
            return read_bytes(path)

        def fork_but_the_last():
            forks.append(1)
            if fault == "no fork" and len(forks) == cpus - 1:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(Path, "read_bytes", read_here_only)
        monkeypatch.setattr(os, "fork", fork_but_the_last)
        assert [m.vertices.tobytes() for m in load_mesh_directory(cohort)[1]] == serial
        assert_no_child_left()

    def test_writer_share_that_fails_in_a_child_is_written_here(self, mesh, tmp_path, monkeypatch):
        # s1.obj is in the first child's share at 2 and 3 CPUs, and here at 1
        parent = os.getpid()
        items = [(tmp_path / f"s{i}.obj", mesh.with_vertices(mesh.vertices * (i + 1))) for i in range(5)]
        expected = [written_bytes(shape, tmp_path / "alone.obj") for _, shape in items]

        def open_here_only(path, *args, **kwargs):
            if os.getpid() != parent and str(path).endswith("s1.obj"):
                raise PermissionError("in the child")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(sio, "open", open_here_only, raising=False)
        write_files(items)
        assert [path.read_bytes() for path, _ in items] == expected
        assert_no_child_left()

    def test_failing_writer_leaves_no_child(self, mesh, tmp_path):
        items = [(tmp_path / f"s{i}.obj", mesh) for i in range(6)]
        items[0] = (tmp_path / "missing" / "s0.obj", mesh)  # in the first share, which runs here
        with pytest.raises(FileNotFoundError):
            write_files(items)
        assert_no_child_left()


class TestWriteFiles:
    """write_files deals OBJs, painted PLYs and JSON documents over the CPUs
    the process may run on, largest first; each file holds the bytes of its
    own single-file call, and a fault is that of a loop over the items."""

    @pytest.fixture(params=[1, 2, 3], autouse=True)
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        yield request.param
        assert_no_child_left()

    @pytest.fixture(scope="class")
    def models(self):
        return fitted_models()

    @pytest.fixture()
    def items(self, mesh, models, tmp_path):
        """OBJs and PLYs on one triangle array, a PLY with its own, both model kinds and a document."""
        rng = np.random.default_rng(4)
        shapes = [mesh.with_vertices(mesh.vertices + rng.normal(0, 0.05, mesh.vertices.shape)) for _ in range(3)]
        own = ss.SurfaceMesh(mesh.vertices, mesh.triangles.copy())
        field = rng.normal(0, 1, mesh.n_vertices)
        fpca, control = models
        return [
            (tmp_path / "a.obj", shapes[0]),
            (tmp_path / "a.ply", shapes[0], field, ColorMap("diverging", lo=-1.0, hi=1.0)),
            (tmp_path / "fpca.json", fpca),
            (tmp_path / "b.obj", shapes[1]),
            (tmp_path / "own.ply", own, field, ColorMap("sequential", lo=0.0, hi=2.0)),
            (tmp_path / "control.json", control),
            (tmp_path / "b.ply", shapes[2], -field, ColorMap("sequential", lo=0.0, hi=1.0)),
            (tmp_path / "doc.json", {"z": rng.normal(size=(2, 3)), "n": 3}),
            (tmp_path / "c.obj", shapes[2]),
        ]

    @staticmethod
    def alone(items, directory):
        """The bytes of each item written by a one-item call at one CPU, and each PLY's clamp count."""
        directory.mkdir()
        with mock.patch("os.sched_getaffinity", return_value={0}):
            for path, *value in items:
                write_files([(directory / path.name, *value)])
        counts = [rest[1].clamped(rest[0]) if rest else None for _, _, *rest in items]
        return [(directory / path.name).read_bytes() for path, *_ in items], counts

    def test_bytes_of_the_single_file_writers(self, items, cpus, tmp_path, monkeypatch):
        expected, counts = self.alone(items, tmp_path / "alone")
        assert any(counts[k] for k in (1, 4, 6))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert write_files(items) is None
        assert header_clamp_counts(items) == counts
        assert [path.read_bytes() for path, *_ in items] == expected
        assert len(forks) == cpus - 1

    def test_face_block_formatted_once_per_format_and_array(self, items, cpus, monkeypatch):
        formatted, face_text = [], sio._face_text

        def counted(triangles, template, first, faces):
            if (template, id(triangles)) not in faces:
                formatted.append((template, id(triangles)))
            return face_text(triangles, template, first, faces)

        monkeypatch.setattr(sio, "_face_text", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a child's calls are not seen here
        write_files(items)
        # the OBJs share one array, the PLYs that array and their own
        assert len(formatted) == len(set(formatted)) == 3

    @pytest.mark.parametrize("fault", ["raises", "exits early", "no fork"])
    def test_file_that_fails_in_a_child_is_written_here(self, items, cpus, tmp_path, monkeypatch, fault):
        expected, counts = self.alone(items, tmp_path / "alone")
        parent, file_text, fork, forks = os.getpid(), sio._file_text, os.fork, []

        def text_here_only(item, faces):
            if os.getpid() != parent and fault != "no fork":
                if fault == "exits early":  # status 0, but the pipe comes up short
                    os._exit(0)
                raise MemoryError("in the child")
            return file_text(item, faces)

        def fork_but_the_last():
            forks.append(1)
            if fault == "no fork" and len(forks) == cpus - 1:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(sio, "_file_text", text_here_only)
        monkeypatch.setattr(os, "fork", fork_but_the_last)
        write_files(items)
        assert header_clamp_counts(items) == counts
        assert [path.read_bytes() for path, *_ in items] == expected

    # equal sizes are dealt round robin: item 0 is written here at any CPU count,
    # 1 in a child at 2 and 3 CPUs, 2 here at 2 CPUs and 3 here at 3
    @pytest.mark.parametrize("first, second", [(1, 2), (1, 3), (0, 4), (2, 5), (4, 5)])
    def test_first_unwritable_path_named(self, mesh, tmp_path, first, second):
        items = [(tmp_path / f"s{i}.obj", mesh) for i in range(6)]
        for k in (first, second):
            items[k] = (tmp_path / f"missing{k}" / f"s{k}.obj", mesh)
        with pytest.raises(FileNotFoundError, match=re.escape(str(items[first][0]))):
            write_files(items)
        # as in a loop over the items, every file before the first fault is written
        assert all(path.exists() for path, _ in items[:first])

    def test_bytes_are_written_as_they_are(self, mesh, tmp_path):
        table = sio.csv_table(("i", "value"), enumerate([0.1, -2.5]))
        items = [(tmp_path / "a.csv", table), (tmp_path / "a.obj", mesh), (tmp_path / "empty", b"")]
        write_files(items)
        assert header_clamp_counts(items) == [None, None, None]
        assert (tmp_path / "a.csv").read_bytes() == table == b"i,value\n0,0.10000000000000001\n1,-2.5\n"
        assert (tmp_path / "a.obj").read_bytes() == written_bytes(mesh, tmp_path / "alone.obj")
        assert (tmp_path / "empty").read_bytes() == b""

    def test_nan_field_refused_among_many(self, mesh, tmp_path):
        field = np.zeros(mesh.n_vertices)
        field[7] = np.nan
        cmap = ColorMap("sequential", lo=0.0, hi=1.0)
        items = [(tmp_path / f"s{i}.ply", mesh, np.zeros(mesh.n_vertices), cmap) for i in range(5)]
        items[3] = (tmp_path / "s3.ply", mesh, field, cmap)
        with pytest.raises(ValueError, match="^value at vertex 7 is NaN"):
            write_files(items)


def header_clamp_counts(items):
    """The ``comment clamped N`` count in the header of each PLY item's file, None for the other items."""
    count = re.compile(rb"\ncomment clamped (\d+)\n")
    return [int(count.search(path.read_bytes())[1]) if rest else None for path, _, *rest in items]


def written_bytes(mesh, path):
    """The bytes a one-item write_files call writes for ``mesh``."""
    write_files([(path, mesh)])
    return path.read_bytes()


def assert_same_bits(back, model, path="model"):
    """``back`` equals ``model`` field by field, every array and number bit for bit."""
    if dataclasses.is_dataclass(model):
        assert type(back) is type(model), path
        for field in dataclasses.fields(model):
            assert_same_bits(getattr(back, field.name), getattr(model, field.name), f"{path}.{field.name}")
    elif isinstance(model, dict):
        assert back.keys() == model.keys(), path
        for key in model:
            assert_same_bits(back[key], model[key], f"{path}[{key!r}]")
    elif model is None or isinstance(model, tuple):
        assert back == model, path
    else:
        back, model = np.asarray(back), np.asarray(model)
        assert (back.shape, back.dtype, back.tobytes()) == (model.shape, model.dtype, model.tobytes()), path


class TestModelFileRoundTrip:
    """Both model kinds, every dataclass field: save then load gives the same
    bits, and saving what was loaded gives the same bytes."""

    @pytest.fixture(scope="class")
    def models(self):
        config = ss.SynthConfig(resolution=2, n_shapes=12, noise_sd=0.01, asymmetry_magnitude=0.02, seed=2)
        sample, truth = ss.synth_cohort(config)
        fpca, _ = fitted_models()
        regional = ss.fit_control_model(sample, pairing=truth.pairing, regions=truth.base_mesh.regions)
        plain = ss.fit_control_model(ss.ShapeSample(sample.meshes))
        assert regional.control_asymmetry and plain.control_asymmetry is None
        assert fpca.warnings == () and regional.fpca.n_components > 1
        truncated = ss.fit_fpca(np.eye(4, 3 * 66), ss.AreaWeights(np.ones(66)), k=5)
        assert truncated.warnings
        return {"fpca": fpca, "truncated": truncated, "regional": regional, "plain": plain}

    @pytest.mark.parametrize("name", ["fpca", "truncated", "regional", "plain"])
    def test_every_field_bitwise_and_bytes_stable(self, models, name, tmp_path):
        model = models[name]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_files([(first, model)])
        back = load_model(first)
        assert_same_bits(back, model)
        write_files([(second, back)])
        assert second.read_bytes() == first.read_bytes()

    def test_field_tables_name_every_dataclass_field(self):
        # the derived fields are computed on construction, not stored
        assert list(sio._FPCA) == [field.name for field in dataclasses.fields(ss.FpcaModel) if field.init]
        assert list(sio._CONTROL) == [field.name for field in dataclasses.fields(ss.ControlModel) if field.init]

    @pytest.mark.parametrize("name", ["fpca", "truncated", "regional", "plain"])
    def test_stored_derived_values_are_ignored(self, models, name, tmp_path):
        # an older writer stored p, chi2_threshold, q95, explained, the total area and n_samples
        model = models[name]
        path = tmp_path / "model.json"
        write_files([(path, model)])
        doc = json.loads(path.read_text())
        fpca = doc if name in ("fpca", "truncated") else doc["fpca"]
        fpca.update(explained=[0.5] * len(fpca["eigenvalues"]), weights_total_area=1e3, n_samples=-5)
        if fpca is not doc:
            doc.update(p=9, chi2_threshold=0.5, q95=0.5)
        path.write_text(json.dumps(doc))
        assert_same_bits(load_model(path), model)
