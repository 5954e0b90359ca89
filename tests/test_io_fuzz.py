"""Property tests for the OBJ reader.

The reader converts plain files (``v`` lines then ``f`` lines, single spaces)
in numpy and scans everything else line by line. The differential test runs
each generated file through both routes and requires the same arrays or the
same error text. A second one compares load_mesh_directory, which parses a
face block identical to the first file's only once, with read_mesh on every
file, each checked for correspondence as it is read.
"""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import surfshape as ss  # noqa: E402
import surfshape.io as sio  # noqa: E402
from surfshape.io import load_mesh_directory, mesh_names, read_mesh, write_files  # noqa: E402
from surfshape.mesh import check_correspondence  # noqa: E402
from conftest import bumpy_mesh  # noqa: E402


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.obj"


def arrays(mesh):
    return mesh.vertices.tobytes(), mesh.triangles.tobytes(), mesh.vertices.dtype, mesh.triangles.dtype


def outcome(path):
    """Vertices, triangles and dtypes of the mesh, or the error text."""
    try:
        mesh = read_mesh(path)
    except ValueError as err:
        return str(err)
    return arrays(mesh)


def outcome_by_scan(path):
    with mock.patch.object(sio, "_parse_plain_obj", lambda data: None):
        return outcome(path)


finite = st.floats(allow_nan=False, allow_infinity=False)
coordinate = st.one_of(
    finite.map(repr),
    finite.map(lambda x: f"{x:.9g}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "+1.5", "1e400", "1_0", "1e", "x", "--1", "0x1", "1,5"]),
)
good_vertex = st.tuples(finite, finite, finite).map(lambda c: "v " + " ".join(f"{x:.9g}" for x in c))
harmless = st.sampled_from(["", "   ", "# comment", "#", "vn 0 0 1", "vt 0.5 0.5", "o part", "g", "s off"])
gap = st.sampled_from([" ", "  ", "\t", "\r", "\x0b", " \x0c"])


def face_ref(n_vertices):
    index = st.integers(-1, n_vertices + 2).map(str)
    return st.one_of(
        index,
        index,
        index,
        index.map(lambda i: f"{i}/{i}/{i}"),
        index.map(lambda i: f"{i}//7"),
        st.sampled_from(["+2", "02", "1.0", "a", "1_1", "99999999999999999999"]),
    )


@st.composite
def obj_text(draw):
    """OBJ-like bytes: a valid triangle fan, then up to three edits (a harmless
    record inserted, an odd or bad v/f record inserted, a line dropped, a
    line's spacing changed), laid out with any spacing and line ends, v and f
    lines possibly interleaved."""
    n_vertices = draw(st.integers(3, 8))
    lines = [draw(good_vertex) for _ in range(n_vertices)]
    lines += [f"f 1 {j} {j + 1}" for j in range(2, n_vertices)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "vertex", "face", "drop", "respace"]))
        at = draw(st.integers(0, len(lines)))
        if edit == "insert":
            lines.insert(at, draw(harmless))
        elif edit == "vertex":
            lines.insert(at, "v " + " ".join(draw(st.lists(coordinate, min_size=2, max_size=4))))
        elif edit == "face":
            lines.insert(at, "f " + " ".join(draw(st.lists(face_ref(n_vertices), min_size=2, max_size=4))))
        elif at < len(lines):
            tokens = lines.pop(at).split(" ")
            if edit == "respace":
                gaps = draw(st.lists(gap, min_size=len(tokens), max_size=len(tokens)))
                lines.insert(at, "".join(t + g for t, g in zip(tokens, gaps)).rstrip(" ") or "v")
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    separator = draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
    lines = [separator.join(line.split(" ")) for line in lines]
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text.encode("ascii")


# faults that only the checks after parsing catch, and faults the line scan must locate
AFTER_PARSE = (None, "nan", "1e400", "range", "isolated", "repeat")
LINE_LEVEL = (
    "zero", "negative", "float", "exponent", "token", "underscore", "slash", "quad", "five", "tab", "record", "swap",
    "latin",
)
ACCEPTED = (None, "slash", "record", "swap")  # the faults that still leave a readable file


@st.composite
def plain_obj(draw, fault):
    """A file in the shape write_files writes, 9-digit coordinates and a triangle
    fan, with the given fault (None for none)."""
    n_vertices = draw(st.integers(3, 9))
    lines = [draw(good_vertex) for _ in range(n_vertices)]
    faces = [["1", str(j), str(j + 1)] for j in range(2, n_vertices)]
    at = draw(st.integers(0, n_vertices - 3))
    vertex_line = {
        "nan": "v 0 nan 1",
        "1e400": "v 0 1e400 1",
        "token": "v 0 x 1",
        "underscore": "v 1_0 0 0",
        "five": "v 0 0 0 1",
        "tab": "v 0 0 0\t1",
        "latin": "v 0 1\xe9 1",
    }
    face_token = {"range": (2, str(n_vertices + 1)), "repeat": (1, "1"), "zero": (0, "0"),
                  "negative": (1, "-2"), "float": (1, f"{at + 2}.0"),
                  "exponent": (0, "1e0"), "slash": (2, f"{at + 3}/1/1"), "quad": (2, f"{at + 3} 1")}
    if fault in vertex_line:
        lines[at] = vertex_line[fault]
    elif fault in face_token:
        column, token = face_token[fault]
        faces[at][column] = token
    elif fault == "isolated":
        lines.append("v 1 2 3")
    elif fault == "record":
        lines.insert(at, "vn 0 0 1")
    lines += ["f " + " ".join(face) for face in faces]
    if fault == "swap":  # an f line among the v lines, a v line among the f lines
        lines[n_vertices - 1], lines[n_vertices] = lines[n_vertices], "v 1 2 3"
    return ("\n".join(lines) + draw(st.sampled_from(["\n", ""]))).encode("latin-1")


@given(data=obj_text())
def test_fast_path_and_line_scan_agree(data, scratch):
    scratch.write_bytes(data)
    result = outcome(scratch)
    assert result == outcome_by_scan(scratch)
    if isinstance(result, str):
        assert result.startswith(f"{scratch}: ")


@pytest.mark.parametrize("fault", AFTER_PARSE + LINE_LEVEL)
@settings(max_examples=15)
@given(data=st.data())
def test_plain_files_take_the_fast_path(fault, data, scratch):
    case = data.draw(plain_obj(fault))
    assert (sio._parse_plain_obj(case) is not None) == (fault in AFTER_PARSE)
    scratch.write_bytes(case)
    result = outcome(scratch)
    assert result == outcome_by_scan(scratch)
    assert isinstance(result, str) == (fault not in ACCEPTED)


@given(data=st.binary(max_size=300))
def test_any_bytes_parse_or_name_the_file(data, scratch):
    scratch.write_bytes(data)
    try:
        read_mesh(scratch)
    except ValueError as err:
        assert str(err).startswith(f"{scratch}: ")


@given(prefix=st.binary(max_size=40), cut=st.integers(0, 400))
def test_damaged_writer_output_parses_or_names_the_file(prefix, cut, scratch):
    mesh = bumpy_mesh(np.random.default_rng(1), resolution=2)
    write_files([(scratch, mesh)])
    text = scratch.read_bytes()
    scratch.write_bytes(text[:cut] + prefix + text[cut:])
    try:
        read_mesh(scratch)
    except ValueError as err:
        assert str(err).startswith(f"{scratch}: ")


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cohort")


def directory_by_read_mesh(directory):
    """The arrays of every mesh, or the error text: read_mesh on each file in
    name order, each mesh checked against the first right after it is read."""
    names = sorted(p.name for p in directory.glob("*.obj"))
    meshes = []
    try:
        for name in names:
            mesh = read_mesh(directory / name)
            meshes.append(check_correspondence(mesh, meshes[0] if meshes else mesh, names[0], str(directory / name)))
    except ValueError as err:
        return str(err)
    return [arrays(mesh) for mesh in meshes]


def interleaved(obj: bytes) -> bytes:
    """Writer output with its last vertex line moved after the first face
    line: an OBJ that only the line scan reads."""
    vertex_block, face_block = obj.split(b"\nf", 1)
    *vertex_lines, last = vertex_block.split(b"\n")
    return b"\n".join(vertex_lines) + b"\nf" + face_block.replace(b"\n", b"\n" + last + b"\n", 1)


@st.composite
def fan_obj(draw):
    """A triangle fan with drawn coordinates."""
    n_vertices = draw(st.integers(3, 8))
    vertices = draw(st.lists(st.tuples(finite, finite, finite), min_size=n_vertices, max_size=n_vertices))
    fan = [[0, j, j + 1] for j in range(1, n_vertices - 1)]
    return ss.SurfaceMesh(np.array(vertices), np.array(fan))


@st.composite
def later_file(draw, first: bytes):
    """A second cohort file built from the first: new coordinates before the
    same face block, a changed face block, a vertex line more or fewer, a
    damaged vertex block, no line end before the faces, a truncated copy, or
    any OBJ-like text; returned with the kind of edit."""
    split = first.index(b"\nf") + 1
    faces = first[split:]
    lines = [draw(good_vertex) for _ in range(first[:split].count(b"\n"))]
    kind = draw(st.sampled_from(["same", "same", "faces", "count", "vertices", "joined", "truncate", "other"]))
    if kind == "faces":
        face_lines = faces.decode("ascii").splitlines()
        at = draw(st.integers(0, len(face_lines) - 1))
        refs = draw(st.lists(face_ref(len(lines)), min_size=2, max_size=4))
        face_lines[at] = draw(st.sampled_from(["f " + " ".join(refs), face_lines[at][::-1].strip(), ""]))
        faces = ("\n".join(face_lines) + "\n").encode("ascii")
    elif kind == "count":
        if draw(st.booleans()):
            lines.append(draw(good_vertex))
        else:
            lines.pop()
    elif kind == "vertices":
        at = draw(st.integers(0, len(lines) - 1))
        damaged = [
            "v " + " ".join(draw(st.lists(coordinate, min_size=2, max_size=4))),
            lines[at].replace(" ", draw(gap)),
            "v 0 1\xe9 1",
            "v 0 nan 1",
            "v 1e400 0 1",
            "f 1 2 3",
            "# comment",
            "",
        ]
        lines[at] = draw(st.sampled_from(damaged))
    data = "".join(line + "\n" for line in lines).encode("latin-1") + faces
    if kind == "joined":  # the last vertex line runs into the first face line
        data = data.replace(b"\nf", b"f", 1)
    elif kind == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif kind == "other":
        data = draw(obj_text())
    if draw(st.sampled_from([False, False, False, True])) and data.endswith(b"\n"):
        data = data[:-1]
    return kind, data


@settings(max_examples=300)
@given(data=st.data())
def test_shared_faces_give_what_read_mesh_gives(data, cohort_dir):
    for old in cohort_dir.glob("*.obj"):
        old.unlink()
    write_files([(cohort_dir / "a.obj", data.draw(fan_obj()))])
    first = (cohort_dir / "a.obj").read_bytes()
    edit = data.draw(st.sampled_from(["none", "none", "no final newline", "interleaved"]))
    if edit == "no final newline":
        first = first[:-1]
    elif edit == "interleaved":
        first = interleaved(first)
    (cohort_dir / "a.obj").write_bytes(first)
    kind, later = data.draw(later_file(first))
    (cohort_dir / "b.obj").write_bytes(later)
    try:
        meshes = load_mesh_directory(cohort_dir, mesh_names(cohort_dir))
    except ValueError as err:
        assert str(err) == directory_by_read_mesh(cohort_dir)
        assert kind != "same"
        return
    assert [arrays(mesh) for mesh in meshes] == directory_by_read_mesh(cohort_dir)
    assert meshes[1].triangles is meshes[0].triangles


@pytest.mark.parametrize(
    "fault", ["nan", "1e400", "vertex more", "vertex fewer", "joined", "first interleaved", "none"]
)
def test_later_file_behind_the_first_face_block(fault, cohort_dir):
    """A later file ending in the first file's face block: a fault is reported
    as read_mesh and the correspondence check report it, and without one the
    later mesh shares the first mesh's triangle array."""
    for old in cohort_dir.glob("*.obj"):
        old.unlink()
    write_files([(cohort_dir / "a.obj", bumpy_mesh(np.random.default_rng(3), resolution=2))])
    first = (cohort_dir / "a.obj").read_bytes()
    lines = first.split(b"\nf", 1)[0].split(b"\n")
    if fault == "first interleaved":
        first = interleaved(first)
        (cohort_dir / "a.obj").write_bytes(first)
    face_block = first.split(b"\nf", 1)[1]
    if fault in ("nan", "1e400"):
        lines[1] = b"v 0 " + fault.encode() + b" 1"
    elif fault == "vertex more":
        lines.append(b"v 1 2 3")
    elif fault == "vertex fewer":
        lines.pop()
    later = b"\n".join(lines) + (b"f" if fault == "joined" else b"\nf") + face_block
    (cohort_dir / "b.obj").write_bytes(later)
    expected = directory_by_read_mesh(cohort_dir)
    assert isinstance(expected, list) == (fault == "none")
    try:
        meshes = load_mesh_directory(cohort_dir, mesh_names(cohort_dir))
    except ValueError as err:
        assert str(err) == expected
        return
    assert [arrays(mesh) for mesh in meshes] == expected
    assert meshes[1].triangles is meshes[0].triangles


finite_vertex_lists = st.integers(3, 8).flatmap(
    lambda j: st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3 * j, max_size=3 * j)
)


@given(coords=finite_vertex_lists)
def test_written_mesh_reads_back_at_nine_digits(coords, scratch):
    """write_files then read_mesh gives each coordinate x as float("%.9g" % x),
    bit for bit, and a leading comment (which sends the file to the line scan)
    changes nothing."""
    vertices = np.array(coords).reshape(-1, 3)
    mesh = ss.SurfaceMesh(vertices, [[0, i, i + 1] for i in range(1, vertices.shape[0] - 1)])
    write_files([(scratch, mesh)])
    data = scratch.read_bytes()
    assert sio._parse_plain_obj(data) is not None
    back = read_mesh(scratch)
    assert back.vertices.tobytes() == np.array([float("%.9g" % x) for x in coords]).tobytes()
    assert np.array_equal(back.triangles, mesh.triangles)
    scratch.write_bytes(b"# comment\n" + data)
    assert sio._parse_plain_obj(scratch.read_bytes()) is None
    assert arrays(read_mesh(scratch)) == arrays(back)


# files whose one fault is a line a separator short and another one over, so
# that the separator total is that of the writer's shape, or a control byte
BALANCED_OBJ = {
    "v long then short": "v 0 0 0\nv 1 0 0 7\nv 0 1\nf 1 2 3\n",
    "v short then long": "v 0 0 0\nv 1 0\nv 0 1 0 7\nf 1 2 3\n",
    "v trailing space": "v 0 0 0 \nv 1 0\nv 0 1 0\nf 1 2 3\n",
    "v doubled space": "v 0  0 0\nv 1 0 0\nv 0 1\nf 1 2 3\n",
    "f long then short": "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\nf 2 4\n",
    "f short then long": "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2\nf 2 4 3 1\n",
    "vertical tab at a line end": "v 0 0 0\x0b\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "unit separator at a line end": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\x1f\n",
    "unit separator for a space": "v 0\x1f0 0\nv 1  0 0\nv 0 1 0\nf 1 2 3\n",
    "vertical tab for a space": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1\x0b2  3\n",
}


@pytest.mark.parametrize("text", BALANCED_OBJ.values(), ids=BALANCED_OBJ)
def test_balanced_separators_read_as_the_line_scan(text, scratch):
    data = text.encode("ascii")
    assert sio._parse_plain_obj(data) is None
    scratch.write_bytes(data)
    assert outcome(scratch) == outcome_by_scan(scratch)
