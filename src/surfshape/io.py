"""File formats: OBJ meshes, painted ascii PLY, JSON models, CSV sidecars.

Everything is ASCII and deterministic (identical inputs give byte-identical
output) so artifacts can be golden-tested. Exact conventions live in
FORMATS.md at the repository root.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .fpca import FpcaModel
from .individual import ControlModel
from .mesh import AreaWeights, BilateralPairing, SurfaceMesh, _in_shares, check_correspondence

SCHEMA_VERSION = 1
_MAX_INDEX = int(np.iinfo(np.intp).max)  # largest OBJ face index an index array can hold
# bytes an f block and a sidecar's index cells in the writer's shape hold;
# anything else (a '.', an 'e') is left to the line scan, since some numpy
# versions parse "2.9" as int 2
_FACE_BYTES = np.zeros(256, dtype=bool)
_FACE_BYTES[list(b"f0123456789+- \n")] = True
_INDEX_BYTES = np.zeros(256, dtype=bool)
_INDEX_BYTES[list(b"0123456789,\n")] = True
_MAX_NAME = 64  # longest region name the fast path takes, in bytes

# diverging palette endpoints (low / neutral / high), and the sequential pair
DIVERGING_LOW = (59, 76, 192)
DIVERGING_NEUTRAL = (221, 221, 221)
DIVERGING_HIGH = (180, 4, 38)
SEQUENTIAL_LOW = (247, 251, 255)
SEQUENTIAL_HIGH = (8, 48, 107)


@dataclass(frozen=True)
class ColorMap:
    """Scalar-to-RGB mapping with a pinned palette, linear between knots.

    A ``sequential`` map's knots put the sequential pair at lo and hi, a
    ``diverging`` map's low colour, neutral grey and high colour at lo,
    ``reference`` and hi. Between knots (a, c_a) and (b, c_b) a value v gets
    c_a + t (c_b - c_a), t = (v - a) / (b - a); at an inner knot, the lower
    segment's. Values outside [lo, hi] are clamped, infinities too; a NaN has
    no colour and is refused.
    """

    kind: str
    lo: float
    hi: float
    reference: float = 0.0

    def __post_init__(self):
        if self.kind not in ("diverging", "sequential"):
            raise ValueError("kind must be 'diverging' or 'sequential'")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("require finite lo < hi")
        if self.kind == "diverging" and not self.lo <= self.reference <= self.hi:
            raise ValueError("reference must lie inside [lo, hi] for diverging maps")

    def rgb(self, values: np.ndarray) -> np.ndarray:
        """Map values to (n, 3) uint8 colours."""
        v = np.clip(_colourable(values), self.lo, self.hi)
        if self.kind == "sequential":
            knots = [(self.lo, SEQUENTIAL_LOW), (self.hi, SEQUENTIAL_HIGH)]
        else:  # a reference at lo or at hi drops the outer knot of the half it empties
            knots = [(self.lo, DIVERGING_LOW), (self.reference, DIVERGING_NEUTRAL), (self.hi, DIVERGING_HIGH)]
            knots = knots[int(self.reference == self.lo) : 3 - int(self.reference == self.hi)]
        points, palette = (np.array(column, dtype=float) for column in zip(*knots))
        segment = np.searchsorted(points[1:-1], v) if len(knots) > 2 else 0  # one segment: no search, no gather
        t = (v - points[:-1][segment]) / np.diff(points)[segment]
        colors = palette[segment] + t[:, None] * np.diff(palette, axis=0)[segment]
        return np.rint(colors).astype(np.uint8)

    def clamped(self, values: np.ndarray) -> int:
        """How many values lie outside [lo, hi], infinities included."""
        v = _colourable(values)
        return int(((v < self.lo) | (v > self.hi)).sum())


def _colourable(values) -> np.ndarray:
    """``values`` as floats; a NaN, which has no colour, is refused."""
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValueError(f"value at vertex {int(np.argmax(np.isnan(v)))} is NaN, which has no colour")
    return v


def read_mesh(path) -> SurfaceMesh:
    """Read a triangulated OBJ (v/f records only; other record types are skipped).

    A file made only of ``v x y z`` lines followed by ``f a b c`` lines, single
    spaces apart (what :func:`write_files` writes), is converted with one numpy
    pass per block. Any other text goes through the line-by-line scan, which
    accepts every file the reader supports and names the line of the first
    error; both paths give the same arrays.

    Isolated vertices are rejected: they would silently get zero area weight.
    """
    with open(path, "rb") as fh:
        return _mesh_from_obj(fh.read(), path)[0]


def _mesh_from_obj(data: bytes, path) -> tuple[SurfaceMesh, bool]:
    """The mesh :func:`read_mesh` gives for the bytes ``data`` of ``path``, and
    whether :func:`_parse_plain_obj` parsed them."""
    arrays = _parse_plain_obj(data)
    v, t = arrays if arrays is not None else _scan_obj(data, path)
    if not v.shape[0]:
        raise ValueError(f"{path}: no vertices")
    if not t.shape[0]:
        raise ValueError(f"{path}: no faces")
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: vertex {int(np.flatnonzero(~finite)[0]) + 1} has a non-finite coordinate")
    if t.max() >= v.shape[0]:
        raise ValueError(f"{path}: face references vertex {int(t.max()) + 1} but only {v.shape[0]} exist")
    try:
        return SurfaceMesh(v, t, first_index=1), arrays is not None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _parse_plain_obj(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(vertices, 0-based triangles) of an OBJ made only of ``v x y z`` lines
    followed by ``f a b c`` lines, single spaces apart, with positive integer
    face indices; None for any other text, which is left to :func:`_scan_obj`."""
    vertex_block, face_block = _plain_blocks(data)
    v = _parse_plain_block(vertex_block, "v", float)
    t = None if v is None else _parse_plain_block(face_block, "f", np.intp)
    return None if t is None or t.min() < 1 else (v, t - 1)


def _plain_blocks(data: bytes) -> tuple[bytes, bytes]:
    """``data`` with a final newline, cut where its first ``f`` line after the
    first line starts: the vertex block and the face block of a plain OBJ."""
    if not data.endswith(b"\n"):
        data += b"\n"
    split = data.find(b"\nf") + 1
    return data[:split], data[split:]


def _plain_lines(block: bytes, first: str, separator: str, count: int) -> np.ndarray | None:
    """The bytes of a newline-terminated block in printable ASCII whose every
    line starts with ``first`` and whose ``separator`` bytes total ``count``
    per line; None otherwise. The one check of text in a writer's shape, before
    loadtxt: OBJ ``v`` and ``f`` blocks, pairing and region sidecar bodies."""
    if not block.endswith(b"\n"):
        return None
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a line short of ``count`` separators has too few fields, and a doubled,
    # leading or trailing one leaves an empty or missing field: loadtxt rejects both
    if (
        (ends == starts).any()  # blank line
        or np.count_nonzero(text < ord(" ")) != ends.size  # tab, CR and other control bytes
        or text.max() > ord("~")  # non-ASCII
        or not all((text[starts + k] == ord(byte)).all() for k, byte in enumerate(first))
        or np.count_nonzero(text == ord(separator)) != count * ends.size
    ):
        return None
    return text


def _parse_plain_block(block: bytes, keyword: str, dtype) -> np.ndarray | None:
    """(n, 3) values of a newline-terminated block of plain ``keyword a b c``
    lines: float coordinates, or intp indices written in digits and signs
    only; None for any other text."""
    text = _plain_lines(block, keyword + " ", " ", 3)
    if text is None or (dtype is np.intp and not _FACE_BYTES[text].all()):
        return None
    try:
        return np.loadtxt(StringIO(block.decode("ascii")), dtype=dtype, usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError:  # a token that is not a number, or an index beyond intp
        return None


def _scan_obj(data: bytes, path) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, 0-based triangles) of any OBJ text, line by line; the first
    malformed line raises ValueError naming the file and the line."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    # newline=None splits at LF, CRLF and lone CR, as a text-mode file does
    for lineno, raw in enumerate(StringIO(data.decode("latin-1"), newline=None), start=1):
        if not raw.isascii():
            raise ValueError(f"{path}: line {lineno}: non-ASCII byte")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([_number(float, p) for p in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed vertex coordinate") from None
        elif parts[0] == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise ValueError(f"{path}: line {lineno}: non-triangular face")
            try:
                idx = [_number(int, r.split("/")[0]) for r in refs]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed face index") from None
            if any(i < 1 for i in idx):
                raise ValueError(f"{path}: line {lineno}: face indices must be positive")
            if any(i > _MAX_INDEX for i in idx):
                raise ValueError(f"{path}: line {lineno}: face index {max(idx)} is out of range")
            faces.append([i - 1 for i in idx])
    return np.array(vertices, dtype=float).reshape(-1, 3), np.array(faces, dtype=np.intp).reshape(-1, 3)


def write_files(items) -> None:
    """Write every item of ``items``: ``(path, mesh)`` as an OBJ, ``(path,
    mesh, field, cmap)`` as a painted PLY, ``(path, bytes)`` as they are (a
    :func:`csv_table`, say), and ``(path, doc)`` as JSON, a model as its schema
    document (FORMATS.md gives each format). A value that JSON cannot hold
    raises TypeError before any file is opened. No directory is made.

    ``items`` is listed first, so everything is held at once. Its files are
    dealt over the CPUs by :func:`_in_shares`, largest first by the number of
    values each file holds (bytes count 1; a JSON float 3: repr costs about
    three times what ``%.9g`` does). A process formats a face block once per
    format and triangle array (identity, not equality). The bytes of every
    file are those of a one-item call, and a file that fails is written
    again here, in item order, so the error raised is that of a loop over
    the items.
    """
    items = [(path, _document(value), *rest) for path, value, *rest in items]
    faces: dict[tuple[str, int], str] = {}

    def write_share(indices) -> list[None]:
        for i in indices:
            text = _file_text(items[i], faces)
            with open(items[i][0], "wb") as fh:
                fh.write(text if isinstance(text, bytes) else text.encode("ascii"))
        return [None] * len(indices)

    _in_shares(len(items), write_share, [_file_size(item) for item in items])


def _file_text(item, faces: dict) -> str | bytes:
    """The text of a :func:`write_files` item."""
    _, value, *rest = item
    if rest:
        return _ply_text(value, *rest, faces)
    if isinstance(value, bytes):
        return value
    if isinstance(value, SurfaceMesh):
        body = ("v %.9g %.9g %.9g\n" * value.n_vertices) % tuple(value.vertices.ravel().tolist())
        return body + _face_text(value.triangles, "f %d %d %d\n", 1, faces)
    return _json_text(value, "") + "\n"


def _file_size(item) -> int:
    """The number of values in the text of a :func:`write_files` item, a JSON float counted 3 times."""
    _, value, *rest = item
    if isinstance(value, SurfaceMesh):
        return (6 if rest else 3) * value.n_vertices + 3 * value.n_triangles
    return _json_size(value)


def _json_size(value) -> int:
    if isinstance(value, dict):
        return sum(_json_size(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_json_size(item) for item in value)
    if isinstance(value, np.ndarray):
        return value.size * (3 if value.dtype.kind == "f" else 1)
    return 3 if isinstance(value, (float, np.floating)) else 1


def _face_text(triangles: np.ndarray, template: str, first: int, faces: dict) -> str:
    """``template`` filled with each triangle's indices counted from ``first``;
    kept in ``faces`` by template and array identity."""
    key = (template, id(triangles))
    if key not in faces:
        faces[key] = (template * len(triangles)) % tuple((triangles + first).ravel().tolist())
    return faces[key]


def _ply_text(mesh: SurfaceMesh, field: np.ndarray, cmap: ColorMap, faces: dict) -> str:
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_vertices,):
        raise ValueError(f"field length {field.shape} does not match {mesh.n_vertices} vertices")
    header = (
        "ply\nformat ascii 1.0\n"
        f"comment clamped {cmap.clamped(field)}\n"
        f"element vertex {mesh.n_vertices}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        f"element face {mesh.n_triangles}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    # uint8 colours are exact as floats, and %d prints them as integers
    rows = np.hstack([mesh.vertices, cmap.rgb(field)]).ravel().tolist()
    body = ("%.9g %.9g %.9g %d %d %d\n" * mesh.n_vertices) % tuple(rows)
    return header + body + _face_text(mesh.triangles, "3 %d %d %d\n", 0, faces)


def _fields(payload: dict, table: dict) -> dict:
    """Every field named in ``table``, read from ``payload`` by its reader."""
    for name in table:
        if name not in payload:
            raise ValueError(f"missing field {name!r}")
    return {name: read(payload, name) for name, read in table.items()}


def _array(payload: dict, name: str) -> np.ndarray:
    try:
        array = np.asarray(payload[name], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} is not a rectangular numeric array") from None
    # json turns null into nan under a float dtype
    if not np.isfinite(array).all():
        raise ValueError(f"field {name!r} holds a null or non-finite value")
    return array


def _indices(payload: dict, name: str) -> np.ndarray:
    """An index array, read as floats so that a fractional entry is refused
    rather than truncated by the cast."""
    array = _array(payload, name)
    bad = (array != np.trunc(array)) | (np.abs(array) > 2.0**53)
    if bad.any():
        raise ValueError(f"field {name!r} holds {float(array[bad][0])!r}, which is not an integer index")
    return array.astype(np.intp)


def _float(payload: dict, name: str) -> float:
    """A number; an integer is taken too, a boolean is not."""
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {name!r} is not a number")
    return float(value)


def _strings(payload: dict, name: str) -> tuple[str, ...]:
    value = payload[name]
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"field {name!r} is not a list of strings")
    return tuple(value)


def _object(payload: dict, name: str) -> dict:
    if not isinstance(payload[name], dict):
        raise ValueError(f"field {name!r} is not an object")
    return payload[name]


def _weights(payload: dict, name: str) -> AreaWeights:
    return AreaWeights(_array(payload, name))


def _fpca(payload: dict, name: str) -> FpcaModel:
    return FpcaModel(**_fields(_object(payload, name), _FPCA))


def _asymmetry(payload: dict, name: str) -> dict[str, np.ndarray] | None:
    """None, or an object of per-region score arrays."""
    if payload[name] is None:
        return None
    scores = _object(payload, name)
    return {region: _array(scores, region) for region in scores}


# the model file of each kind: every field but the derived ones, and the reader load_model takes it through
_FPCA = {
    "mean": _array,
    "weights": _weights,
    "eigenfunctions": _array,
    "eigenvalues": _array,
    "total_variance": _float,
    "warnings": _strings,
}
_CONTROL = {
    "fpca": _fpca,
    "nu": _array,
    "control_d": _array,
    "control_r": _array,
    "triangles": _indices,
    "control_asymmetry": _asymmetry,
    "warnings": _strings,
}
_KINDS = {"fpca": (FpcaModel, _FPCA), "control": (ControlModel, _CONTROL)}


def _payload(model, table: dict) -> dict:
    """The attribute of every name in ``table``: a nested model as its own
    payload, area weights as their array."""
    doc = {}
    for name in table:
        value = getattr(model, name)
        if isinstance(value, FpcaModel):
            value = _payload(value, _FPCA)
        elif isinstance(value, AreaWeights):
            value = value.weights
        doc[name] = value
    return doc


def _document(value):
    """A model as its schema document; any other value as it is."""
    for kind, (cls, table) in _KINDS.items():
        if isinstance(value, cls):
            return {"schema_version": SCHEMA_VERSION, "kind": kind, **_payload(value, table)}
    return value


def _json_text(value, pad: str) -> str:
    """``value`` as json.dump writes it at indentation ``pad``. A dict with string
    keys is laid out here, and a non-empty finite int or float array is formatted
    by one template of ``%d`` or ``%r`` (float repr, as json writes floats)."""
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        inner = pad + "  "
        items = (f"{inner}{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if (
        isinstance(value, np.ndarray)
        and value.ndim
        and value.size
        and (value.dtype.kind in "iu" or (value.dtype.kind == "f" and np.isfinite(value).all()))
    ):
        template = "%d" if value.dtype.kind in "iu" else "%r"
        for depth in reversed(range(value.ndim)):
            indent = pad + "  " * depth
            template = "[\n" + ",\n".join([indent + "  " + template] * value.shape[depth]) + "\n" + indent + "]"
        return template % tuple(value.ravel().tolist())
    return json.dumps(value, indent=2, sort_keys=True, default=_json_default).replace("\n", "\n" + pad)


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def load_model(path) -> FpcaModel | ControlModel:
    """Load a model file that :func:`write_files` wrote, validating schema and invariants.

    Array lengths must agree with the vertex count J = len(weights), and the
    triangles must index the mean's vertices. Other keys (an older writer's
    derived values) are ignored. Every error starts with the file name.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as err:  # bad JSON, a non-ASCII byte, an over-long integer
        raise ValueError(f"{path}: truncated or malformed model file: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a model: the file holds a JSON {type(doc).__name__}, not an object")
    version, kind = doc.get("schema_version"), doc.get("kind")
    try:
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema version {version!r} is not supported (expected {SCHEMA_VERSION})")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        cls, table = _KINDS[kind]
        return cls(**_fields(doc, table))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def csv_table(header, rows) -> bytes:
    """A CSV table: floats as %.17g (exact round trip), every other cell with str()."""
    lines = (",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) for row in rows)
    return "".join(line + "\n" for line in (",".join(header), *lines)).encode("ascii")


def _read_csv_rows(path, header: str):
    """(line, stripped cells) of every non-blank row of a two-column CSV, numbered
    by the line the row starts on (a quoted cell may span lines). A row on line 1
    whose first cell is ``header`` is the optional header and is skipped."""
    # latin-1 decodes every byte, so a non-ASCII one is named with its line here
    # instead of failing in the decoder, which names neither
    start = 1
    with open(path, "r", encoding="latin-1", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not all(cell.isascii() for cell in row):
                    raise ValueError(f"{path}: line {lineno}: non-ASCII byte")
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 2 columns")
                cells = [cell.strip() for cell in row]
                if lineno > 1 or cells[0] != header:
                    yield lineno, cells
        except csv.Error as err:  # e.g. a field beyond the csv module's size limit
            raise ValueError(f"{path}: line {start}: {err}") from None


def _number(kind, text: str):
    """``kind(text)`` for ``int`` or ``float``, refusing the underscores that
    Python's number syntax allows between digits."""
    if "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return kind(text)


def _name(path, lineno: int, what: str, text: str) -> str:
    """The name in the cell ``text`` of line ``lineno``; one that :func:`csv_table`
    would not write back as it reads, holding a comma, CR or LF, or starting
    with a quote, is refused."""
    if text.startswith('"') or any(c in text for c in ",\r\n"):
        raise ValueError(f"{path}: line {lineno}: {what} {text!r} has a comma, CR or LF, or a leading quote")
    return text


def _vertex(path, lineno: int, text: str, n_vertices: int) -> int:
    """The vertex index in the cell ``text`` of line ``lineno``, an integer in [0, n_vertices)."""
    try:
        idx = _number(int, text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: vertex index {text!r} is not an integer") from None
    if not 0 <= idx < n_vertices:
        raise ValueError(f"{path}: line {lineno}: vertex {idx} outside [0, {n_vertices})")
    return idx


def _plain_table(path, header: str, n_vertices: int, names: bool) -> tuple | dict[str, np.ndarray] | None:
    """The rows of a CSV in the shape its writer gives: the line ``header``,
    then lines ``index,index`` (``index,name`` with ``names``) that
    :func:`_plain_lines` takes, every index decimal digits below ``n_vertices``
    and every name 1 to 64 bytes, with no quote and no space at either end;
    with names, each name's lines together, indices increasing. Parsed by
    ``np.loadtxt``: the two index columns as intp, or with ``names`` the
    region map. None for any other text, which is left to
    :func:`_read_csv_rows`."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = header.encode("ascii") + b"\n"
    body = data[len(head) :]
    text = _plain_lines(body, "", ",", 1) if data.startswith(head) else None
    if text is None:
        return None
    # with names, the bytes from each comma to the end of its line are not checked here
    name_bytes = np.logical_xor.accumulate((text == ord(",")) | (text == ord("\n"))) if names else False
    if not (_INDEX_BYTES[text] | name_bytes).all():
        return None
    # a name is cut at 65 bytes, so one too long still reads as too long
    columns = [("index", np.intp), ("second", f"S{_MAX_NAME + 1}" if names else np.intp)]
    try:
        table = np.loadtxt(StringIO(body.decode("ascii")), dtype=columns, delimiter=",", comments=None, ndmin=1)
    except ValueError:  # an empty index cell, or an index beyond intp
        return None
    index, second = table["index"], table["second"]
    if index.max() >= n_vertices or (not names and second.max() >= n_vertices):
        return None
    if not names:
        return index, second
    new_name = np.r_[True, second[1:] != second[:-1]]
    regions = second[new_name].tolist()
    plain_names = all(0 < len(name) <= _MAX_NAME and name.strip(b" ") == name and b'"' not in name for name in regions)
    if not plain_names or len(set(regions)) < len(regions) or not ((np.diff(index) > 0) | new_name[1:]).all():
        return None
    rows = np.split(np.ascontiguousarray(index), np.flatnonzero(new_name)[1:])
    return {name.decode("ascii"): idx for name, idx in zip(regions, rows)}


def read_regions(path, n_vertices: int) -> dict[str, np.ndarray]:
    """Read a vertex_index,region_name CSV into a region map (header optional; no region ``global``).

    A file in the shape :func:`regions_table` gives, each region's indices
    increasing, is parsed by numpy (see :func:`_plain_table`: one line check
    decides which files, and ``np.loadtxt`` parses the indices); any other
    text row by row. Both give the same map, names in the order they first
    appear. A name that would not read back once written is refused: one
    holding a comma, CR or LF, or starting with a quote.
    """
    plain = _plain_table(path, "vertex_index,region_name", n_vertices, names=True)
    if plain is not None and "global" not in plain:
        return plain
    regions: dict[str, list[int]] = {}
    for lineno, (idx_text, name) in _read_csv_rows(path, "vertex_index"):
        if name == "global":
            raise ValueError(f"{path}: line {lineno}: region name 'global' is reserved for the whole-surface score")
        name = _name(path, lineno, "region name", name)
        regions.setdefault(name, []).append(_vertex(path, lineno, idx_text, n_vertices))
    return {name: np.unique(np.asarray(idx, dtype=np.intp)) for name, idx in regions.items()}


def regions_table(regions: dict[str, np.ndarray]) -> bytes:
    """The vertex_index,region_name CSV of a region map, regions by name: :func:`csv_table`'s bytes, one template."""
    names = sorted(regions)
    index = [np.asarray(regions[name], dtype=np.intp) for name in names]
    template = "".join(("%d," + str(name).replace("%", "%%") + "\n") * idx.size for name, idx in zip(names, index))
    values = np.concatenate([np.empty(0, np.intp), *index]).tolist()
    return ("vertex_index,region_name\n" + template % tuple(values)).encode("ascii")


def read_pairing(path, n_vertices: int) -> BilateralPairing:
    """Read an index,mirror_index CSV into a BilateralPairing (header optional).

    Unlisted vertices default to midline (self-paired), a vertex listed twice
    is refused, and the involution is validated on construction. A file in
    the shape :func:`pairing_table` gives is parsed by numpy (see
    :func:`_plain_table`: one line check decides which files, and
    ``np.loadtxt`` parses the indices); any other text row by row, to the
    same array.
    """
    pair = np.arange(n_vertices, dtype=np.intp)
    table = _plain_table(path, "index,mirror_index", n_vertices, names=False)
    if table is not None and (np.diff(np.sort(table[0])) > 0).all():
        pair[table[0]] = table[1]
    else:
        listed = set()
        for lineno, cells in _read_csv_rows(path, "index"):
            a, b = (_vertex(path, lineno, text, n_vertices) for text in cells)
            if a in listed:
                raise ValueError(f"{path}: line {lineno}: duplicate vertex {a}")
            listed.add(a)
            pair[a] = b
    try:
        return BilateralPairing(pair)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def pairing_table(pairing: BilateralPairing) -> bytes:
    """The index,mirror_index CSV of a pairing, a row per vertex: :func:`csv_table`'s bytes, one template."""
    rows = np.column_stack([np.arange(pairing.pair.size), pairing.pair])
    return ("index,mirror_index\n" + "%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())).encode("ascii")


def read_weight_overrides(path, n_vertices: int) -> dict[int, float]:
    """Read a vertex_index,weight CSV of per-vertex area-weight overrides.

    Used for curve points carried as ordinary vertices whose area weight is
    set externally (e.g. to the average of the surface points). A vertex
    listed twice is refused.
    """
    overrides: dict[int, float] = {}
    for lineno, (idx_text, weight_text) in _read_csv_rows(path, "vertex_index"):
        idx = _vertex(path, lineno, idx_text, n_vertices)
        try:
            weight = _number(float, weight_text)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: weight {weight_text!r} is not a number") from None
        if not np.isfinite(weight):
            raise ValueError(f"{path}: line {lineno}: weight must be finite")
        if weight < 0:
            raise ValueError(f"{path}: line {lineno}: weight must be non-negative")
        if idx in overrides:
            raise ValueError(f"{path}: line {lineno}: duplicate vertex {idx}")
        overrides[idx] = weight
    return overrides


def read_labels(path) -> dict[str, str]:
    """Read a filename,label CSV keyed by mesh filename (header optional).
    A file name or label that would not read back once written is refused,
    as :func:`_name` says."""
    labels: dict[str, str] = {}
    for lineno, (name, label) in _read_csv_rows(path, "filename"):
        name, label = _name(path, lineno, "filename", name), _name(path, lineno, "label", label)
        if name in labels:
            raise ValueError(f"{path}: line {lineno}: duplicate filename {name!r}")
        labels[name] = label
    return labels


def labels_table(labels: dict[str, str]) -> bytes:
    """The filename,label CSV of a label map, by file name."""
    return csv_table(("filename", "label"), ((name, labels[name]) for name in sorted(labels)))


def mesh_names(directory) -> list[str]:
    """The names of the .obj files in ``directory``, sorted; a directory with none is refused."""
    names = sorted(p.name for p in Path(directory).glob("*.obj"))
    if not names:
        raise ValueError(f"{directory}: no .obj meshes found")
    return names


def load_mesh_directory(directory) -> tuple[list[str], list[SurfaceMesh]]:
    """Load all .obj meshes in a directory, lexicographic filename order; every
    mesh must share the first one's vertex count and triangulation.

    The first file is parsed here and every later one over the CPUs by
    :func:`_in_shares`. When the first file is plain (see :func:`read_mesh`),
    a later file made of plain ``v`` lines and then exactly the first file's
    face block (with a final newline) has only its vertex block parsed, and
    its mesh shares the first mesh's triangle array: callers must not mutate
    ``triangles``. Any other file is parsed as :func:`read_mesh` parses it.
    The arrays and every error text are the ones :func:`read_mesh` and the
    correspondence check give, the first error of the files in order.
    """
    names = mesh_names(directory)
    paths = [Path(directory, name) for name in names]
    data = paths[0].read_bytes()
    first, plain = _mesh_from_obj(data, paths[0])
    faces = _plain_blocks(data)[1] if plain else None

    def parse_share(indices) -> list[np.ndarray | SurfaceMesh]:
        """The vertex array of each later file of ``indices`` that takes the
        fast path, and the mesh of any other."""
        share = []
        for i in indices:
            path = paths[1 + i]
            data = path.read_bytes()
            v = None
            if faces and data.endswith(faces):
                v = _parse_plain_block(data[: -len(faces)], "v", float)
            fast = v is not None and v.shape == first.vertices.shape and np.isfinite(v).all()
            share.append(v if fast else _mesh_from_obj(data, path)[0])
        return share

    parsed = _in_shares(len(paths) - 1, parse_share)
    meshes = [first, *(first.with_vertices(p) if isinstance(p, np.ndarray) else p for p in parsed)]
    for path, mesh in zip(paths, meshes):
        check_correspondence(mesh, first, names[0], str(path))
    return names, meshes
