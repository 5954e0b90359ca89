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
# bytes an f block in the writer's shape holds; anything else (a '.', an 'e')
# is left to the line scan, since some numpy versions parse "2.9" as int 2
_FACE_BYTES = np.zeros(256, dtype=bool)
_FACE_BYTES[list(b"f0123456789+- \n")] = True
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[list(b"0123456789")] = True
# bytes of a region name the sidecar fast path takes: printable ASCII but the
# quote and the comma, which the csv module treats apart
_NAME_BYTE = np.zeros(256, dtype=bool)
_NAME_BYTE[ord(" ") : ord("~") + 1] = True
_NAME_BYTE[list(b'",')] = False
_MAX_NAME = 64  # longest region name the fast path takes, in bytes

# diverging palette endpoints (low / neutral / high), and the sequential pair
DIVERGING_LOW = (59, 76, 192)
DIVERGING_NEUTRAL = (221, 221, 221)
DIVERGING_HIGH = (180, 4, 38)
SEQUENTIAL_LOW = (247, 251, 255)
SEQUENTIAL_HIGH = (8, 48, 107)


@dataclass(frozen=True)
class ColorMap:
    """Scalar-to-RGB mapping with a pinned palette.

    ``diverging`` runs low colour -> neutral grey -> high colour with
    ``reference`` at the neutral point; ``sequential`` interpolates the
    sequential pair. Values outside [lo, hi] are clamped, infinities too; a
    NaN has no colour and is refused.
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

    def rgb(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Map values to (n, 3) uint8 colours; also return how many were clamped."""
        v = np.asarray(values, dtype=float)
        nan = np.isnan(v)
        if nan.any():
            raise ValueError(f"value at vertex {int(np.flatnonzero(nan)[0])} is NaN, which has no colour")
        clamped = int(((v < self.lo) | (v > self.hi)).sum())
        v = np.clip(v, self.lo, self.hi)
        if self.kind == "sequential":
            t = (v - self.lo) / (self.hi - self.lo)
            lo = np.array(SEQUENTIAL_LOW, dtype=float)
            hi = np.array(SEQUENTIAL_HIGH, dtype=float)
            colors = lo + t[:, None] * (hi - lo)
        else:
            low = np.array(DIVERGING_LOW, dtype=float)
            mid = np.array(DIVERGING_NEUTRAL, dtype=float)
            high = np.array(DIVERGING_HIGH, dtype=float)
            below_span = self.reference - self.lo
            above_span = self.hi - self.reference
            t_below = (v - self.lo) / below_span if below_span > 0 else np.ones_like(v)
            t_above = (v - self.reference) / above_span if above_span > 0 else np.zeros_like(v)
            colors = np.where(
                (v <= self.reference)[:, None],
                low + np.clip(t_below, 0, 1)[:, None] * (mid - low),
                mid + np.clip(t_above, 0, 1)[:, None] * (high - mid),
            )
        return np.rint(colors).astype(np.uint8), clamped


def read_mesh(path) -> SurfaceMesh:
    """Read a triangulated OBJ (v/f records only; other record types are skipped).

    A file made only of ``v x y z`` lines followed by ``f a b c`` lines, single
    spaces apart (what :func:`write_mesh` emits), is converted with one numpy
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
    v = _parse_plain_vertices(vertex_block)
    t = None if v is None else _parse_plain_faces(face_block)
    return None if t is None else (v, t)


def _plain_blocks(data: bytes) -> tuple[bytes, bytes]:
    """``data`` with a final newline, cut where its first ``f`` line after the
    first line starts: the vertex block and the face block of a plain OBJ."""
    if not data.endswith(b"\n"):
        data += b"\n"
    split = data.find(b"\nf") + 1
    return data[:split], data[split:]


def _plain_lines(block: bytes, keyword: str) -> np.ndarray | None:
    """The bytes of a newline-terminated block whose every line is ``keyword``
    and three tokens, single spaces apart, in printable ASCII; None otherwise."""
    if not block.endswith(b"\n"):
        return None
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    space = text == ord(" ")
    # each line: the keyword, a space, three spaces in all; doubled or trailing
    # spaces leave fewer than four tokens, which loadtxt rejects
    if (
        (ends == starts).any()  # blank line
        or ((text < ord(" ")) & (text != ord("\n"))).any()  # tab, CR and other control bytes
        or (text > ord("~")).any()  # non-ASCII
        or not (text[starts] == ord(keyword)).all()
        or not space[starts + 1].all()
        or (np.add.reduceat(space, starts, dtype=np.intp) != 3).any()
    ):
        return None
    return text


def _parse_plain_vertices(block: bytes) -> np.ndarray | None:
    """(J, 3) coordinates of a newline-terminated block of plain ``v x y z``
    lines; None for any other text."""
    if _plain_lines(block, "v") is None:
        return None
    try:
        return np.loadtxt(StringIO(block.decode("ascii")), usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError:  # a token that is not a number
        return None


def _parse_plain_faces(block: bytes) -> np.ndarray | None:
    """0-based (T, 3) triangles of a newline-terminated block of plain
    ``f a b c`` lines with positive integer indices; None for any other text."""
    text = _plain_lines(block, "f")
    if text is None or not _FACE_BYTES[text].all():
        return None
    try:
        t = np.loadtxt(StringIO(block.decode("ascii")), dtype=np.intp, usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError:  # a token that is not an integer, or an index beyond intp
        return None
    if t.min() < 1:
        return None
    return t - 1


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


def write_mesh(mesh: SurfaceMesh, path) -> None:
    """Write the OBJ subset emitted by this tool (9 significant digits)."""
    write_files([(path, mesh)])


def write_painted_mesh(mesh: SurfaceMesh, field: np.ndarray, cmap: ColorMap, path) -> int:
    """Write an ascii PLY with per-vertex colours; returns the clamped-value count.

    The clamp count is also recorded in a header comment, echoing plots that
    truncate exceptional values.
    """
    return write_files([(path, mesh, field, cmap)])[0]


def write_files(items) -> list[int | None]:
    """Write every item of ``items``: ``(path, mesh)`` as an OBJ, ``(path,
    mesh, field, cmap)`` as a painted PLY, and ``(path, doc)`` as JSON, a
    model as :func:`save_model` writes it. Returns the clamp count of each
    PLY, None for the other items.

    ``items`` is listed first, so everything is held at once. Its files are
    dealt over the CPUs by :func:`_in_shares`, largest first by the number of
    values each file holds (a JSON float counts 3 times: repr costs about
    three times what ``%.9g`` does). A process formats a face block once per
    format and triangle array (identity, not equality). The bytes of every
    file are those of the single-file writer's call on its own, and a file
    that fails is written again here, in item order, so the error raised is
    that of a loop over the items.
    """
    items = [
        (path, _model_document(value) if isinstance(value, _MODELS) else value, *rest) for path, value, *rest in items
    ]
    faces: dict[tuple[str, int], str] = {}

    def write_share(indices) -> list[np.ndarray | None]:
        share = []
        for i in indices:
            text, clamped = _file_text(items[i], faces)
            with open(items[i][0], "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            share.append(None if clamped is None else np.array(float(clamped)))
        return share

    done = _in_shares(len(items), write_share, (), [_file_size(item) for item in items])
    return [None if clamped is None else int(clamped) for clamped in done]


def _file_text(item, faces: dict) -> tuple[str, int | None]:
    """The text of a :func:`write_files` item, and its clamp count if it is a PLY."""
    _, value, *rest = item
    if rest:
        return _ply_text(value, *rest, faces)
    if isinstance(value, SurfaceMesh):
        body = ("v %.9g %.9g %.9g\n" * value.n_vertices) % tuple(value.vertices.ravel().tolist())
        return body + _face_text(value.triangles, "f %d %d %d\n", 1, faces), None
    return _json_text(value, "") + "\n", None


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


def _ply_text(mesh: SurfaceMesh, field: np.ndarray, cmap: ColorMap, faces: dict) -> tuple[str, int]:
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.n_vertices,):
        raise ValueError(f"field length {field.shape} does not match {mesh.n_vertices} vertices")
    colors, clamped = cmap.rgb(field)
    header = (
        "ply\nformat ascii 1.0\n"
        f"comment clamped {clamped}\n"
        f"element vertex {mesh.n_vertices}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        f"element face {mesh.n_triangles}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    # uint8 colours are exact as floats, and %d prints them as integers
    rows = np.hstack([mesh.vertices, colors]).ravel().tolist()
    body = ("%.9g %.9g %.9g %d %d %d\n" * mesh.n_vertices) % tuple(rows)
    return header + body + _face_text(mesh.triangles, "3 %d %d %d\n", 0, faces), clamped


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
_MODELS = tuple(cls for cls, _ in _KINDS.values())


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


def save_model(model: FpcaModel | ControlModel, path) -> None:
    """Serialize a component or control model to the JSON schema (version 1)."""
    if not isinstance(model, _MODELS):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    write_files([(path, model)])


def _model_document(model: FpcaModel | ControlModel) -> dict:
    for kind, (cls, table) in _KINDS.items():
        if isinstance(model, cls):
            return {"schema_version": SCHEMA_VERSION, "kind": kind, **_payload(model, table)}


def write_json(doc, path) -> None:
    """Write a JSON document with sorted keys and two-space indent; numpy arrays
    and scalars are written as plain lists and numbers. The bytes are those of
    ``json.dump(doc, sort_keys=True, indent=2)`` plus a final newline."""
    write_files([(path, doc)])


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
    """Load a model written by :func:`save_model`, validating schema and invariants.

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


def write_csv(path, header, rows) -> None:
    """Write a CSV table: floats as %.17g (exact round trip), every other cell with str()."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) + "\n")


def _write_table(path, header, template: str, values: np.ndarray) -> None:
    """Write a CSV table whose body is ``template`` filled with the integers of
    ``values`` in C order: the bytes :func:`write_csv` writes for the same rows."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + template % tuple(values.ravel().tolist()))


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


def _plain_table(path, header: str, n_vertices: int, names: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns of a CSV in the shape its writer gives: the line ``header``,
    then rows ``index,index`` (``index,name`` with ``names``), each ending in
    LF, every index of 1 to 18 decimal digits below ``n_vertices`` and every
    name 1 to 64 bytes of printable ASCII, no quote or comma, with no space
    at either end. Indices as intp, names as bytes; None for any other text,
    which is left to :func:`_read_csv_rows`."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = header.encode("ascii") + b"\n"
    if not data.startswith(head) or len(data) == len(head) or not data.endswith(b"\n"):
        return None
    text = np.frombuffer(data, dtype=np.uint8)[len(head) :]
    ends = np.flatnonzero(text == ord("\n"))
    commas = np.flatnonzero(text == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # one comma a line, with a cell on either side, and no byte the csv module reads apart
    if (
        commas.size != ends.size
        or not ((starts < commas) & (commas + 1 < ends)).all()
        or not (_NAME_BYTE[text] | (text == ord(",")) | (text == ord("\n"))).all()
    ):
        return None
    first = _decimal(text, starts, commas)
    second = (_names if names else _decimal)(text, commas + 1, ends)
    if first is None or second is None or first.max() >= n_vertices:
        return None
    if not names and second.max() >= n_vertices:
        return None
    return first, second


def _decimal(text: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """The intp value of each run ``text[starts[k]:stops[k]]`` of 1 to 18
    decimal digits; None if a run is longer or holds another byte."""
    lengths = stops - starts
    if lengths.max() > 18:
        return None
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    digits = text[np.repeat(starts, lengths) + offsets]
    if not _DIGIT[digits].all():
        return None
    places = 10 ** (np.repeat(lengths, lengths) - 1 - offsets)
    return np.add.reduceat((digits - ord("0")).astype(np.intp) * places, np.cumsum(lengths) - lengths)


def _names(text: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """Each run ``text[starts[k]:stops[k]]`` as bytes (NUL-padded, so a name
    must hold no NUL); None if one is longer than 64 bytes or has a space at
    either end."""
    lengths = stops - starts
    width = int(lengths.max())
    if width > _MAX_NAME or (text[starts] == ord(" ")).any() or (text[stops - 1] == ord(" ")).any():
        return None
    offsets = np.arange(width)
    inside = offsets < lengths[:, None]
    cells = np.zeros((starts.size, width), dtype=np.uint8)
    cells[inside] = text[(starts[:, None] + offsets)[inside]]
    return cells.view(f"S{width}").ravel()


def read_regions(path, n_vertices: int) -> dict[str, np.ndarray]:
    """Read a vertex_index,region_name CSV into a region map (header optional; no region ``global``).

    A file in the shape :func:`write_regions` gives is parsed in one numpy
    pass (see :func:`_plain_table`); any other text row by row. Both give the
    same map, names in the order they first appear.
    """
    table = _plain_table(path, "vertex_index,region_name", n_vertices, names=True)
    if table is not None and not (table[1] == b"global").any():
        index, names = table
        unique, first, inverse = np.unique(names, return_index=True, return_inverse=True)
        order = np.lexsort((index, inverse))
        groups = np.split(index[order], np.flatnonzero(np.diff(inverse[order])) + 1)
        return {unique[k].decode("ascii"): np.unique(groups[k]) for k in np.argsort(first)}
    regions: dict[str, list[int]] = {}
    for lineno, (idx_text, name) in _read_csv_rows(path, "vertex_index"):
        if name == "global":
            raise ValueError(f"{path}: line {lineno}: region name 'global' is reserved for the whole-surface score")
        try:
            idx = _number(int, idx_text)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: vertex index {idx_text!r} is not an integer") from None
        if not 0 <= idx < n_vertices:
            raise ValueError(f"{path}: line {lineno}: vertex {idx} outside [0, {n_vertices})")
        regions.setdefault(name, []).append(idx)
    return {name: np.unique(np.asarray(idx, dtype=np.intp)) for name, idx in regions.items()}


def write_regions(regions: dict[str, np.ndarray], path) -> None:
    names = sorted(regions)
    index = [np.asarray(regions[name], dtype=np.intp) for name in names]
    template = "".join(("%d," + str(name).replace("%", "%%") + "\n") * idx.size for name, idx in zip(names, index))
    _write_table(path, ("vertex_index", "region_name"), template, np.concatenate([np.empty(0, np.intp), *index]))


def read_pairing(path, n_vertices: int) -> BilateralPairing:
    """Read an index,mirror_index CSV into a BilateralPairing (header optional).

    Unlisted vertices default to midline (self-paired), a vertex listed twice
    is refused, and the involution is validated on construction. A file in
    the shape :func:`write_pairing` gives is parsed in one numpy pass (see
    :func:`_plain_table`); any other text row by row, to the same array.
    """
    pair = np.arange(n_vertices, dtype=np.intp)
    table = _plain_table(path, "index,mirror_index", n_vertices, names=False)
    if table is not None and np.unique(table[0]).size == table[0].size:
        pair[table[0]] = table[1]
    else:
        listed = set()
        for lineno, (a_text, b_text) in _read_csv_rows(path, "index"):
            try:
                a, b = _number(int, a_text), _number(int, b_text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: indices must be integers") from None
            for value in (a, b):
                if not 0 <= value < n_vertices:
                    raise ValueError(f"{path}: line {lineno}: vertex {value} outside [0, {n_vertices})")
            if a in listed:
                raise ValueError(f"{path}: line {lineno}: duplicate vertex {a}")
            listed.add(a)
            pair[a] = b
    try:
        return BilateralPairing(pair)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_pairing(pairing: BilateralPairing, path) -> None:
    rows = np.column_stack([np.arange(pairing.pair.size), pairing.pair])
    _write_table(path, ("index", "mirror_index"), "%d,%d\n" * len(rows), rows)


def read_weight_overrides(path, n_vertices: int) -> dict[int, float]:
    """Read a vertex_index,weight CSV of per-vertex area-weight overrides.

    Used for curve points carried as ordinary vertices whose area weight is
    set externally (e.g. to the average of the surface points). A vertex
    listed twice is refused.
    """
    overrides: dict[int, float] = {}
    for lineno, (idx_text, weight_text) in _read_csv_rows(path, "vertex_index"):
        try:
            idx = _number(int, idx_text)
            weight = _number(float, weight_text)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected integer index and numeric weight") from None
        if not 0 <= idx < n_vertices:
            raise ValueError(f"{path}: line {lineno}: vertex {idx} outside [0, {n_vertices})")
        if not np.isfinite(weight):
            raise ValueError(f"{path}: line {lineno}: weight must be finite")
        if weight < 0:
            raise ValueError(f"{path}: line {lineno}: weight must be non-negative")
        if idx in overrides:
            raise ValueError(f"{path}: line {lineno}: duplicate vertex {idx}")
        overrides[idx] = weight
    return overrides


def read_labels(path) -> dict[str, str]:
    """Read a filename,label CSV keyed by mesh filename (header optional)."""
    labels: dict[str, str] = {}
    for lineno, (name, label) in _read_csv_rows(path, "filename"):
        if name in labels:
            raise ValueError(f"{path}: line {lineno}: duplicate filename {name!r}")
        labels[name] = label
    return labels


def write_labels(labels: dict[str, str], path) -> None:
    write_csv(path, ("filename", "label"), ((name, labels[name]) for name in sorted(labels)))


def load_mesh_directory(directory) -> tuple[list[str], list[SurfaceMesh]]:
    """Load all .obj meshes in a directory, lexicographic filename order; every
    mesh must share the first one's vertex count and triangulation.

    When the first file is plain (see :func:`read_mesh`), a later file made
    of plain ``v`` lines and then exactly the first file's face block (with
    a final newline) has only its vertex block parsed, and its mesh shares
    the first mesh's triangle array: callers must not mutate ``triangles``.
    These vertex blocks are parsed over the CPUs by :func:`_in_shares`. The
    arrays and every error text are the ones :func:`read_mesh` and the
    correspondence check give.
    """
    directory = Path(directory)
    names = sorted(p.name for p in directory.glob("*.obj"))
    if not names:
        raise ValueError(f"{directory}: no .obj meshes found")
    paths = [directory / name for name in names]
    data = paths[0].read_bytes()
    first, plain = _mesh_from_obj(data, paths[0])
    faces = _plain_blocks(data)[1] if plain else None

    def plain_vertices(indices) -> list[np.ndarray | None]:
        """The vertex array of each later file of ``indices`` that takes the
        fast path; None for any other, and for one that cannot be read."""
        share = []
        for i in indices:
            path = paths[1 + i]
            try:
                data = path.read_bytes()
            except OSError:
                data = b""
            v = _parse_plain_vertices(data[: len(data) - len(faces)]) if data.endswith(faces) else None
            share.append(v if v is not None and v.shape == first.vertices.shape and np.isfinite(v).all() else None)
        return share

    later = len(paths) - 1
    vertices = _in_shares(later, plain_vertices, first.vertices.shape) if faces else [None] * later
    meshes = [first]
    for path, v in zip(paths[1:], vertices):
        # a file off the fast path is read in full, in order, so that a fault is named as read_mesh names it
        meshes.append(first.with_vertices(v) if v is not None else _mesh_from_obj(path.read_bytes(), path)[0])
    for path, mesh in zip(paths, meshes):
        check_correspondence(mesh, first, names[0], str(path))
    return names, meshes
