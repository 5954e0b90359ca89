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
from .mesh import AreaWeights, BilateralPairing, SurfaceMesh, check_correspondence

SCHEMA_VERSION = 1
_MAX_INDEX = int(np.iinfo(np.intp).max)  # largest OBJ face index an index array can hold
# bytes an f block in the writer's shape holds; anything else (a '.', an 'e')
# is left to the line scan, since some numpy versions parse "2.9" as int 2
_FACE_BYTES = np.zeros(256, dtype=bool)
_FACE_BYTES[list(b"f0123456789+- \n")] = True

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
    sequential pair. Values outside [lo, hi] are clamped.
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
        return SurfaceMesh(v, t), arrays is not None
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
    write_meshes([(mesh, path)])


def write_meshes(items) -> None:
    """Write each ``(mesh, path)`` of ``items`` as an OBJ, in order.

    The face block is formatted again only when a mesh's ``triangles`` is not
    the previous item's array (identity, not equality), so a cohort that
    shares one triangle array formats it once. The bytes of every file are
    those of a :func:`write_mesh` call on its own.
    """
    triangles = faces = None
    for mesh, path in items:
        if mesh.triangles is not triangles:
            triangles = mesh.triangles
            faces = ("f %d %d %d\n" * mesh.n_triangles) % tuple((triangles + 1).ravel().tolist())
        body = ("v %.9g %.9g %.9g\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist())
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(body + faces)


def write_painted_mesh(mesh: SurfaceMesh, field: np.ndarray, cmap: ColorMap, path) -> int:
    """Write an ascii PLY with per-vertex colours; returns the clamped-value count.

    The clamp count is also recorded in a header comment, echoing plots that
    truncate exceptional values.
    """
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
    body += ("3 %d %d %d\n" * mesh.n_triangles) % tuple(mesh.triangles.ravel().tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + body)
    return clamped


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


def save_model(model: FpcaModel | ControlModel, path) -> None:
    """Serialize a component or control model to the JSON schema (version 1)."""
    for kind, (cls, table) in _KINDS.items():
        if isinstance(model, cls):
            return write_json({"schema_version": SCHEMA_VERSION, "kind": kind, **_payload(model, table)}, path)
    raise TypeError(f"cannot serialize {type(model).__name__}")


def write_json(doc, path) -> None:
    """Write a JSON document with sorted keys and two-space indent; numpy arrays
    and scalars are written as plain lists and numbers. The bytes are those of
    ``json.dump(doc, sort_keys=True, indent=2)`` plus a final newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_json_text(doc, "") + "\n")


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


def read_regions(path, n_vertices: int) -> dict[str, np.ndarray]:
    """Read a vertex_index,region_name CSV into a region map (header optional; no region ``global``)."""
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
    is refused, and the involution is validated on construction.
    """
    pair = np.arange(n_vertices, dtype=np.intp)
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
    The arrays and every error text are the ones :func:`read_mesh` and the
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
    meshes = [first]
    for path in paths[1:]:
        data = path.read_bytes()
        v = _parse_plain_vertices(data[: len(data) - len(faces)]) if faces and data.endswith(faces) else None
        if v is not None and v.shape[0] == first.n_vertices and np.isfinite(v).all():
            meshes.append(first.with_vertices(v))
        else:  # read in full, so that a fault is named as read_mesh names it
            meshes.append(_mesh_from_obj(data, path)[0])
    for path, mesh in zip(paths, meshes):
        check_correspondence(mesh, first, names[0], str(path))
    return names, meshes
