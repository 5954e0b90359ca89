"""Property tests for the CSV sidecar readers and writers.

Any bytes either parse or raise a ValueError whose text starts with the file
path. What parses keeps each reader's contract: ASCII text, vertex indices in
range, finite non-negative weights, a pairing that is an involution. What the
writers write reads back exactly: floats at 17 digits, pairings and regions
as equal arrays. The pairing and region readers parse a file in the writer's
shape through numpy (one line check decides which files, and np.loadtxt
parses the indices); that path and the row-by-row one give the same result,
or the same error, on any text.
"""
import math
import struct
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

import surfshape.io as sio  # noqa: E402
from surfshape.io import (  # noqa: E402
    csv_table, labels_table, pairing_table, read_labels, read_pairing, read_regions, read_weight_overrides,
    regions_table, write_files,
)
from surfshape.mesh import BilateralPairing  # noqa: E402

N_VERTICES = 6


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_fuzz") / "sidecar.csv"


def check_labels(labels):
    assert all(name.isascii() and label.isascii() for name, label in labels.items())


def check_regions(regions):
    for name, idx in regions.items():
        assert name.isascii() and idx.dtype == np.intp
        assert ((0 <= idx) & (idx < N_VERTICES)).all() and (np.diff(idx) > 0).all()


def check_pairing(pairing):
    pair = pairing.pair
    assert ((0 <= pair) & (pair < N_VERTICES)).all()
    np.testing.assert_array_equal(pair[pair], np.arange(N_VERTICES))


def check_weights(overrides):
    for idx, weight in overrides.items():
        assert 0 <= idx < N_VERTICES
        assert math.isfinite(weight) and weight >= 0


READERS = {
    "labels": (read_labels, check_labels),
    "regions": (lambda path: read_regions(path, N_VERTICES), check_regions),
    "pairing": (lambda path: read_pairing(path, N_VERTICES), check_pairing),
    "weights": (lambda path: read_weight_overrides(path, N_VERTICES), check_weights),
}

cell = st.one_of(
    st.integers(-2, N_VERTICES + 1).map(str),
    st.floats().map(repr),
    st.sampled_from([
        "nan", "inf", "-inf", "NaN", "Infinity", "1e400", "1_0", "-0", "+1", "0x1", "0.5", "", " ", "a.obj", "A",
        "café.obj", "−" "1", " ", "٣", '"1"', '"a,b"', '"', "filename", "index", "vertex_index",
    ]),
)
header = st.sampled_from(["", "filename,label", "vertex_index,region_name", "index,mirror_index", "vertex_index,weight"])


@st.composite
def csv_text(draw):
    """Sidecar-like bytes: an optional header, then rows of one to three cells
    drawn from numbers, names and troublesome tokens, any line ends, UTF-8."""
    lines = [draw(header)] + [",".join(row) for row in draw(st.lists(st.lists(cell, min_size=1, max_size=3), max_size=6))]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


@pytest.mark.parametrize("kind", sorted(READERS))
@given(data=st.one_of(csv_text(), st.binary(max_size=200)))
def test_parse_or_name_the_file(kind, data, scratch):
    reader, check = READERS[kind]
    scratch.write_bytes(data)
    try:
        result = reader(scratch)
    except ValueError as err:
        assert str(err).startswith(f"{scratch}: ")
    else:
        check(result)


@given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
def test_written_floats_read_back_bitwise(values, scratch):
    # infinities and -0.0 included; %.17g is the shortest width that is exact for every double
    write_files([(scratch, csv_table(("name", "value"), ((f"r{i}", x) for i, x in enumerate(values))))])
    lines = scratch.read_text(encoding="ascii").splitlines()
    assert lines[0] == "name,value" and len(lines) == len(values) + 1
    for x, line in zip(values, lines[1:]):
        assert struct.pack("<d", float(line.split(",")[1])) == struct.pack("<d", x)


@given(order=st.permutations(range(N_VERTICES)), n_pairs=st.integers(0, N_VERTICES // 2))
def test_written_pairing_reads_back(order, n_pairs, scratch):
    pair = np.arange(N_VERTICES)
    for a, b in zip(order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]):
        pair[a], pair[b] = b, a
    write_files([(scratch, pairing_table(BilateralPairing(pair)))])
    np.testing.assert_array_equal(read_pairing(scratch, N_VERTICES).pair, pair)
    # the one-template table is the general table of the same rows
    assert pairing_table(BilateralPairing(pair)) == csv_table(("index", "mirror_index"), enumerate(pair.tolist()))


region_names = st.text(alphabet="abcXYZ019_-.%", min_size=1, max_size=6)
vertex_sets = st.sets(st.integers(0, N_VERTICES - 1), min_size=1)


@given(regions=st.dictionaries(region_names, vertex_sets, max_size=4))
def test_written_regions_read_back(regions, scratch):
    regions = {name: np.array(sorted(idx), dtype=np.intp) for name, idx in regions.items()}
    write_files([(scratch, regions_table(regions))])
    rows = [(i, name) for name in sorted(regions) for i in regions[name].tolist()]
    assert scratch.read_bytes() == regions_table(regions) == csv_table(("vertex_index", "region_name"), rows)
    back = read_regions(scratch, N_VERTICES)
    assert sorted(back) == sorted(regions)
    for name, idx in regions.items():
        assert back[name].dtype == np.intp
        np.testing.assert_array_equal(back[name], idx)


def outcome(reader, path):
    """What ``reader(path)`` gives: a pairing array, a region map as (name, array bytes) pairs, or an error text."""
    try:
        result = reader(path)
    except ValueError as err:
        return str(err)
    if isinstance(result, BilateralPairing):
        return result.pair.dtype, result.pair.tobytes()
    return [(name, idx.dtype, idx.tobytes()) for name, idx in result.items()]


def both_paths(reader, path):
    """The outcome of ``reader`` on ``path``, and its outcome with the rows read one by one."""
    fast = outcome(reader, path)
    with mock.patch.object(sio, "_plain_table", return_value=None):
        return fast, outcome(reader, path)


SIDECARS = {
    "pairing": (read_pairing, "index,mirror_index", False),
    "regions": (read_regions, "vertex_index,region_name", True),
}


@st.composite
def written_sidecar(draw):
    """A kind, a vertex count J and the bytes its writer gives for a drawn pairing or region map."""
    kind = draw(st.sampled_from(sorted(SIDECARS)))
    j = draw(st.integers(1, 400))
    if kind == "pairing":
        order = draw(st.permutations(range(j)))
        pair = np.arange(j)
        n_pairs = draw(st.integers(0, j // 2))
        for a, b in zip(order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]):
            pair[a], pair[b] = b, a
        return kind, j, lambda path: write_files([(path, pairing_table(BilateralPairing(pair)))])
    names = st.text(alphabet="abcXYZ019_-.% ", min_size=1, max_size=70).filter(lambda n: n.strip() == n)
    regions = draw(st.dictionaries(names, st.sets(st.integers(0, j - 1), min_size=1), min_size=1, max_size=5))
    table = regions_table({n: np.array(sorted(i)) for n, i in regions.items()})
    return kind, j, lambda path: write_files([(path, table)])


@given(written=written_sidecar())
def test_written_sidecar_takes_the_numpy_pass(written, scratch):
    kind, j, write = written
    reader, header, names = SIDECARS[kind]
    write(scratch)
    fast, rows = both_paths(lambda path: reader(path, j), scratch)
    assert fast == rows and not isinstance(fast, str)
    longest = max((len(line.split(",", 1)[1]) for line in scratch.read_text().splitlines()[1:]), default=0)
    assert (sio._plain_table(scratch, header, j, names) is not None) == (longest <= 64)


# each reader whose result a table writes back, with that table
WRITTEN_BACK = {
    "labels": (read_labels, labels_table),
    "pairing": (lambda path: read_pairing(path, N_VERTICES), pairing_table),
    "regions": (lambda path: read_regions(path, N_VERTICES), regions_table),
}

# names read from quoted cells or after a space: a comma, a CR or LF inside, or a leading quote
name_cell = st.sampled_from(['a', 'b c', 'a"b', '"a,b"', '"a\nb"', '"a\rb"', '"a\r\nb"', ' "a', '"""a"', '"', '%d'])


@st.composite
def region_text(draw):
    """Regions bytes with an optional header, rows of an index cell and a name
    cell that may be quoted, and any line ends."""
    index = st.one_of(st.integers(-1, N_VERTICES).map(str), cell)
    rows = draw(st.lists(st.tuples(index, name_cell), max_size=5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [draw(header), *(",".join(row) for row in rows)]
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


@st.composite
def labels_text(draw):
    """Labels bytes with an optional header, rows of two cells that may be quoted, and any line ends."""
    rows = draw(st.lists(st.tuples(name_cell, name_cell), max_size=5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [draw(header), *(",".join(row) for row in rows)]
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


@pytest.mark.parametrize("kind", sorted(WRITTEN_BACK))
@given(data=st.one_of(csv_text(), region_text(), labels_text(), st.binary(max_size=200)))
@example(data=b'0,"a\n1,b"\n')  # read as one name, written as two rows
@example(data=b'0,"""a"\n')  # a leading quote, which opens a quoted cell once written
@example(data=b'0, "a\n')
@example(data=b'0,"a,b"\n')  # written unquoted, a row of three cells
@example(data=b'0,"a\rb"\n')
@example(data=b'a.obj,"A\nB"\n')  # a label over two lines, written as two rows
@example(data=b'"a,b.obj",A\n')  # a file name written as two cells
def test_what_reads_writes_back(kind, data, scratch):
    """Every file a reader accepts, written by its table and read again, gives the same labels, pairing or regions."""
    reader, table = WRITTEN_BACK[kind]
    scratch.write_bytes(data)
    try:
        first = reader(scratch)
    except ValueError:
        return
    scratch.write_bytes(table(first))
    assert compared(reader(scratch)) == compared(first)


def compared(result):
    """A pairing as its array's dtype and bytes; a region map as those of each region, by name; labels by name."""
    if isinstance(result, BilateralPairing):
        return result.pair.dtype, result.pair.tobytes()
    items = sorted(result.items())
    return [(name, value) if isinstance(value, str) else (name, value.dtype, value.tobytes()) for name, value in items]


# NUL would pad a name in a bytes array, and DEL lies just past printable ASCII
damage = st.sampled_from([
    b"", b" ", b",", b"\r", b"\n", b'"', b"-", b"+", b"x", b"9", b"0", b"\xe9", b"\t", b"global", b"\x00", b"\x7f",
])


@given(written=written_sidecar(), at=st.integers(0, 2**16), cut=st.integers(0, 2), new=damage)
def test_damaged_sidecar_reads_as_the_rows(written, at, cut, new, scratch):
    kind, j, write = written
    reader, _, _ = SIDECARS[kind]
    write(scratch)
    data = scratch.read_bytes()
    at %= len(data) + 1
    scratch.write_bytes(data[:at] + new + data[at + cut :])
    fast, rows = both_paths(lambda path: reader(path, j), scratch)
    assert fast == rows


@pytest.mark.parametrize("kind", sorted(SIDECARS))
@given(data=st.one_of(csv_text(), st.binary(max_size=200)))
def test_any_text_reads_as_the_rows(kind, data, scratch):
    reader, _, _ = SIDECARS[kind]
    scratch.write_bytes(data)
    fast, rows = both_paths(lambda path: reader(path, N_VERTICES), scratch)
    assert fast == rows


@pytest.mark.parametrize("kind", sorted(SIDECARS))
@pytest.mark.parametrize("digits", [18, 19, 25])
def test_long_indices_read_as_the_rows(kind, digits, scratch):
    # an int64 holds every 18-digit index but not every 19-digit one
    reader, header, names = SIDECARS[kind]
    zero, one, nines = "0" * digits, "1".zfill(digits), "9" * digits
    second = ("a", "a") if names else (one, zero)
    # zero-padded vertices 0 and 1, which the numpy path takes; then vertex 0 and an index of all nines
    for first in ((zero, one), (zero, nines)):
        scratch.write_text(f"{header}\n" + "".join(f"{a},{b}\n" for a, b in zip(first, second)))
        fast, rows = both_paths(lambda path: reader(path, N_VERTICES), scratch)
        assert fast == rows
        assert (sio._plain_table(scratch, header, N_VERTICES, names) is not None) == (first[1] == one)


# bodies whose one fault is a line a comma short and another one over, so that
# the comma total is that of the writer's shape, or a control byte that the
# row path strips
BALANCED = {
    "pairing": ["0,1,\n1\n", "0\n1,0,\n", "0,1,2\n2\n", "0,1\n1,0\x0b\n", "0,1\n1\x1f,0\n", "0,,1\n1\n"],
    "regions": ["0,a,b\n1\n", "0\n1,a,\n", "0,a\n1,a\x1f\n", "0\x0b,a\n1,a\n", "0,a,\n1,a\n2\n"],
}


@pytest.mark.parametrize("kind, body", [(kind, body) for kind, bodies in BALANCED.items() for body in bodies])
def test_balanced_separators_read_as_the_rows(kind, body, scratch):
    reader, header, names = SIDECARS[kind]
    scratch.write_text(f"{header}\n{body}")
    assert sio._plain_table(scratch, header, N_VERTICES, names) is None
    fast, rows = both_paths(lambda path: reader(path, N_VERTICES), scratch)
    assert fast == rows
