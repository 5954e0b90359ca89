"""Property tests for the JSON writer.

write_files lays out a document's dicts and finite numeric arrays itself; its
bytes must be exactly what ``json.dump(doc, sort_keys=True, indent=2)`` writes
for the same document with arrays as lists and numpy scalars as Python numbers.
"""
import json
from io import StringIO

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from surfshape.io import write_files  # noqa: E402


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("json_fuzz") / "doc.json"


def plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(type(value).__name__)


def json_dump(doc) -> str:
    out = StringIO()
    json.dump(doc, out, sort_keys=True, indent=2, default=plain)
    return out.getvalue() + "\n"


shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
numeric = st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8])
finite_arrays = numeric.flatmap(
    lambda dtype: hnp.arrays(dtype, shapes, elements=hnp.from_dtype(np.dtype(dtype), allow_nan=False, allow_infinity=False))
    if np.dtype(dtype).kind == "f"
    else hnp.arrays(dtype, shapes)
)
any_arrays = st.sampled_from([np.float64, np.float32, np.bool_]).flatmap(lambda dtype: hnp.arrays(dtype, shapes))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
documents = st.recursive(
    st.one_of(scalars, finite_arrays, any_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=10,
)


@given(doc=documents)
@example(doc={"b": {"z": np.array([[-0.0, 1.5], [2.0, 1e-300]]), "a": []}, "a": np.arange(3)})
@example(doc={"zero_d": np.array(2.5), "empty": np.zeros((2, 0)), "none": None, "flag": np.array([True, False])})
@example(doc={"nonfinite": np.array([1.0, np.nan, -np.inf]), "scalar": np.float64(-0.0), "count": np.int64(7)})
@example(doc={'quote"back\\slash\nnewlineé ': ["tab\t", "\x00"], "": {}})
def test_write_json_is_json_dump(doc, scratch):
    write_files([(scratch, doc)])
    assert scratch.read_text(encoding="ascii") == json_dump(doc)
