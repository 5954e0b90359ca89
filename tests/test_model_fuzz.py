"""Property tests for the model reader.

Any bytes, and the model documents write_files writes with a field dropped, given
another type or cut short, either load or raise a ValueError whose text starts
with the file path. What loads is a model whose arrays agree with its vertex
count.
"""
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import surfshape as ss  # noqa: E402
from surfshape.io import load_model, write_files  # noqa: E402


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("model_fuzz") / "model.json"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The text of a component model and of a control model at J = 66."""
    config = ss.SynthConfig(resolution=2, n_shapes=8, noise_sd=0.01, asymmetry_magnitude=0.02, seed=4)
    sample, truth = ss.synth_cohort(config)
    gpa = ss.weighted_gpa(sample)
    tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
    fpca = ss.fit_fpca(tangent, gpa.mean_weights, k=2, mean_shape=gpa.mean)
    control = ss.fit_control_model(sample, pairing=truth.pairing, regions=truth.base_mesh.regions)
    directory = tmp_path_factory.mktemp("models")
    texts = {}
    for kind, model in (("fpca", fpca), ("control", control)):
        write_files([(directory / f"{kind}.json", model)])
        texts[kind] = (directory / f"{kind}.json").read_text()
    return texts


def loads_or_names_the_file(path):
    try:
        model = load_model(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: ")
        return
    fpca = model.fpca if isinstance(model, ss.ControlModel) else model
    j = fpca.weights.weights.size
    assert fpca.mean.shape == (j, 3)
    assert fpca.eigenfunctions.shape == (fpca.n_components, 3 * j)
    assert all(isinstance(warning, str) for warning in fpca.warnings)
    if isinstance(model, ss.ControlModel):
        assert model.nu.shape == (j,) and model.control_d.shape == model.control_r.shape
        assert model.mean_mesh().n_vertices == j
        for scores in (model.control_asymmetry or {}).values():
            assert isinstance(scores, np.ndarray)


def field_paths(doc):
    """Key paths of every field of a model document, nested ones included."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


other_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from([[], {}, [[]], [1], [[1.0, 2.0, 3.0]], [1.0, "a"], {"a": 1}, [None], [[1], [2, 3]], 2**80]),
)


@given(data=st.data())
def test_edited_documents_load_or_name_the_file(documents, scratch, data):
    doc = json.loads(documents[data.draw(st.sampled_from(sorted(documents)))])
    *parents, key = data.draw(st.sampled_from(field_paths(doc)))
    holder = doc
    for parent in parents:
        holder = holder[parent]
    edit = data.draw(st.sampled_from(["drop", "retype", "retype an element"]))
    if edit == "drop":
        del holder[key]
    elif edit == "retype" or not isinstance(holder[key], list) or not holder[key]:
        holder[key] = data.draw(other_values)
    else:
        element = holder[key]
        while len(element) > 1 and isinstance(element[0], list) and data.draw(st.booleans()):
            element = element[0]
        element[data.draw(st.integers(0, len(element) - 1))] = data.draw(other_values)
    scratch.write_text(json.dumps(doc))
    loads_or_names_the_file(scratch)


@given(data=st.data())
def test_truncated_documents_name_the_file(documents, scratch, data):
    text = documents[data.draw(st.sampled_from(sorted(documents)))]
    scratch.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
    loads_or_names_the_file(scratch)


@given(data=st.binary(max_size=300))
def test_any_bytes_load_or_name_the_file(scratch, data):
    scratch.write_bytes(data)
    loads_or_names_the_file(scratch)
