"""The library's argument refusals that no command reaches: each call raises
its own error type with its own message."""
import re

import numpy as np
import pytest

import surfshape as ss
from surfshape import AreaWeights
from surfshape.io import _plain_table, read_regions, write_files

J = 6
EYE = np.eye(3)
POINTS = np.random.default_rng(0).normal(size=(J, 3))
WEIGHTS = AreaWeights(np.ones(J))


@pytest.fixture(scope="module")
def model():
    """A 2-component model of 6 random shapes of J points."""
    return ss.fit_fpca(np.random.default_rng(1).normal(size=(6, 3 * J)), WEIGHTS, k=2, mean_shape=POINTS)


CALLS = {
    "rotation shape": (lambda m: ss.SimilarityTransform(1.0, np.eye(2), np.zeros(3)), "rotation must be 3x3"),
    "translation shape": (lambda m: ss.SimilarityTransform(1.0, EYE, np.zeros(2)), "translation must be a 3-vector"),
    "rotation not orthogonal": (lambda m: ss.SimilarityTransform(1.0, 2 * EYE, np.zeros(3)), "rotation is not orthogonal"),
    "scale": (lambda m: ss.SimilarityTransform(0.0, EYE, np.zeros(3)), "scale must be positive"),
    "opa shapes": (
        lambda m: ss.weighted_opa(POINTS, POINTS[:3], WEIGHTS),
        "shapes must both be (J, 3); got (6, 3) and (3, 3)",
    ),
    "opa weights": (
        lambda m: ss.weighted_opa(POINTS, POINTS, AreaWeights(np.ones(3))),
        "weight vector length does not match the shapes",
    ),
    "gpa size constraint": (
        lambda m: ss.weighted_gpa(None, size_constraint="volume"),
        "size_constraint must be one of ('unit_area', 'initial_mean_area')",
    ),
    "gpa max_iter": (lambda m: ss.weighted_gpa(sample(), max_iter=0), "max_iter must be at least 1"),
    "vec": (lambda m: ss.vec(np.zeros((J, 2))), "expected a (J, 3) matrix, got (6, 2)"),
    "vec_inverse": (lambda m: ss.vec_inverse(np.zeros(4)), "expected a length-3J vector, got shape (4,)"),
    "tangent coordinates": (
        lambda m: ss.tangent_coordinates(np.zeros((2, 3, 3)), POINTS),
        "aligned shapes (3, 3) do not match mean (6, 3)",
    ),
    "fpca tangent": (lambda m: ss.fit_fpca(np.zeros(12), WEIGHTS), "tangent must be (n, 3J)"),
    "fpca mean shape": (
        lambda m: ss.fit_fpca(np.eye(2, 3 * J), WEIGHTS, mean_shape=np.zeros((3, 3))),
        "mean_shape must be (6, 3)",
    ),
    "scores": (lambda m: ss.scores(m, np.zeros((3, 3))), "shape (3, 3) does not match model mean (6, 3)"),
    "reconstruct": (lambda m: ss.reconstruct(m, np.zeros(3)), "expected 2 scores, got shape (3,)"),
    "variability map": (lambda m: ss.variability_map(np.zeros((2, J, 2))), "aligned must be (n, J, 3)"),
    "permutation mode": (
        lambda m: ss.permutation_test(np.zeros((6, 2)), ["a", "b"] * 3, p=1, mode="bootstrap"),
        "mode must be one of ('tangent_pca', 'group_shape_space')",
    ),
    "permutation n_perm": (
        lambda m: ss.permutation_test(np.zeros((6, 2)), ["a", "b"] * 3, p=1, n_perm=0),
        "n_perm must be at least 1",
    ),
    "permutation tangent": (
        lambda m: ss.permutation_test(np.zeros(6), ["a", "b"] * 3, p=1),
        "tangent must be (n, 3J) or (n, p)",
    ),
    "sign reference absent": (
        lambda m: ss.align_component_signs(m, np.zeros((6, 2)), ["a"] * 6, "b"),
        "no samples labelled 'b'",
    ),
    "sign reference everything": (
        lambda m: ss.align_component_signs(m, np.zeros((6, 2)), ["a"] * 6, "a"),
        "reference group covers the whole sample",
    ),
    "effect components": (lambda m: ss.combined_effect_shape(m, [1, 3]), "components outside 1..2"),
    "split aligned": (
        lambda m: ss.affine_nonaffine_split(np.zeros((2, 3, 3)), POINTS),
        "aligned must be (n, J, 3) matching the mean",
    ),
    "reflect shape": (
        lambda m: ss.reflect_relabel(POINTS[:3], ss.BilateralPairing(np.arange(J))),
        "shape must be (6, 3), got (3, 3)",
    ),
    "pairing dimension": (lambda m: ss.BilateralPairing(np.zeros((2, 2))), "pair must be a 1-D index array"),
    "pairing range": (lambda m: ss.BilateralPairing(np.array([0, 2])), "pairing index out of range"),
    "empty sample": (lambda m: ss.ShapeSample(()), "a sample needs at least one shape"),
    "label count": (lambda m: ss.ShapeSample(sample().meshes, labels=("a",)), "1 labels for 2 shapes"),
    "tps shapes": (
        lambda m: ss.fit_tps(POINTS, POINTS[:3]),
        "source and target must both be (J, 3); got (6, 3) and (3, 3)",
    ),
    "warp points": (lambda m: ss.apply_warp(ss.fit_tps(POINTS, POINTS), np.zeros((2, 2))), "points must be (M, 3)"),
    "warp one point": (lambda m: ss.apply_warp(ss.fit_tps(POINTS, POINTS), np.zeros(3)), "points must be (M, 3)"),
}


def sample():
    mesh = ss.synth_base_mesh(ss.SynthConfig(resolution=2))[0]
    return ss.ShapeSample((mesh, mesh.with_vertices(2 * mesh.vertices)))


@pytest.mark.parametrize("call, message", CALLS.values(), ids=CALLS)
def test_refused_with_its_message(call, message, model):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(model)


def test_json_value_of_unknown_type_is_not_written(tmp_path):
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        write_files([(tmp_path / "doc.json", {"a": object()})])
    assert not (tmp_path / "doc.json").exists()


@pytest.mark.parametrize(
    "name, expected",
    [
        ("x" * 64, {"x" * 64: [0, 1]}),
        ("x" * 65, {"x" * 65: [0, 1]}),
        (" a", {"a": [0, 1]}),
        ("a ", {"a": [0, 1]}),
        ('a"b', {'a"b': [0, 1]}),
        ('"a"', {"a": [0, 1]}),
        (" global", "line 2: region name 'global' is reserved for the whole-surface score"),
        # a quoted cell over two lines, which would be written as two rows
        ('"a', "line 2: region name 'a\\n1,a' has a comma, CR or LF, or a leading quote"),
    ],
)
def test_region_names_the_numpy_pass_leaves_to_the_rows(name, expected, tmp_path):
    """A writer-shaped regions file takes the numpy pass only for a name of 1
    to 64 bytes with no quote and no space at either end; any other name
    gives the row path's map or refusal."""
    path = tmp_path / "regions.csv"
    path.write_text(f"vertex_index,region_name\n0,{name}\n1,{name}\n")
    assert (_plain_table(path, "vertex_index,region_name", J, names=True) is not None) == (name == "x" * 64)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            read_regions(path, J)
        return
    regions = read_regions(path, J)
    assert list(regions) == list(expected)
    assert all(got.dtype == np.intp and got.tolist() == expected[region] for region, got in regions.items())
