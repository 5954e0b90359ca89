"""What the program reaches: every subcommand, run in this process under a
trace, enters every public function and every method and property of a
public class but a known few. One that no subcommand runs shows up here, to
be deleted or listed with its reason."""
import inspect
import os
import sys
from unittest import mock

import surfshape as ss
from surfshape.cli import main

# the public functions that no subcommand runs, each with the reason it stays
NOT_RUN = {
    "align_component_signs",  # a picture of a comparison: whether the program draws it is open
    "combined_effect_shape",  # a picture of a comparison: whether the program draws it is open
    "component_shape",  # a picture of a component: whether the program draws it is open
    "variability_map",  # a picture of a sample: whether the program draws it is open
    "scores",  # a shape's scores: scores_from_tangent is what runs; tests use it as a helper
    "reconstruct",  # the inverse of scores, which tests use as a helper
    "vec",  # the inverse of vec_inverse, which runs; tests use it as a helper
    "BilateralPairing.midline",  # the fixed points of a pairing; tests use it as a helper
    "ShapeSample.vertex_array",  # the cohort as one (n, J, 3) array, which the benchmark's workloads build
}


def public_code():
    """The code of each public function, and of each method and property that
    a public class defines in this package, by name."""
    package = os.path.dirname(ss.__file__)
    code = {}
    for name in ss.__all__:
        value = getattr(ss, name)
        if inspect.isfunction(value):
            code[name] = value.__code__
        elif inspect.isclass(value):
            for member, attribute in vars(value).items():
                function = attribute.fget if isinstance(attribute, property) else getattr(attribute, "__func__", attribute)
                # what dataclass and NamedTuple generate is compiled outside the package
                if inspect.isfunction(function) and function.__code__.co_filename.startswith(package):
                    code[f"{name}.{member}"] = function.__code__
    return code


def run_every_subcommand(out):
    """Each of the ten subcommands at J = 66, with both compare modes and both
    ways into assess."""
    sim, meshes = out / "sim", str(out / "sim" / "meshes")
    labels, pairing, regions = (str(sim / name) for name in ("labels.csv", "pairing.csv", "regions.csv"))
    pre, post = str(sim / "meshes" / "shape_000.obj"), str(sim / "meshes" / "shape_001.obj")
    assert main(["simulate", "--resolution", "2", "--group-sizes", "6,6", "--asymmetry", "0.02", "--noise-sd",
                 "0.01", "--seed", "3", "--out", str(sim)]) == 0
    # the symmetric base shape alone: its mirror image matches it exactly
    (out / "base").mkdir()
    (out / "base" / "base.obj").write_bytes((sim / "base.obj").read_bytes())
    runs = [
        ["register", "--meshes", meshes, "--out", str(out / "register")],
        ["pca", "--meshes", meshes, "--out", str(out / "pca")],
        ["tour", "--model", str(out / "pca" / "model.json"), "--topology", str(sim / "base.obj"),
         "--out", str(out / "tour")],
        ["compare", "--meshes", meshes, "--labels", labels, "--p", "2", "--n-perm", "20", "--out", str(out / "cmp")],
        ["compare", "--meshes", meshes, "--labels", labels, "--p", "2", "--n-perm", "20",
         "--mode", "group_shape_space", "--out", str(out / "cmp-gss")],
        ["split-affine", "--meshes", meshes, "--out", str(out / "split")],
        ["asymmetry", "--meshes", meshes, "--pairing", pairing, "--regions", regions,
         "--per-region-registration", "--out", str(out / "asym")],
        ["asymmetry", "--meshes", str(out / "base"), "--pairing", pairing, "--out", str(out / "asym-base")],
        ["assess", "--controls", meshes, "--pre", pre, "--post", post, "--pairing", pairing, "--regions", regions,
         "--out", str(out / "assess")],
        ["assess", "--model", str(out / "assess" / "control_model.json"), "--pre", pre, "--post", post,
         "--pairing", pairing, "--regions", regions, "--out", str(out / "assess-model")],
        ["warp", "--source", str(sim / "base.obj"), "--target", pre, "--template", str(sim / "base.obj"),
         "--out", str(out / "warp")],
        ["diff", str(out / "register" / "mean.obj"), str(sim / "base.obj"), "--out", str(out / "diff")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv


def test_every_public_function_and_member_but_the_listed_ones_is_run(tmp_path):
    entered = set()

    def on_call(frame, event, arg):
        entered.add(frame.f_code)  # the global hook sees only "call" events

    previous = sys.gettrace()
    # one CPU: every share runs in this process, where the trace sees it
    with mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True):
        sys.settrace(on_call)
        try:
            run_every_subcommand(tmp_path)
        finally:
            sys.settrace(previous)
    assert {name for name, code in public_code().items() if code not in entered} == NOT_RUN
