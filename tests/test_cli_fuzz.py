"""Property tests for --config files, over all ten subcommands.

Each example takes a valid config at J = 66 and applies one mutation: an
unknown or positional key, a bad choice, int, float or boolean, a number
outside its option's range (also when a later flag replaces it), a line
without '=', or a repeated key. A run exits 0 or 2, never with a traceback; a
refused run leaves no --out and names the config file and the line; a run that
is not refused writes the artifacts of the same options given as flags.
"""
import contextlib
import io
import json
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from surfshape.cli import main  # noqa: E402

COMMANDS = ("simulate", "register", "pca", "tour", "compare", "split-affine", "asymmetry", "assess", "warp", "diff")
INTS = ("max-iter", "components", "stops", "frames-per-leg", "seed", "p", "n-perm", "resolution", "n-shapes")
FLOATS = ("tol", "bonferroni", "variance", "ridge", "spectrum", "radii", "exponent", "noise-sd", "nuisance-rotation",
          "lo", "hi", "reference")
CHOICES = ("size-constraint", "mode")
BOOLEANS = ("rigid", "per-region-registration", "standardize")
# values that no option of the kind parses: int() or float() raise on each, and none is a choice
BAD = {
    "int": ("1.5", "x", "", "2e3", "0x10", "1,2"),
    "float": ("x", "", "1e", "0x10", "--", "1..2", "nan0"),
    "choice": ("bogus", "", "Tangent_PCA", "unit area"),
    "bool": ("maybe", "2", "", "tru", "y", "enabled"),
}
# values of the right type outside each ranged option's range
COUNTS, FRACTIONS, FINITE = ("0", "-1"), ("0", "1", "nan"), ("inf", "-inf", "nan")
OUT_OF_RANGE = {
    **dict.fromkeys(("max-iter", "components", "stops", "p", "n-perm", "n-shapes"), COUNTS),
    **dict.fromkeys(("variance", "bonferroni"), FRACTIONS),
    **dict.fromkeys(("lo", "hi", "reference"), FINITE), "ridge": FINITE + ("-1",),
    "tol": ("1e-16", "0", "nan", "inf"), "frames-per-leg": ("-1",), "seed": ("-1",),
}
# the stderr of a valid run: compare's 9 permutations give p-values of at least
# 1/10, so no component can fall below its alpha of 0.04
WARNED = {"compare": "warning: no component can be flagged: the smallest p-value of 9 permutations, 1/10, "
                     "is not below the Bonferroni alpha 0.04\n"}
KIND = {**dict.fromkeys(INTS, "int"), **dict.fromkeys(FLOATS, "float"), **dict.fromkeys(CHOICES, "choice"),
        **dict.fromkeys(BOOLEANS, "bool")}
TRUE = ("true", "1", "yes", "on")


def options(root):
    """For each subcommand: its positional arguments, and its config keys with
    a valid value and another valid value for an earlier, overridden line."""
    sim, pca = root / "sim", root / "pca"
    meshes = sim / "meshes"
    cohort = {"meshes": (meshes, meshes)}
    return {
        "simulate": ((), {
            "resolution": ("2", "3"), "n-shapes": ("5", "4"), "spectrum": ("0.05,0.02", "0.04"),
            "radii": ("1,1.2,0.9", "1,1,1"), "exponent": ("1.5", "0.8"), "noise-sd": ("0.01", "0.02"),
            "nuisance-rotation": ("10", "0"), "standardize": ("yes", "no"), "seed": ("4", "5"),
        }),
        "register": ((), {
            **cohort, "max-iter": ("40", "2"), "tol": ("1e-9", "1e-6"),
            "size-constraint": ("initial_mean_area", "unit_area"), "rigid": ("true", "false"),
        }),
        "pca": ((), {**cohort, "components": ("2", "3"), "tol": ("1e-8", "1e-5"), "rigid": ("off", "on")}),
        "tour": ((), {
            "model": (pca / "model.json", pca / "model.json"), "topology": (pca / "mean.obj", sim / "base.obj"),
            "components": ("2", "1"), "stops": ("2", "3"), "frames-per-leg": ("1", "0"), "seed": ("5", "6"),
        }),
        "compare": ((), {
            **cohort, "labels": (sim / "labels.csv", sim / "labels.csv"), "p": ("2", "1"), "n-perm": ("9", "5"),
            "seed": ("2", "3"), "mode": ("group_shape_space", "tangent_pca"), "bonferroni": ("0.04", "0.01"),
            "rigid": ("0", "1"),
        }),
        "split-affine": ((), {**cohort, "max-iter": ("30", "3"), "size-constraint": ("unit_area", "initial_mean_area")}),
        "asymmetry": ((), {
            **cohort, "pairing": (sim / "pairing.csv", sim / "pairing.csv"),
            "regions": (sim / "regions.csv", sim / "regions.csv"), "rigid": ("1", "0"),
            "per-region-registration": ("yes", "no"),
        }),
        "assess": ((), {
            "controls": (meshes, meshes), "pre": (meshes / "shape_000.obj", meshes / "shape_002.obj"),
            "post": (meshes / "shape_001.obj", meshes / "shape_003.obj"),
            "pairing": (sim / "pairing.csv", sim / "pairing.csv"),
            "regions": (sim / "regions.csv", sim / "regions.csv"), "variance": ("0.9", "0.5"),
        }),
        "warp": ((), {
            "source": (pca / "mean.obj", pca / "mean.obj"), "target": (meshes / "shape_000.obj", meshes / "shape_001.obj"),
            "template": (sim / "base.obj", pca / "mean.obj"), "ridge": ("0.001", "0"),
        }),
        "diff": ((sim / "base.obj", meshes / "shape_000.obj"), {
            "mode": ("signed_euclidean", "normal"), "lo": ("0.0", "0.001"), "hi": ("0.5", "0.2"),
            "reference": ("0.001", "0.1"),
        }),
    }


def as_flags(entries):
    flags = []
    for key, value in entries.items():
        if KIND.get(key) != "bool":
            flags += [f"--{key}", str(value)]
        elif value in TRUE:
            flags.append(f"--{key}")
    return flags


def artifacts(directory):
    """Every file's bytes, with manifest.json read and its timestamp dropped."""
    files = {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}
    manifest = json.loads(files.pop("manifest.json"))
    manifest.pop("created_at")
    return files, manifest


def run(*argv):
    """main's exit code and stderr; argparse exiting instead of returning fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exit:
            pytest.fail(f"argparse exited with {exit.code}: {err.getvalue()}")
    return code, err.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The inputs, and each subcommand's run with its options as flags: its
    --out is ``<command>/out``, kept as ``<command>/flags``."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    assert run("simulate", "--resolution", "2", "--group-sizes", "4,4", "--noise-sd", "0.01", "--asymmetry", "0.02",
               "--seed", "3", "--out", root / "sim")[0] == 0
    assert run("pca", "--meshes", root / "sim" / "meshes", "--components", "2", "--out", root / "pca")[0] == 0
    specs = options(root)
    for command, (positional, entries) in specs.items():
        out = root / command / "out"
        assert run(command, *positional, *as_flags({k: v for k, (v, _) in entries.items()}), "--out", out)[0] == 0
        out.rename(root / command / "flags")
    return root, specs


def run_config(runs, command, lines, flags=()):
    """Run ``command`` with ``lines`` as its --config file, then ``flags``: the
    exit code, stderr, the config's path and the --out the run was given."""
    root, specs = runs
    config, out = root / command / "run.cfg", root / command / "out"
    config.write_text("".join(line + "\n" for line in lines))
    code, err = run(command, *specs[command][0], "--config", config, *flags, "--out", out)
    return code, err, config, out


def assert_flags_artifacts(runs, command, out):
    assert artifacts(out) == artifacts(runs[0] / command / "flags")
    shutil.rmtree(out)


@pytest.mark.parametrize("command", COMMANDS)
def test_config_gives_the_artifacts_of_flags(runs, command):
    entries = runs[1][command][1]
    lines = ["# every option of a valid run", *(f"{key} = {value}" for key, (value, _) in entries.items())]
    code, err, _, out = run_config(runs, command, lines)
    assert (code, err) == (0, WARNED.get(command, ""))
    assert_flags_artifacts(runs, command, out)


@given(st.data())
def test_mutated_config_exits_0_or_2_naming_file_and_line(runs, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    entries = runs[1][command][1]

    def line(key, value):
        return f"{key.replace('-', '_') if data.draw(st.booleans()) else key} = {value}"

    lines = [line(key, value) for key, (value, _) in entries.items()]
    owners = list(entries)  # the key of each line
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["# a comment", "", "   # indented"])))
        owners.insert(at, None)
    ranged = [key for key in entries if key in OUT_OF_RANGE]
    mutations = ["unknown", "no-equals", "bad-value", "repeated"] + (["out-of-range"] if ranged else [])
    mutation = data.draw(st.sampled_from(mutations), label="mutation")
    flag, flags = None, ()
    if mutation == "bad-value":
        key = data.draw(st.sampled_from([key for key in entries if key in KIND]))
        at = owners.index(key)
        lines[at] = line(key, data.draw(st.sampled_from(BAD[KIND[key]])))
        flag = f"--{key}"
    elif mutation == "out-of-range":  # refused by its line, even when a later flag replaces it
        key = data.draw(st.sampled_from(ranged))
        at = owners.index(key)
        lines[at] = line(key, data.draw(st.sampled_from(OUT_OF_RANGE[key])))
        flag = f"--{key}"
        if data.draw(st.booleans()):
            flags = (flag, entries[key][0])
    elif mutation == "repeated":  # an earlier line with another valid value
        key = data.draw(st.sampled_from(list(entries)))
        at = data.draw(st.integers(0, owners.index(key)))
        lines.insert(at, line(key, entries[key][1]))
    else:
        at = data.draw(st.integers(0, len(lines)))
        if mutation == "unknown":
            positional = ("base", "other") if command == "diff" else ()
            key = data.draw(st.sampled_from(["config", "help", "version", "nonsense", "out-dir", *positional,
                                             *(key[:-1] for key in entries)]))  # an abbreviation argparse would take
            lines.insert(at, line(key, "x"))
            flag = f"--{key}"
        else:
            lines.insert(at, data.draw(st.sampled_from([*entries][:1] + ["p 2", "rigid: true", "[options]"])))
    code, err, config, out = run_config(runs, command, lines, flags)
    if mutation == "repeated":  # the later line wins
        assert (code, err) == (0, WARNED.get(command, ""))
        assert_flags_artifacts(runs, command, out)
        return
    assert code == 2
    assert not out.exists()
    assert err.startswith(f"error: validation: {config}: line {at + 1}: ")
    if flag is not None:
        assert flag in err
    if mutation == "out-of-range":
        assert err.startswith(f"error: validation: {config}: line {at + 1}: {flag} must ")
