import ast
import os
import subprocess
import sys
from pathlib import Path

import surfshape as ss


def test_star_import_exports_every_public_name():
    namespace: dict = {}
    exec("from surfshape import *", namespace)
    assert set(ss.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(ss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, surfshape.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# Any scipy import raises ImportError in this process, so every step below
# must run on numpy and the standard library alone. The probe runs with
# -W error::RuntimeWarning: a divide or invalid-value warning in a normal run
# is a failure.
SCIPY_FREE_PROBE = """
import sys
sys.modules["scipy"] = None
from pathlib import Path

import numpy as np

from surfshape import apply_warp, chi_square_quantile, fit_tps
from surfshape.cli import main

out = Path(sys.argv[1])
x = np.random.default_rng(0).standard_normal((20, 3))
field = fit_tps(x, 2.0 * x + 1.0)
assert np.allclose(apply_warp(field, x), 2.0 * x + 1.0)
assert abs(chi_square_quantile(9) - 16.918977604620448) < 1e-12
sim = out / "sim"
assert main(["simulate", "--resolution", "2", "--group-sizes", "6,6", "--asymmetry", "0.02",
             "--noise-sd", "0.01", "--seed", "3", "--out", str(sim)]) == 0
assert main(["register", "--meshes", str(sim / "meshes"), "--out", str(out / "register")]) == 0
assert main(["pca", "--meshes", str(sim / "meshes"), "--out", str(out / "pca")]) == 0
assert main(["tour", "--model", str(out / "pca" / "model.json"), "--topology", str(sim / "base.obj"),
             "--seed", "1", "--out", str(out / "tour")]) == 0
assert main(["compare", "--meshes", str(sim / "meshes"), "--labels", str(sim / "labels.csv"), "--p", "2",
             "--n-perm", "20", "--seed", "1", "--out", str(out / "compare")]) == 0
assert main(["compare", "--meshes", str(sim / "meshes"), "--labels", str(sim / "labels.csv"), "--p", "2",
             "--n-perm", "20", "--seed", "1", "--mode", "group_shape_space", "--out", str(out / "compare-gss")]) == 0
assert main(["split-affine", "--meshes", str(sim / "meshes"), "--out", str(out / "split-affine")]) == 0
assert main(["asymmetry", "--meshes", str(sim / "meshes"), "--pairing", str(sim / "pairing.csv"),
             "--regions", str(sim / "regions.csv"), "--out", str(out / "asymmetry")]) == 0
assert main(["warp", "--source", str(sim / "base.obj"), "--target", str(sim / "meshes" / "shape_000.obj"),
             "--template", str(sim / "base.obj"), "--out", str(out / "warp")]) == 0
assert main(["assess", "--controls", str(sim / "meshes"), "--pre", str(sim / "meshes" / "shape_000.obj"),
             "--post", str(sim / "meshes" / "shape_001.obj"), "--pairing", str(sim / "pairing.csv"),
             "--regions", str(sim / "regions.csv"), "--out", str(out / "assess")]) == 0
assert main(["assess", "--model", str(out / "assess" / "control_model.json"),
             "--pre", str(sim / "meshes" / "shape_000.obj"), "--post", str(sim / "meshes" / "shape_001.obj"),
             "--pairing", str(sim / "pairing.csv"), "--regions", str(sim / "regions.csv"),
             "--out", str(out / "assess-model")]) == 0
assert main(["diff", str(sim / "base.obj"), str(sim / "meshes" / "shape_000.obj"), "--out", str(out / "diff")]) == 0
assert main(["simulate", "--resolution", "2", "--exponent", "0.6", "--out", str(out / "superellipsoid")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None))
"""


def test_runtime_runs_with_scipy_blocked(tmp_path):
    src = str(Path(ss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SCIPY_FREE_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
    runs = ("register", "pca", "tour", "compare", "compare-gss", "split-affine", "asymmetry", "warp", "assess",
            "assess-model", "diff", "superellipsoid")
    for run in runs:
        assert (tmp_path / run / "manifest.json").is_file()
    assert (tmp_path / "warp" / "warped.obj").is_file()
    # the saved control model assesses the same
    assessment = (tmp_path / "assess" / "assessment.json").read_bytes()
    assert (tmp_path / "assess-model" / "assessment.json").read_bytes() == assessment


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(ss.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []
