"""Golden guard at J = 66: the key numbers of the library pipeline, pinned.

The oracle-based tests allow drift within their tolerances; this file catches
drift in the numbers a user reads. ``tests/golden_j66.json`` holds the FPCA
eigenvalues, both permutation modes' observed statistics and p-values, the
control model's chi-square threshold and the closest-control assessment of
two cases. Floats must agree to rtol 1e-9; p-values, significant components
and the ``within_*`` flags must agree exactly.

Regenerating the file (``python tests/test_golden.py --write``) is a change
to a check and needs a CHANGES.md entry that says why.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import surfshape as ss

GOLDEN = Path(__file__).with_name("golden_j66.json")
RTOL = 1e-9
P = 3
N_PERM = 199


def golden_numbers() -> dict:
    config = ss.SynthConfig(
        resolution=2, eigen_spectrum=(0.05, 0.02, 0.01), noise_sd=0.01,
        nuisance_rotation_deg=15.0, nuisance_translation=0.5, nuisance_log_scale=0.1,
        asymmetry_magnitude=0.02, group_sizes=(30, 30), group_shift_component=1, group_shift_sd=1.0,
        seed=1,
    )
    sample, truth = ss.synth_cohort(config)
    gpa = ss.weighted_gpa(sample)
    tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
    model = ss.fit_fpca(tangent, gpa.mean_weights, k=0.8, mean_shape=gpa.mean)
    out = {"gpa_iterations": int(gpa.iterations), "fpca_eigenvalues": model.eigenvalues.tolist()}
    for mode in ("tangent_pca", "group_shape_space"):
        report = ss.permutation_test(
            tangent, sample.labels, p=P, weights=gpa.mean_weights, n_perm=N_PERM, seed=2, mode=mode
        )
        out[mode] = {
            "global_stat": report.global_stat,
            "component_stats": report.component_stats.tolist(),
            "global_p": report.global_p,
            "component_p": report.component_p.tolist(),
            "significant": list(report.significant),
        }
    in_a = np.asarray(sample.labels) == "A"
    controls = ss.ShapeSample(tuple(m for m, a in zip(sample.meshes, in_a) if a))
    regions = truth.base_mesh.regions
    control = ss.fit_control_model(controls, pairing=truth.pairing, regions=regions)
    cases = [m for m, a in zip(sample.meshes, in_a) if not a][:2]
    document = ss.integrated_assessment(control, cases[0], cases[1], truth.pairing, regions).document
    out["chi2_threshold"] = control.chi2_threshold
    out["assessment"] = {name: entry["closest_control"] for name, entry in document["timepoints"].items()}
    return out


def compare(got, want, path="golden"):
    """Floats to RTOL; ints, bools, strings and p-values exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not path.split(".")[-1].startswith(("global_p", "component_p")):
        assert got == pytest.approx(want, rel=RTOL, abs=0), path
    else:
        assert type(got) is type(want) and got == want, path


def test_key_numbers_match_the_golden_file():
    compare(golden_numbers(), json.loads(GOLDEN.read_text()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(golden_numbers(), indent=1) + "\n")
