"""Timed part of the stats-65k workload: library calls on an in-memory cohort.

Usage: python3 perfbench/statsworker.py COHORT_DIR RESULT_JSON SEED SECONDS [SPANS_JSON]

Runs in its own process so that its peak RSS is that of the timed calls
alone.  Loading the cohort comes before the timing; the timed calls read
and write no file.  Rounds repeat until SECONDS have been measured, at
least one.  With SPANS_JSON, exactly two rounds run: one
untraced, then one with the tracer installed, and the spans are written out.
The checks run once, after the last round, on that round's outputs; each
earlier round must have produced the same output digest.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

import reference
from tracer import Recorder, root_time

N_PERM = 1000
P = 3


def load_inputs(directory):
    from surfshape import BilateralPairing, ShapeSample, SurfaceMesh

    data = {key: np.load(f"{directory}/{key}.npy") for key in ("vertices", "triangles", "labels", "pair", "upper", "lower")}
    meshes = tuple(SurfaceMesh(v, data["triangles"]) for v in data["vertices"])
    labels = tuple(str(label) for label in data["labels"])
    regions = {"upper": data["upper"], "lower": data["lower"]}
    return ShapeSample(meshes, labels=labels), BilateralPairing(data["pair"]), regions


def timed_round(ss, sample, pairing, regions, seed):
    """The workload's calls in order; returns (step seconds, outputs)."""
    steps: dict[str, float] = {}
    out: dict = {}

    def step(name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        steps[name] = time.perf_counter() - start
        return result

    in_a = np.asarray(sample.labels) == "A"
    out["gpa"] = gpa = step("weighted_gpa", ss.weighted_gpa, sample)
    out["tangent"] = tangent = step("tangent_coordinates", ss.tangent_coordinates, gpa.aligned, gpa.mean)
    out["model"] = step("fit_fpca", ss.fit_fpca, tangent, gpa.mean_weights, k=0.8, mean_shape=gpa.mean)
    for mode in ("tangent_pca", "group_shape_space"):
        out[mode] = step(
            f"permutation_test.{mode}",
            ss.permutation_test,
            tangent,
            sample.labels,
            p=P,
            weights=gpa.mean_weights,
            n_perm=N_PERM,
            seed=seed,
            mode=mode,
            threads=2,
        )
    controls = ss.ShapeSample(tuple(m for m, a in zip(sample.meshes, in_a) if a))
    out["control"] = step(
        "fit_control_model", ss.fit_control_model, controls, pairing=pairing, regions=regions
    )
    cases = [m for m, a in zip(sample.meshes, in_a) if not a][:2]
    out["assessment"] = step(
        "integrated_assessment", ss.integrated_assessment, out["control"], cases[0], cases[1], pairing, regions
    )
    return steps, out


def digest(out) -> str:
    """sha256 over every numeric output of a round, to compare repetitions."""
    h = hashlib.sha256()
    gpa, model, control = out["gpa"], out["model"], out["control"]
    arrays = [gpa.mean, gpa.aligned, gpa.objective_trace, out["tangent"], model.eigenfunctions, model.eigenvalues]
    for mode in ("tangent_pca", "group_shape_space"):
        report = out[mode]
        arrays += [report.component_stats, report.component_p, report.permuted_global, report.permuted_components]
        h.update(repr((report.global_stat, report.global_p, report.significant)).encode())
    arrays += [control.fpca.eigenfunctions, control.nu, control.control_d, control.control_r]
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(json.dumps(out["assessment"].document, sort_keys=True).encode())
    return h.hexdigest()


def checks(out, sample, triangles) -> list[tuple[str, bool, str]]:
    """Correctness of one round's outputs against reference.py and method properties."""
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    gpa, model = out["gpa"], out["model"]
    weights = reference.vertex_weights(gpa.mean, triangles)
    area = reference.triangle_areas(gpa.mean, triangles).sum()
    check("gpa_mean_unit_area", abs(area - 1.0) <= 1e-9, f"area {area!r}")
    # zero up to GPA's convergence: the final mean's own weights differ slightly
    # from those of the last iteration, which anchored the translation
    centroid = reference.weighted_centroid(gpa.mean, weights)
    check("gpa_mean_centred", np.abs(centroid).max() <= 1e-7 * np.abs(gpa.mean).max(), f"centroid {centroid}")

    e = model.eigenfunctions
    gram = e @ (reference.stacked(weights) * e).T
    check("fpca_orthonormal", np.abs(gram - np.eye(len(e))).max() <= 1e-8, f"gram {gram.tolist()}")
    lam = model.eigenvalues
    check("fpca_eigenvalues_non_increasing", np.all(np.diff(lam) <= 0), f"eigenvalues {lam}")
    ref_lam, _, ref_scores = reference.weighted_pca(out["tangent"], weights)
    check(
        "fpca_eigenvalues_match_reference",
        np.allclose(lam, ref_lam[: lam.size], rtol=1e-8, atol=0),
        f"{lam} vs {ref_lam[: lam.size]}",
    )

    in_a = np.asarray(sample.labels) == "A"
    expected = {
        "tangent_pca": np.sqrt(reference.hotelling_t2(ref_scores[:, :P], in_a) / P),
        "group_shape_space": np.sqrt(
            reference.hotelling_t2(reference.within_group_scores(out["tangent"], weights, in_a, P), in_a) / P
        ),
    }
    for mode, want in expected.items():
        report = out[mode]
        got = report.global_stat
        check(f"{mode}_statistic_matches_hotelling", abs(got - want) <= 1e-8 * want, f"{got!r} vs {want!r}")
        grid = [report.global_p, *report.component_p]
        check(f"{mode}_p_on_grid", all(reference.on_permutation_grid(p, N_PERM) for p in grid), f"{grid}")

    control = out["control"]
    want = reference.chi2_threshold(control.p)
    check("chi2_threshold", abs(control.chi2_threshold - want) <= 1e-12 * want, f"{control.chi2_threshold!r}")
    for name, entry in out["assessment"].document["timepoints"].items():
        cc = entry["closest_control"]
        alpha1 = 1.0 if cc["d"] <= control.chi2_threshold else np.sqrt(control.chi2_threshold / cc["d"])
        check(f"{name}_alpha1", abs(cc["alpha1"] - alpha1) <= 1e-12, f"{cc['alpha1']!r} vs {alpha1!r}")
    return results


def main() -> int:
    cohort_path, result_path, seed, seconds = sys.argv[1:5]
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None
    seed, seconds = int(seed), float(seconds)

    import surfshape as ss

    sample, pairing, regions = load_inputs(cohort_path)
    triangles = sample.meshes[0].triangles
    recorder = Recorder()
    rounds = []
    measured = 0.0
    while True:
        traced = spans_path is not None and len(rounds) == 1
        if traced:
            recorder.install()
        out = None  # release the previous round's outputs before the next round
        start = time.perf_counter()
        steps, out = timed_round(ss, sample, pairing, regions, seed)
        wall = time.perf_counter() - start
        measured += wall
        rounds.append({"wall_s": wall, "steps": steps, "digest": digest(out)})
        if traced:
            rounds[-1]["covered_s"] = root_time([recorder.spans])
        if spans_path is not None:
            if len(rounds) == 2:
                break
        elif measured >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans_path is not None:
        recorder.dump(spans_path)
    result = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks(out, sample, triangles),
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
