"""The four workloads: inputs, timed steps and output checks.

Each workload builds its inputs from the seed in ``setup`` (untimed except as
``setup_s``), runs its timed steps in ``round``, and verifies one round's
outputs in ``check`` with reference.py and with properties the method must
have.  ``Run`` (run.py) launches the processes and counts operations.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference
from tracer import load_spans

# resolution r gives J = 4^(r+1) + 2 vertices
J_1K, J_16K, J_65K = 4, 6, 7

# planted spectrum, noise, nuisance similarity transforms and the asymmetry bump
# shared by every cohort
COHORT = [
    "--spectrum", "0.05,0.02,0.01",
    "--noise-sd", "0.01",
    "--nuisance-rotation", "15",
    "--nuisance-translation", "0.5",
    "--nuisance-log-scale", "0.1",
    "--asymmetry", "0.02",
]
# two groups of 30 with a 3 sd shift on mode 1; at 1.5 sd the global test misses
# p <= 0.01 on about one seed in a hundred, which is power, not a fault
SHIFT_SD = 3.0
GROUPS = ["--group-sizes", "30,30", "--shift-component", "1", "--shift-sd", str(SHIFT_SD)]
N_PERM = 500

MB = float(2**20)

# 9 significant digits per OBJ coordinate: half a unit in the 9th digit,
# relative to the largest coordinate, per file involved
OBJ_ROUNDING = 5e-9


def close_to_obj_precision(got: np.ndarray, want: np.ndarray, files: int) -> tuple[bool, float]:
    error = float(np.abs(got - want).max())
    return error <= files * OBJ_ROUNDING * float(np.abs(want).max()), error


def artifact_hashes(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory`` except manifest.json, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def read_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


class Workload:
    name = ""
    why = ""
    # set-up repetitions per untraced run; setup_s is their median.  The 16k
    # set-ups (about 9 s each) run once, to keep a full set of runs in budget.
    setups = 1

    def __init__(self, resolution: int | None = None):
        if resolution is not None:
            self.resolution = resolution

    def setup(self, run, directory: Path, traced: bool) -> None:
        raise NotImplementedError

    def round(self, run, inputs: Path, out: Path, traced: bool) -> None:
        raise NotImplementedError

    def check(self, run, inputs: Path, out: Path) -> None:
        raise NotImplementedError

    def run_rounds(self, run, inputs: Path, seconds: float, traced: bool) -> dict:
        """Repeat whole rounds until ``seconds`` of timed steps are measured.

        Traced runs make exactly two rounds, untraced then traced.  Every round
        is checked, and its artifacts (all but manifest.json) must hash the
        same as the first round's.
        """
        rounds = []
        first = None
        while True:
            k = len(rounds)
            traced_round = traced and k == 1
            out = run.work / f"round{k}"
            self.round(run, inputs, out, traced_round)
            steps = run.take_steps()
            hashes = artifact_hashes(out)
            try:
                self.check(run, inputs, out)
            except (OSError, KeyError, ValueError) as err:
                run.operation()
                run.fail(f"checks could not read the outputs: {err!r}")
            if first is None:
                first = hashes
            else:
                differing = sorted(set(first.items()) ^ set(hashes.items()))
                run.check(f"round_{k}_artifacts_equal_round_0", not differing, f"{differing[:3]}")
            rounds.append({
                "wall_s": sum(s["wall_s"] for s in steps),
                "steps": steps,
                "output_mb": sum((out / name).stat().st_size for name in hashes) / MB,
            })
            shutil.rmtree(out)
            if traced:
                if len(rounds) == 2:
                    break
            elif sum(r["wall_s"] for r in rounds) >= seconds or run.time_left() < 1.5 * rounds[-1]["wall_s"]:
                break
        return {"rounds": rounds}

    def simulate(self, run, directory: Path, traced: bool, *options: str) -> None:
        run.command(
            "simulate",
            ["simulate", "--out", str(directory), "--resolution", str(self.resolution), *COHORT, *options],
            traced,
        )


class Compare16k(Workload):
    name = "compare-16k"
    why = "the headline two-group analysis as users run it; OBJ parsing takes most of its time"
    resolution = J_16K

    def setup(self, run, directory, traced):
        self.simulate(run, directory, traced, *GROUPS, "--seed", str(run.seed))

    def round(self, run, inputs, out, traced):
        run.command(
            "compare",
            ["compare", "--meshes", str(inputs / "meshes"), "--labels", str(inputs / "labels.csv"),
             "--p", "3", "--n-perm", str(N_PERM), "--seed", str(run.seed), "--out", str(out / "compare")],
            traced,
        )

    def check(self, run, inputs, out):
        report = read_json(out / "compare" / "report.json")
        run.check("planted_shift_global_p", report["global_p"] <= 0.01, f"global p {report['global_p']}")
        run.check("planted_shift_component_1", 1 in report["significant_components"],
                  f"significant {report['significant_components']}")
        grid = [report["global_p"], *report["component_p"]]
        run.check("p_values_on_grid", all(reference.on_permutation_grid(p, N_PERM) for p in grid), f"{grid}")


class Assess16k(Workload):
    name = "assess-16k"
    why = "closest-control fit and single-patient assessment; the only workload that saves and reloads the model JSON"
    resolution = J_16K

    def setup(self, run, directory, traced):
        # 40 controls plus one shape shifted 8 sd along mode 1: the outside case
        controls = directory / "controls"
        self.simulate(run, controls, traced, "--group-sizes", "40,1", "--shift-component", "1",
                      "--shift-sd", "8", "--seed", str(run.seed))
        (controls / "meshes" / "shape_040.obj").rename(directory / "outside.obj")
        # a noise-free shape at the centre of the control population: the inside
        # case (options given after the shared cohort's override them)
        inside = directory / "inside"
        self.simulate(run, inside, traced, "--n-shapes", "1", "--spectrum", "1e-12,5e-13,2.5e-13",
                      "--noise-sd", "0", "--seed", str(run.seed + 1))
        (inside / "meshes" / "shape_000.obj").rename(directory / "inside.obj")

    def _case_options(self, inputs):
        return ["--pre", str(inputs / "inside.obj"), "--post", str(inputs / "outside.obj"),
                "--pairing", str(inputs / "controls" / "pairing.csv"),
                "--regions", str(inputs / "controls" / "regions.csv")]

    def round(self, run, inputs, out, traced):
        run.command(
            "assess",
            ["assess", "--controls", str(inputs / "controls" / "meshes"), *self._case_options(inputs),
             "--out", str(out / "controls")],
            traced,
        )
        run.command(
            "assess_model",
            ["assess", "--model", str(out / "controls" / "control_model.json"), *self._case_options(inputs),
             "--out", str(out / "model")],
            traced,
        )

    def check(self, run, inputs, out):
        doc = read_json(out / "controls" / "assessment.json")
        threshold, p = doc["chi2_threshold"], doc["p"]
        want = reference.chi2_threshold(p)
        run.check("chi2_threshold", abs(threshold - want) <= 1e-12 * want, f"{threshold!r} vs {want!r}")
        outside = doc["timepoints"]["post"]["closest_control"]
        run.check("outside_case_outside", not outside["within_component_range"] and outside["d"] > threshold,
                  f"{outside}")
        alpha1 = np.sqrt(threshold / outside["d"])
        run.check("outside_alpha1", abs(outside["alpha1"] - alpha1) <= 1e-12 * alpha1,
                  f"{outside['alpha1']!r} vs {alpha1!r}")
        inside = doc["timepoints"]["pre"]["closest_control"]
        run.check("inside_case_inside", inside["within_component_range"] and inside["within_residual_range"]
                  and inside["alpha1"] == 1.0 and inside["alpha2"] == 1.0, f"{inside}")
        case = reference.read_obj_vertices(out / "controls" / "pre_case.obj")
        closest = reference.read_obj_vertices(out / "controls" / "pre_closest_control.obj")
        ok, error = close_to_obj_precision(closest, case, files=2)
        run.check("inside_closest_control_is_case", ok, f"max error {error}")
        same = (out / "controls" / "assessment.json").read_bytes() == (out / "model" / "assessment.json").read_bytes()
        run.check("model_reload_reproduces_assessment", same, "assessment.json differs after --model")


class Stats65k(Workload):
    name = "stats-65k"
    why = "registration, FPCA, permutation tests and the control model at the largest size, with no file I/O"
    resolution = J_65K
    setups = 3

    def setup(self, run, directory, traced):
        import surfshape as ss

        if traced:
            run.recorder.install()
        config = ss.SynthConfig(
            resolution=self.resolution, eigen_spectrum=(0.05, 0.02, 0.01), noise_sd=0.01,
            nuisance_rotation_deg=15.0, nuisance_translation=0.5, nuisance_log_scale=0.1,
            asymmetry_magnitude=0.02, group_sizes=(30, 30), group_shift_component=1, group_shift_sd=SHIFT_SD,
            seed=run.seed,
        )
        sample, truth = run.call("synth_cohort", ss.synth_cohort, config)
        directory.mkdir(parents=True)
        arrays = {
            "vertices": sample.vertex_array(),
            "triangles": sample.meshes[0].triangles,
            "labels": np.asarray(sample.labels),
            "pair": truth.pairing.pair,
            "upper": truth.base_mesh.regions["upper"],
            "lower": truth.base_mesh.regions["lower"],
        }
        for key, value in arrays.items():
            np.save(directory / f"{key}.npy", value)

    def run_rounds(self, run, inputs, seconds, traced) -> dict:
        """The rounds run in statsworker.py, which reports their times, digests and checks."""
        out = run.work / "stats"
        out.mkdir()
        argv = [sys.executable, str(run.here / "statsworker.py"), str(inputs), str(out / "result.json"),
                str(run.seed), str(seconds)]
        if traced:
            argv.append(str(out / "spans.json"))
        try:
            run.process("statsworker", argv)
        except Exception as err:
            run.operation()
            run.fail(str(err))
            raise
        result = read_json(out / "result.json")
        rounds = []
        for k, record in enumerate(result["rounds"]):
            run.operation(count=len(record["steps"]))
            if k:
                run.check(f"round_{k}_digest_equals_round_0", record["digest"] == result["rounds"][0]["digest"])
            record["steps"] = [{"name": name, "wall_s": wall, "rss_mb": None} for name, wall in record["steps"].items()]
            rounds.append(record)
        for name, ok, detail in result["checks"]:
            run.check(name, ok, detail)
        reply = {"rounds": rounds, "peak_rss_mb": result["peak_rss_mb"]}
        if traced:
            reply["spans"] = [load_spans(out / "spans.json")]
        shutil.rmtree(out)
        return reply


class Cli1k(Workload):
    name = "cli-1k"
    why = "nine subcommands at small J, where interpreter start-up, import and the small writers dominate"
    resolution = J_1K
    setups = 3

    def setup(self, run, directory, traced):
        self.simulate(run, directory, traced, *GROUPS, "--seed", str(run.seed))

    def round(self, run, inputs, out, traced):
        meshes, labels = str(inputs / "meshes"), str(inputs / "labels.csv")
        pairing, regions = str(inputs / "pairing.csv"), str(inputs / "regions.csv")
        seed = str(run.seed)
        commands = [
            ["register", "--meshes", meshes, "--out", str(out / "register")],
            ["pca", "--meshes", meshes, "--out", str(out / "pca")],
            ["tour", "--model", str(out / "pca" / "model.json"), "--topology", str(out / "pca" / "mean.obj"),
             "--stops", "5", "--frames-per-leg", "9", "--seed", seed, "--out", str(out / "tour")],
            ["compare", "--mode", "group_shape_space", "--meshes", meshes, "--labels", labels, "--p", "3",
             "--n-perm", str(N_PERM), "--seed", seed, "--out", str(out / "compare")],
            ["split-affine", "--meshes", meshes, "--out", str(out / "split")],
            ["asymmetry", "--per-region-registration", "--meshes", meshes, "--pairing", pairing,
             "--regions", regions, "--out", str(out / "asymmetry")],
            ["assess", "--controls", meshes, "--pre", str(inputs / "meshes" / "shape_030.obj"),
             "--post", str(inputs / "meshes" / "shape_031.obj"), "--pairing", pairing, "--regions", regions,
             "--out", str(out / "assess")],
            ["warp", "--source", str(out / "register" / "mean.obj"), "--target",
             str(inputs / "meshes" / "shape_000.obj"), "--template", str(out / "register" / "mean.obj"),
             "--out", str(out / "warp")],
            ["diff", str(out / "register" / "mean.obj"), str(inputs / "base.obj"), "--mode", "normal",
             "--out", str(out / "diff")],
        ]
        for args in commands:
            run.command(args[0], args, traced)

    def check(self, run, inputs, out):
        warped = reference.read_obj_vertices(out / "warp" / "warped.obj")
        target = reference.read_obj_vertices(inputs / "meshes" / "shape_000.obj")
        ok, error = close_to_obj_precision(warped, target, files=2)
        run.check("warp_reproduces_target", ok, f"max error {error}")
        energy = read_json(out / "warp" / "warp.json")["bending_energy"]
        run.check("warp_bending_energy_non_negative", energy >= 0, f"{energy!r}")

        mean = reference.read_obj_vertices(out / "split" / "mean.obj")
        names = sorted(p.name for p in (inputs / "meshes").glob("*.obj"))
        worst = 0.0
        all_ok = True
        for name in names:
            parts = sum(reference.read_obj_vertices(out / "split" / part / name) for part in ("affine", "nonaffine"))
            aligned = reference.read_obj_vertices(out / "register" / "aligned" / name)
            ok, error = close_to_obj_precision(parts - mean, aligned, files=4)
            all_ok &= ok
            worst = max(worst, error)
        run.check("split_affine_sums_to_aligned", all_ok, f"max error {worst}")

        base, triangles = reference.read_obj(out / "register" / "mean.obj")
        other = reference.read_obj_vertices(inputs / "base.obj")
        want = reference.difference_fields(base, other, triangles)["normal"]
        got = np.loadtxt(out / "diff" / "difference.csv", delimiter=",", skiprows=1)[:, 1]
        error = float(np.abs(got - want).max())
        run.check("diff_matches_reference", error <= 1e-12 * max(float(np.abs(want).max()), 1e-300),
                  f"max error {error}")

        report = read_json(out / "compare" / "report.json")
        grid = [report["global_p"], *report["component_p"]]
        run.check("p_values_on_grid", all(reference.on_permutation_grid(p, N_PERM) for p in grid), f"{grid}")
        doc = read_json(out / "assess" / "assessment.json")
        want = reference.chi2_threshold(doc["p"])
        run.check("chi2_threshold", abs(doc["chi2_threshold"] - want) <= 1e-12 * want, f"{doc['chi2_threshold']!r}")
        tour = read_json(out / "tour" / "tour.json")
        frames = len(list((out / "tour").glob("tour_*.obj")))
        run.check("tour_frame_count", tour["n_frames"] == frames == 4 * 10 + 1, f"{tour['n_frames']} / {frames}")


WORKLOADS = {w.name: w for w in (Compare16k, Assess16k, Stats65k, Cli1k)}
