"""surfshape benchmark: four workloads at pinned sizes, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

NAME is one of compare-16k, assess-16k, stats-65k, cli-1k.  The program is
run from the checkout's own ``src/``.  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.  The
line before it holds the details: per-step times, round count, machine and
settings.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import Recorder, load_spans, root_time, summarize
from workloads import MB, WORKLOADS, artifact_hashes

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; no round starts that is expected to cross this
RUN_BUDGET_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SUBCOMMANDS = ("register", "pca", "tour", "compare", "split-affine", "asymmetry", "assess", "warp", "diff")
SELF_TIMES = (
    "io.read_mesh", "io.write_mesh", "io.write_painted_mesh", "io.save_model", "io.load_model",
    "mesh.vertex_areas", "mesh.vertex_normals", "mesh.with_vertices",
    "registration.weighted_gpa", "registration.weighted_opa",
    "fpca.fit_fpca", "fpca.grand_tour",
    "groupcompare.permutation_test.tangent_pca", "groupcompare.permutation_test.group_shape_space",
    "groupcompare.affine_nonaffine_split",
    "individual.fit_control_model", "individual.asymmetry_report", "individual.assess_individual",
    "individual.integrated_assessment",
    "warp.fit_tps", "warp.apply_warp",
    "synth.synth_cohort",
)
CALLS = (
    "io.read_mesh", "io.write_mesh", "mesh.vertex_areas", "mesh.with_vertices",
    "registration.weighted_opa", "individual.asymmetry_report",
)
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    "io.read_mesh.mb_per_s": "MB/s",
    "io.write_mesh.mb_per_s": "MB/s",
    "io.model_mb": "MB",
    "registration.gpa_iterations": "count",
    "groupcompare.permutations_per_s": "1/s",
    "output_mb": "MB",
    "assess_model_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}


class OperationFailed(Exception):
    """An operation of the workload failed; the run stops and reports it."""


class Run:
    """One run of one workload: its work directory, processes, timed steps and counts.

    An operation is a CLI command, a library call or a check.
    """

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.here = HERE
        self.seed = seed
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env.pop("SURFSHAPE_THREADS", None)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.steps: list[dict] = []
        self.spans: list[list] = []
        self.recorder = Recorder()

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def operation(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} failed: {detail}")

    def take_steps(self) -> list[dict]:
        steps, self.steps = self.steps, []
        return steps

    def take_spans(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def process(self, label: str, argv: list[str]) -> dict:
        """Run one process to its end; returns its wall time and peak RSS."""
        self.work.mkdir(parents=True, exist_ok=True)
        log = self.work / f"{label}.log"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                status, usage = _wait(proc.pid, max(self.time_left() + 25.0, 1.0))
            except BaseException as err:
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                if isinstance(err, TimeoutError):
                    raise OperationFailed(f"{label}: {err}; killed") from None
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise OperationFailed(f"{label} exited with {proc.returncode}: {' | '.join(tail)}")
        return {"name": label, "wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / MB}

    def command(self, label: str, args: list[str], traced: bool) -> None:
        """Run one surfshape subcommand as users do, or under the tracer shim."""
        self.operation()
        if traced:
            spans = self.work / f"spans-{len(self.spans)}.json"
            argv = [sys.executable, str(HERE / "clishim.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "surfshape.cli", *args]
        try:
            self.steps.append(self.process(label, argv))
        except OperationFailed as err:
            self.fail(str(err))
            raise
        if traced:
            self.spans.append(load_spans(spans))
            spans.unlink()

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call in this process as a timed step."""
        self.operation()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            self.fail(f"{label} raised {type(err).__name__}: {err}")
            raise OperationFailed(label) from err
        self.steps.append({"name": label, "wall_s": time.perf_counter() - start, "rss_mb": None})
        return result


def _wait(pid: int, timeout: float):
    """os.wait4 with a deadline: the child's exit status and its own resource usage."""

    def expire(signum, frame):
        raise TimeoutError(f"process {pid} still running after {timeout:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SURFSHAPE_THREADS": os.environ.get("SURFSHAPE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def layer_metrics(setup_spans, round_spans, rounds, covered_s) -> dict[str, float]:
    """Per-layer figures of a traced run.

    Layer self times, calls and rates cover the traced set-up and the traced
    round; ``cli.*`` covers the traced round; ``output_mb`` and
    ``assess_model_s`` come from the untraced round.
    """
    layers = summarize(setup_spans + round_spans)
    cli = summarize(round_spans)

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    def rate(name):
        seconds = get(layers, name, "self_s")
        return get(layers, name, "bytes") / MB / seconds if seconds > 0 else 0.0

    untraced, traced = rounds[0], rounds[1]
    permutation_s = sum(get(layers, f"groupcompare.permutation_test.{m}", "self_s")
                        for m in ("tangent_pca", "group_shape_space"))
    permutations = sum(get(layers, f"groupcompare.permutation_test.{m}", "n_perm")
                       for m in ("tangent_pca", "group_shape_space"))
    values = {
        "cli.import_s": get(cli, "cli.import", "total_s"),
        **{f"cli.{sub}_s": get(cli, f"cli.{sub}", "total_s") for sub in SUBCOMMANDS},
        **{f"{name}.self_s": get(layers, name, "self_s") for name in SELF_TIMES},
        **{f"{name}.calls": get(layers, name, "calls") for name in CALLS},
        "io.read_mesh.mb_per_s": rate("io.read_mesh"),
        "io.write_mesh.mb_per_s": rate("io.write_mesh"),
        "io.model_mb": max(get(layers, "io.save_model", "max_bytes"), get(layers, "io.load_model", "max_bytes")) / MB,
        "registration.gpa_iterations": get(layers, "registration.weighted_gpa", "iterations"),
        "groupcompare.permutations_per_s": permutations / permutation_s if permutation_s > 0 else 0.0,
        "output_mb": untraced.get("output_mb", 0.0),
        "assess_model_s": _step_wall(untraced, "assess_model"),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.covered_share": covered_s / traced["wall_s"],
    }
    return {name: values[name] for name in PER_LAYER}


def _step_wall(round_record: dict, name: str) -> float:
    return sum(step["wall_s"] for step in round_record["steps"] if step["name"] == name)


def measure(name: str, run: Run, seconds: float, resolution: int | None) -> tuple[dict, dict]:
    """Set up, run the rounds and check; returns (metrics, details)."""
    workload = WORKLOADS[name](resolution)
    traced = run.trace
    setup_times = []
    first_inputs = None
    inputs = None
    for k in range(1 if traced else workload.setups):
        directory = run.work / f"setup{k}"
        workload.setup(run, directory, traced)
        setup_times.append(sum(step["wall_s"] for step in run.take_steps()))
        hashes = artifact_hashes(directory)
        if first_inputs is None:
            first_inputs = hashes
        else:
            run.check(f"setup_{k}_inputs_equal_setup_0", hashes == first_inputs)
            shutil.rmtree(inputs)
        inputs = directory
    setup_spans = run.take_spans() + ([run.recorder.spans] if run.recorder.spans else [])

    result = workload.run_rounds(run, inputs, seconds, traced)
    rounds = result["rounds"]
    details = {
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_s": setup_times,
        "steps_s": {
            step: statistics.median(_step_wall(r, step) for r in rounds)
            for step in dict.fromkeys(s["name"] for r in rounds for s in r["steps"])
        },
    }
    if "output_mb" in rounds[0]:
        details["output_mb"] = statistics.median(r["output_mb"] for r in rounds)
    if any(s["name"] == "assess_model" for s in rounds[0]["steps"]):
        details["assess_model_s"] = statistics.median(_step_wall(r, "assess_model") for r in rounds)

    if traced:
        round_spans = result["spans"] if "spans" in result else run.take_spans()
        covered = rounds[1]["covered_s"] if "covered_s" in rounds[1] else root_time(round_spans)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in layer_metrics(setup_spans, round_spans, rounds, covered).items()}
    else:
        if "peak_rss_mb" in result:
            peak = result["peak_rss_mb"]
        else:
            peak = statistics.median(max(s["rss_mb"] for s in r["steps"]) for r in rounds)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, details


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 resolution: int | None = None) -> tuple[dict, dict]:
    """One run of one workload; returns (result, details)."""
    run = Run(root, name, seed, trace)
    metrics, details = {}, {}
    try:
        metrics, details = measure(name, run, seconds, resolution)
    except OperationFailed:
        pass  # already counted in run.failed, with its message in run.failures
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }
    details.update(workload=name, seed=seed, trace=int(trace), failures=run.failures[:10], machine=machine())
    return result, details


def print_summary(name: str, result: dict, details: dict) -> None:
    print(f"{name}  seed {details['seed']}  trace {details['trace']}  rounds {details.get('rounds', 0)}")
    rows = dict(result["metrics"])
    for extra, unit in (("output_mb", "MB"), ("assess_model_s", "s")):
        if extra in details and extra not in rows:
            rows[extra] = {"value": details[extra], "unit": unit}
    for metric, entry in rows.items():
        print(f"  {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {str(result['correct']).lower()}")
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0, help="time to measure per run (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "surfshape" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'surfshape'} not found; run from the root of a surfshape checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, details = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, result, details)
        print(json.dumps(details))
        results[name] = result
        sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
