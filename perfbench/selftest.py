"""Quick self-test of the benchmark at the smallest synthetic size (J = 66).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload twice at J = 66 with all of its checks: untraced, and
traced (an untraced and a traced round, whose artifacts must hash the same).
Each result must be correct, fail nothing, and carry exactly the metrics
that BENCHMARK.json names, as finite numbers.  Exits 0 when all pass.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from run import run_workload
from workloads import WORKLOADS

SMALLEST_RESOLUTION = 2  # J = 4^3 + 2 = 66


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "surfshape" / "__init__.py").is_file():
        print("error: run from the root of a surfshape checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
        return 1
    problems = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            result, details = run_workload(root, name, seed=1, seconds=0.0, trace=bool(trace),
                                           resolution=SMALLEST_RESOLUTION)
            elapsed = time.perf_counter() - start
            metrics = result["metrics"]
            errors = list(details["failures"])
            if not result["correct"] or result["failed"]:
                errors.append("result not correct")
            if {k: v["unit"] for k, v in metrics.items()} != expected[trace]:
                errors.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in metrics.values()):
                errors.append("a metric is not a finite number")
            if trace == 0 and not all(v["value"] > 0 for v in metrics.values()):
                errors.append("an end-to-end metric is not positive")
            status = "FAIL" if errors else "ok"
            print(f"{status:4} {name:12} trace {trace}  attempted {result['attempted']:3}  {elapsed:5.1f} s")
            for error in errors:
                print(f"     {error}")
            problems += bool(errors)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
