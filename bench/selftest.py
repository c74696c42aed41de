"""Self-test of the benchmark.

    python3 bench/selftest.py

1. A minimal run (one pass) of every workload, untraced and traced, exits 0
   and prints exactly the metrics that BENCHMARK.json names, each with its
   unit.
2. A second traced run of the same workload and seed repeats every work
   count exactly.
3. The reference gate catches a deliberately corrupted reference value:
   failed_frac becomes greater than 0.

Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, REFERENCE, ROOT, SRC, Tally
from workloads import DEFAULT_SEED, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("jets.products", "jets.kernel_products", "exprs.evals",
          "ambient.metric_at.per_sample", "ambient.curvature_parts.per_sample",
          "ambient.coefficients_at.per_sample", "ambient.christoffel_point.calls",
          "submanifold.point_geometry.calls", "scenario.samples", "scenario.loads",
          "scenario.sweep.objective_evals", "scenario.convergence.geometry_calls")


def run(workload, trace, seed=DEFAULT_SEED) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


def check_metrics(metrics, group):
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, (group, set(got) ^ set(want))
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), (name, m)


def main():
    for name in WORKLOADS:
        check_metrics(run(name, 0), "end_to_end")
        traced = run(name, 1)
        check_metrics(traced, "per_layer")
        print(f"ok   {name}: every metric printed with its unit")
        if name == "convergence-fd":
            again = run(name, 1)
            for key in COUNTS:
                assert traced[key]["value"] == again[key]["value"], key
            print(f"ok   {name}: work counts repeat exactly")

    sys.path.insert(0, str(SRC))
    import biharm.scenario as scenario

    workload = WORKLOADS["convergence-fd"](DEFAULT_SEED)
    outputs = workload.run_pass(scenario)
    reference = json.loads(REFERENCE.read_text())[workload.name]
    tally = Tally(workload, reference)
    tally.check(outputs)
    assert tally.failed == 0, tally.reasons
    reference[0]["errors"][1] *= 1.0 + 1e-9  # ten times the gate's tolerance
    tally = Tally(workload, reference)
    tally.check(outputs)
    assert tally.failed / tally.attempted > 0.0, tally.reasons
    print(f"ok   corrupted reference: failed_frac {tally.failed / tally.attempted:g}"
          f" ({tally.reasons[0]})")


if __name__ == "__main__":
    main()
