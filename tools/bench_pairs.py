"""Paired before/after runs of the benchmark, written to a BENCH_<n>.json file.

    python3 tools/bench_pairs.py BEFORE_DIR AFTER_DIR --out BENCH_2.json [--pairs 10]

BEFORE_DIR and AFTER_DIR are checkouts (for example ``git archive`` exports)
of the two commits.  For every workload of ``BENCHMARK.json`` it runs
``bench/run.py`` in each checkout, one pair per seed 0..pairs-1 with the
same seed on both sides, alternating which side goes first, then one
``--trace 1`` run per side at seed 0.  Runs are sequential, so the two
sides never share the machine.  The output keeps every run's result line
and metadata, plus per-metric medians, quartiles and pair wins.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line[len("# meta "):]) for line in lines
                 if line.startswith("# meta ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": proc.returncode, "meta": meta, "result": result,
            "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def summary(before: list[dict], after: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name = spec["name"]
        b = [r["result"]["metrics"][name]["value"] for r in before]
        a = [r["result"]["metrics"][name]["value"] for r in after]
        q = statistics.quantiles(b, n=4)
        lower = spec["better"] == "lower"
        out[name] = {
            "unit": spec["unit"],
            "before_median": statistics.median(b),
            "before_q1": q[0],
            "before_q3": q[2],
            "after_median": statistics.median(a),
            "after_q1": statistics.quantiles(a, n=4)[0],
            "after_q3": statistics.quantiles(a, n=4)[2],
            "change": statistics.median(a) / statistics.median(b) - 1.0,
            "pairs_won": sum((x < y) if lower else (x > y) for x, y in zip(a, b)),
            "pairs": len(a),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    doc = {"machine": {"python": platform.python_version(), "platform": platform.platform()},
           "command": spec["command"], "seconds": spec["run_seconds"], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {"before": [], "after": []}
        for seed in range(args.pairs):
            order = ("before", "after") if seed % 2 == 0 else ("after", "before")
            for side in order:
                checkout = args.before if side == "before" else args.after
                runs[side].append(run(checkout, wl, seed, spec["run_seconds"], 0))
                print(wl, seed, side, runs[side][-1]["result"], flush=True)
        traced = {side: run(args.before if side == "before" else args.after, wl, 0,
                            spec["run_seconds"], 1) for side in ("before", "after")}
        doc["workloads"][wl] = {
            "summary": summary(runs["before"], runs["after"], spec["end_to_end"]),
            "runs": runs,
            "traced": traced,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
