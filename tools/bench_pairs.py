"""Paired before/after runs of the benchmark, written to a BENCH_<n>.json file.

    python3 tools/bench_pairs.py BEFORE_DIR AFTER_DIR --out BENCH_2.json [--pairs 10]

BEFORE_DIR and AFTER_DIR are checkouts (for example ``git archive`` exports)
of the two commits.  Both are copied into two neutral slot directories,
``slot0`` and ``slot1`` under one temporary directory, and every run
happens in a slot, so that neither side is tied to a checkout path.  For
every workload of ``BENCHMARK.json`` it runs ``bench/run.py`` on each
side, one pair per seed 0..pairs-1 with the same seed on both sides; on
alternate pairs it swaps which side goes first and which slot holds which
side (each side runs half its pairs in either slot), then one
``--trace 1`` run per side at seed 0.  Runs are sequential, so the two
sides never share the machine.  The output keeps every run's result line,
metadata and slot, plus per-metric medians, quartiles and pair wins.
SIGTERM ends the tool as an exit does, so the slot copies are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SLOTS = ("slot0", "slot1")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``, a slot directory."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line[len("# meta "):]) for line in lines
                 if line.startswith("# meta ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "slot": checkout.name, "exit": proc.returncode, "meta": meta,
            "result": result, "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def place(base: Path, where: dict, before_slot: str) -> None:
    """Put the before side in ``before_slot`` and the after side in the
    other slot, swapping the two slot directories by renames if needed;
    ``where`` maps each side to its slot and is updated."""
    if where["before"] != before_slot:
        os.rename(base / SLOTS[0], base / "swap")
        os.rename(base / SLOTS[1], base / SLOTS[0])
        os.rename(base / "swap", base / SLOTS[1])
        where["before"], where["after"] = where["after"], where["before"]


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


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


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
    # a SystemExit unwinds the temporary directory; a bare SIGTERM would not
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        _run_pairs(args, spec, doc)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _run_pairs(args, spec: dict, doc: dict) -> None:
    """Every workload's pairs and traced runs from two slot copies, written
    to ``args.out`` after each workload."""
    with tempfile.TemporaryDirectory(prefix="bench_slots_") as tmp:
        base = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(args.before, base / SLOTS[0], ignore=ignore)
        shutil.copytree(args.after, base / SLOTS[1], ignore=ignore)
        where = {"before": SLOTS[0], "after": SLOTS[1]}
        for wl in (w["name"] for w in spec["workloads"]):
            runs = {"before": [], "after": []}
            for seed in range(args.pairs):
                swapped = seed % 2 == 1
                place(base, where, SLOTS[swapped])
                for side in ("after", "before") if swapped else ("before", "after"):
                    runs[side].append(run(base / where[side], wl, seed, spec["run_seconds"], 0))
                    print(wl, seed, side, where[side], runs[side][-1]["result"], flush=True)
            traced = {side: run(base / where[side], wl, 0, spec["run_seconds"], 1)
                      for side in ("before", "after")}
            doc["workloads"][wl] = {
                "summary": summary(runs["before"], runs["after"], spec["end_to_end"]),
                "runs": runs,
                "traced": traced,
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
