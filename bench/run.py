"""biharm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``check-catalog``, ``sweep-geodesic`` or
``convergence-fd``, see ``workloads.py``) against the public API of the
biharm package in ``src/``, single-threaded, and checks every output.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones, from a separate traced pass (see ``tracing.py``).  Lines before the
last carry the run metadata (``# meta {...}``) and every metric by name
with its unit.  Exit status: 0 when every operation passed, 1 when one
failed, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_CHUNK_S, SpeedClock
from tracing import Tracer
from workloads import DEFAULT_SEED, SWEEP_SAMPLES, WORKLOADS, operation_failures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_seed0.json"
TRACE_DIR = BENCH / "out"
THREAD_ENV = "BIHARM_THREADS"

SETUP_REPS = 21
SETUP_TIMEOUT = 60.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metadata(args, threads_env, numpy_version) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "biharm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "biharm_threads_env": threads_env,
        "biharm_threads_unset": THREAD_ENV not in os.environ,
    }


def setup_seconds(docs) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of biharm plus loading every document:
    wall times, raw and scaled to the reference host (``calibrate.py``)."""
    payload = json.dumps(docs)
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], input=payload,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        probe = json.loads(proc.stdout)
        raw.append(probe["end"] - start)
        scaled.append(raw[-1] * REF_CHUNK_S / probe["chunk"])
    return raw, scaled


def warm_up(scenario, workload):
    """Load every document and check it on a one-sample grid, so that lazy
    tables (jet spaces, product tables) are built before timing."""
    for doc in workload.documents():
        axes = [{"lo": ax.lo, "hi": ax.hi, "samples": 1, "periodic": ax.periodic}
                for ax in scenario.load_scenario(doc).immersion.domain]
        small = dict(doc, domain={"axes": axes}, checks=[{"op": "residual"}])
        scenario.run_check(scenario.load_scenario(small))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def check(self, outputs):
        for i, reasons in enumerate(operation_failures(
                self.workload, self.workload.finish(outputs), self.reference)):
            self.attempted += 1
            if reasons:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"op {i}: " + "; ".join(reasons))


def timed_passes(scenario, workload, seconds, tally):
    """Untraced passes while the next one is expected to end within
    ``seconds``, and at least two of them, each under a
    ``SpeedClock``; their raw and scaled wall times and the calibration
    chunk times."""
    raw, scaled, chunks = [], [], []
    start = time.perf_counter()
    while len(raw) < 2 or (time.perf_counter() - start) * (1 + 1 / len(raw)) <= seconds:
        with SpeedClock() as clock:
            outputs = workload.run_pass(scenario)
        raw.append(clock.raw)
        scaled.append(clock.scaled)
        chunks += clock.chunks
        tally.check(outputs)
    return raw, scaled, chunks


def jet_mul_us(jets, nvars, order=4, budget=0.25, reps=7) -> float:
    """Median cost of one dense jet product, in microseconds."""
    x = jets.Jet.constant(nvars, order, 0.1)
    for i in range(nvars):
        x = x + jets.Jet.variable(nvars, order, i, 0.1 * (i + 1)) * (1.0 + i)
    a, b = x.exp(), x.sin()  # every partial nonzero, so the kernel always runs
    start, n = time.perf_counter(), 0
    while time.perf_counter() - start < budget / reps:
        a * b
        n += 1
    per_call = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(n):
            a * b
        per_call.append((time.perf_counter() - start) / n)
    return 1e6 * statistics.median(per_call)


def run_timed(scenario, workload, args, tally) -> dict:
    setup_raw, setup = setup_seconds(workload.documents())
    warm_up(scenario, workload)
    passes_raw, passes, chunks = timed_passes(scenario, workload, args.seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'calibration':<12} chunk median {1e3 * statistics.median(chunks):.4g} ms"
          f" (reference {1e3 * REF_CHUNK_S:.4g} ms)  n {len(chunks)}")
    for name, values, unit in (("wall_s", passes, "s"), ("wall_raw_s", passes_raw, "s"),
                               ("setup_s", setup, "s"), ("setup_raw_s", setup_raw, "s")):
        q1, q3 = _quartiles(values)
        print(f"{name:<12} median {statistics.median(values):.6g} {unit}"
              f"  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
              f"  [{' '.join(f'{v:.4g}' for v in values)}]")
    print(f"{'peak_rss_mb':<12} {rss_mb:.6g} MB")
    return {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(scenario, jets, workload, args, tally) -> dict:
    """Alternate untraced and traced passes while the next pair is expected
    to end within ``seconds`` (at least one pair); the per-layer figures
    come from the last traced pass, the overhead from the two medians."""
    mul4 = jet_mul_us(jets, 4)
    mul9 = jet_mul_us(jets, 9)
    warm_up(scenario, workload)
    untraced, traced = [], []
    while not traced or (sum(untraced) + sum(traced)) * (1 + 1 / len(traced)) <= args.seconds:
        start = time.perf_counter()
        outputs = workload.run_pass(scenario)
        untraced.append(time.perf_counter() - start)
        tally.check(outputs)
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            outputs = workload.run_pass(scenario)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        tally.check(outputs)
    roots = 0
    if workload.name == "sweep-geodesic" and not isinstance(outputs[0], Exception):
        roots = len(outputs[0]["roots"])
    metrics = tracer.layer_metrics(traced[-1], SWEEP_SAMPLES, roots)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    metrics["jets.mul_4v4o_us"] = (mul4, "us")
    metrics["jets.mul_9v4o_us"] = (mul9, "us")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "fraction")
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    out.write_text(json.dumps({"meta": args.meta, "wall_s": traced[-1], **tracer.export()}))
    print(f"spans        {len(tracer)} written to {out.relative_to(ROOT)}")
    print(f"passes       {len(untraced)} untraced, median {statistics.median(untraced):.6g} s;"
          f" {len(traced)} traced, median {statistics.median(traced):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop(THREAD_ENV, None)  # the run is single-threaded
    if not (SRC / "biharm" / "__init__.py").is_file():
        print(f"biharm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import biharm.jets as jets
    import biharm.scenario as scenario

    if not Path(scenario.__file__).resolve().is_relative_to(SRC):
        print(f"biharm imported from {scenario.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args.meta = metadata(args, threads_env, numpy.__version__)
    print("# meta " + json.dumps(args.meta))
    workload = WORKLOADS[args.workload](args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    tally = Tally(workload, reference)
    if args.trace:
        metrics = run_traced(scenario, jets, workload, args, tally)
    else:
        metrics = run_timed(scenario, workload, args, tally)
    for reason in tally.reasons:
        print("FAILED " + reason)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
