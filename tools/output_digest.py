"""One sha256 per benchmark workload over its outputs at seeds 0-9.

    python3 tools/output_digest.py [--against PATH]

For every workload of ``bench/workloads.py`` the tool runs one pass
(``run_pass``) at each seed 0-9 with the biharm package in this
checkout's ``src``, and hashes the outputs in a bitwise form: every float
as its ``float.hex``, every array as its dtype, shape and raw bytes, a
raised exception as its type and message.  Two checkouts whose digests
agree gave byte-identical outputs at those seeds.  The tool only reads
``bench/workloads.py``.

With ``--against PATH`` it also hashes the checkout at PATH, by running
that checkout's own copy of this tool in a subprocess, prints both digests
on each workload's line (``same`` or ``DIFFERENT`` after them) and exits 1
if any differs or is missing on either side.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from biharm import scenario  # noqa: E402

SEEDS = 10  # every workload is hashed over seeds 0..SEEDS-1


def _workloads():
    """``WORKLOADS`` of ``bench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def canonical(x) -> str:
    """A text form of ``x`` that differs whenever a float in it differs in a bit."""
    if isinstance(x, BaseException):
        return f"{type(x).__name__}({x})"
    if dataclasses.is_dataclass(x):
        return canonical({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    if isinstance(x, np.ndarray):
        return f"array({x.dtype},{x.shape},{x.tobytes().hex()})"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return repr(x)


def digest(workload) -> str:
    h = hashlib.sha256()
    for seed in range(SEEDS):
        h.update(canonical(workload(seed).run_pass(scenario)).encode())
    return h.hexdigest()


def _digests_of(checkout: Path) -> dict[str, str]:
    """The digests printed by ``checkout``'s own copy of this tool."""
    proc = subprocess.run([sys.executable, "tools/output_digest.py"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a second checkout to compare with")
    args = parser.parse_args(argv)
    ours = {name: digest(workload) for name, workload in _workloads().items()}
    if args.against is None:
        for name, value in ours.items():
            print(f"{name} {value}")
        return 0
    theirs = _digests_of(args.against)
    for name in {**ours, **theirs}:
        a, b = ours.get(name, "missing"), theirs.get(name, "missing")
        print(f"{name} {a} {b} {'same' if a == b != 'missing' else 'DIFFERENT'}")
    return 0 if ours == theirs else 1


if __name__ == "__main__":
    sys.exit(main())
