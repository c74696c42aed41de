"""One sha256 per benchmark workload over its outputs at seeds 0-9.

    python3 tools/output_digest.py

For every workload of ``bench/workloads.py`` the tool runs one pass
(``run_pass``) at each seed 0-9 with the biharm package in this
checkout's ``src``, and hashes the outputs in a bitwise form: every float
as its ``float.hex``, every array as its dtype, shape and raw bytes, a
raised exception as its type and message.  Two checkouts whose digests
agree gave byte-identical outputs at those seeds.  The tool only reads
``bench/workloads.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
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


def main() -> int:
    for name, workload in _workloads().items():
        print(f"{name} {digest(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
