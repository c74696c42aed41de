"""Regenerate ``reference_seed0.json``: the outputs of every workload at the
default seed, against which ``run.py`` gates later code at 1e-10 relative.

    python3 bench/make_reference.py

Regenerate only when a change of results is intended and explained; a
speed change must pass against the existing file.
"""

import json
import sys

from run import REFERENCE, SRC
from workloads import DEFAULT_SEED, WORKLOADS, operation_failures

sys.path.insert(0, str(SRC))
import biharm.scenario as scenario  # noqa: E402

reference = {}
for name, cls in WORKLOADS.items():
    workload = cls(DEFAULT_SEED)
    outputs = workload.finish(workload.run_pass(scenario))
    failures = [r for r in operation_failures(workload, outputs, None) if r]
    if failures:
        sys.exit(f"{name}: closed-form expectations failed: {failures}")
    reference[name] = outputs
REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
print(f"wrote {REFERENCE}")
