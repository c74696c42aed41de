"""Set-up probe, run in a fresh interpreter by ``run.py`` to time ``setup_s``.

Reads a JSON list of scenario documents from stdin, imports biharm from the
checkout's ``src`` and loads (validates and parses) every document.  It then
prints one JSON object: ``end``, the system-wide monotonic clock when the
last document was loaded (the parent reads the same clock before it starts
this interpreter), and ``chunk``, the median calibration chunk time measured
afterwards in this process, on the core that did the set-up.
"""

import json
import statistics
import sys
import time
from pathlib import Path

docs = json.load(sys.stdin)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import biharm.scenario  # noqa: E402

for doc in docs:
    biharm.scenario.load_scenario(doc)
end = time.clock_gettime(time.CLOCK_MONOTONIC)

import calibrate  # noqa: E402

calibrate.chunk()  # the first call pays numpy's one-time costs
print(json.dumps({"end": end, "chunk": statistics.median(calibrate.chunk() for _ in range(9))}))
