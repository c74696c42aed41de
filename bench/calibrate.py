"""Host-speed calibration of the end-to-end timings.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and the same pass then takes a different wall time.  To
keep ``wall_s`` and ``setup_s`` comparable across runs, the benchmark times
a fixed calibration chunk next to the work and scales the work's wall time
by ``REF_CHUNK_S / chunk time``: the result is the wall time the work would
take on a host where one chunk takes ``REF_CHUNK_S``.  A pass runs a chunk
every ``INTERVAL_S`` (``SpeedClock``); a set-up probe runs chunks right
after its set-up, in the same process (``setup_probe.py``).

The chunk uses no biharm code, so a change to biharm never moves it.  Its
mix (a gather-multiply-``bincount`` over a few thousand doubles and a small
Python dictionary loop) mirrors the jet product kernel and the interpreted
code around it; of the kernels tried it tracked the passes' drift best.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_CHUNK_S = 3.3e-3   # one chunk on the reference host (2-vCPU VM, median)
INTERVAL_S = 0.05      # wall time between chunks inside a timed block
CHUNK_REPS = 30

_rng = np.random.default_rng(0)
_A, _B, _W = _rng.random(1200), _rng.random(1200), _rng.random(6000)
_IA, _IB = _rng.integers(0, 1200, 6000), _rng.integers(0, 1200, 6000)
_OUT = np.sort(_rng.integers(0, 1200, 6000))


def chunk() -> float:
    """Run the calibration chunk once; its wall time in seconds."""
    start = time.perf_counter()
    s = 0.0
    for _ in range(CHUNK_REPS):
        s += float(np.bincount(_OUT, weights=_A[_IA] * _B[_IB] * _W, minlength=1200)[3])
        d = {}
        for i in range(300):
            d[i & 31] = d.get(i & 31, 0.0) + i * 0.5
        s += sum(d.values())
    return time.perf_counter() - start


class SpeedClock:
    """Time a block of code in reference-host seconds.

    Inside the block a timer signal runs one chunk every ``INTERVAL_S``; a
    chunk also runs on entry and on exit.  Each stretch of the block's own
    time between two chunks is scaled by the mean speed of those two chunks,
    and the chunks' time is left out.  After the block, ``raw`` is the
    block's own wall time, ``scaled`` the reference-host time and ``chunks``
    the chunk times.
    """

    def __enter__(self):
        self.segments: list[float] = []
        self.chunks = [chunk()]
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self.segments.append(time.perf_counter() - self._mark)
        self.chunks.append(chunk())
        self._mark = time.perf_counter()
        self._busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.segments.append(time.perf_counter() - self._mark)
        signal.signal(signal.SIGALRM, self._previous)
        self.chunks.append(chunk())
        self.raw = sum(self.segments)
        self.scaled = sum(
            seg * REF_CHUNK_S / ((c0 + c1) / 2.0)
            for seg, c0, c1 in zip(self.segments, self.chunks, self.chunks[1:]))
        return False
