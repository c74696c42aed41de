"""tools/bench_pairs.py: a SIGTERM part-way leaves no slot copies behind."""

import importlib.util
import json
import os
import signal
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sigterm_removes_the_slot_copies_and_restores_the_handler(tmp_path, monkeypatch):
    bench_pairs = _tool()
    slots = tmp_path / "tmp"
    slots.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(slots))
    spec = {"command": ["python3", "bench/run.py"], "run_seconds": 1,
            "workloads": [{"name": "check-catalog"}], "end_to_end": []}
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    seen = []

    def run(checkout, *args):
        seen.extend(path.name for path in slots.iterdir())
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not end the run")

    monkeypatch.setattr(bench_pairs, "run", run)
    previous = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main([str(tmp_path / "before"), str(tmp_path / "after"),
                          "--out", str(tmp_path / "BENCH.json")])
    assert stopped.value.code == 128 + signal.SIGTERM
    assert seen and all(name.startswith("bench_slots_") for name in seen)
    assert list(slots.iterdir()) == []
    assert signal.getsignal(signal.SIGTERM) is previous
