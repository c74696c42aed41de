"""tools/output_digest.py --against: one command compares two checkouts."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a stand-in for bench/workloads.py: one workload whose pass is cheap
WORKLOADS = '''
class Tiny:
    name = "tiny"

    def __init__(self, seed):
        self.seed = seed

    def run_pass(self, scenario):
        return [scenario.JET_ORDER, SCALE * self.seed]


WORKLOADS = {"tiny": Tiny}
'''


def _checkout(path: Path, scale: float) -> Path:
    """A checkout of the tool with the stand-in workloads and this tree's src."""
    (path / "tools").mkdir(parents=True)
    (path / "bench").mkdir()
    shutil.copy(ROOT / "tools" / "output_digest.py", path / "tools")
    (path / "bench" / "workloads.py").write_text(WORKLOADS.replace("SCALE", repr(scale)))
    (path / "src").symlink_to(ROOT / "src")
    return path


def _tool(checkout: Path):
    path = checkout / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tool_against_its_own_checkout_exits_0_and_against_another_1(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts its src in front
    same = _checkout(tmp_path / "same", 0.1)
    other = _checkout(tmp_path / "other", 0.1 + 2**-56)  # the next double up
    tool = _tool(same)
    assert tool.main([]) == 0
    [line] = capsys.readouterr().out.splitlines()
    name, value = line.split()
    assert name == "tiny" and len(value) == 64
    assert tool.main(["--against", str(same)]) == 0
    assert capsys.readouterr().out.split() == [name, value, value, "same"]
    assert tool.main(["--against", str(other)]) == 1
    got = capsys.readouterr().out.split()
    assert got[:2] == [name, value] and got[2] != value and got[3] == "DIFFERENT"
