"""Regenerate the catalog report pin and list every value that moved.

    python3 tools/pin_diff.py [--write]

Each line of ``tests/data/catalog_reports.jsonl`` is a report document that
carries its own scenario.  The tool runs every stored scenario through the
engine in ``src`` and compares the new document with the stored one.  It
prints every value that changed, with its path, old value, new value and
|delta|, and then checks the new documents under the benchmark's reference
gate (``compare`` of ``bench/workloads.py``: the same keys, and each value
within 1e-10 relative, or at most 1e-11 where the stored value is at most
1e-11).  It exits 1 on any key-set difference or any value outside that
gate.  With ``--write`` and no such failure it rewrites the pin file with
the new documents.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "tests" / "data" / "catalog_reports.jsonl"
sys.path.insert(0, str(ROOT / "src"))

from biharm.scenario import emit_report, load_scenario, run_check  # noqa: E402


def _compare():
    """``compare`` of ``bench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def leaves(doc, path=""):
    """(path, value) of every scalar in ``doc``, with ``compare``'s path syntax."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pin file when every document passes the gate")
    args = parser.parse_args(argv)
    compare = _compare()
    old_lines = PIN.read_text().splitlines()
    new_lines, failures, moved, docs_moved, largest = [], [], 0, 0, 0.0
    for n, line in enumerate(old_lines, 1):
        old = json.loads(line)
        scn = old["scenario"]
        label = f"{n}:{scn['ambient'].get('catalog', 'inline')}/" \
                f"{scn['immersion'].get('catalog', 'inline')}"
        new_line = emit_report(run_check(load_scenario(scn)))
        new_lines.append(new_line)
        new = json.loads(new_line)
        old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
        for path in sorted(old_leaves.keys() ^ new_leaves.keys()):
            failures.append(f"{label} {path}: only in the {'old' if path in old_leaves else 'new'}"
                            " document")
        changed = [p for p in old_leaves if p in new_leaves and old_leaves[p] != new_leaves[p]]
        for path in changed:
            a, b = old_leaves[path], new_leaves[path]
            delta = abs(b - a) if _number(a) and _number(b) else None
            largest = max(largest, delta or 0.0)
            print(f"{label} {path}  old {a!r}  new {b!r}  |delta| "
                  f"{'-' if delta is None else f'{delta:.3g}'}")
        moved += len(changed)
        docs_moved += bool(changed)
        failures += [f"{label} {reason}" for reason in compare(new, old)]
    print(f"# {moved} values moved in {docs_moved} of {len(old_lines)} documents, "
          f"largest |delta| {largest:.3g}")
    for reason in failures:
        print(f"FAIL {reason}")
    if failures:
        return 1
    if args.write and new_lines != old_lines:
        PIN.write_text("".join(line + "\n" for line in new_lines))
        print(f"# wrote {PIN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
