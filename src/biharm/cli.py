"""Command-line interface.

Subcommands::

    biharm check CONFIG [--format document|table] [--out FILE]
    biharm sweep CONFIG --param NAME --range LO:HI:N [--objective NAME]
    biharm convergence CONFIG [--steps H1,H2,...]
    biharm catalog list

Exit codes: 0 all verdicts match the config's optional ``expect`` block
(or no expectations given), 1 an expectation failed, 2 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import catalog
from .ambient import GeometryError
from .scenario import (
    CONVERGENCE_STEPS,
    SWEEP_OBJECTIVES,
    ConfigError,
    SweepResult,
    convergence_study,
    emit_report,
    load_scenario,
    run_check,
    sweep_solve,
)


def _load(path: str):
    try:
        return load_scenario(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None


def _check_expectations(expect: dict, values: dict) -> list[str]:
    failures = []
    for key, wanted in expect.items():
        got = values.get(key)
        if isinstance(wanted, (int, float)) and not isinstance(wanted, bool):
            ok = got is not None and abs(float(got) - float(wanted)) <= 1e-9
        else:
            ok = got == wanted
        if not ok:
            failures.append(f"expected {key}={wanted!r}, got {got!r}")
    return failures


def _cmd_check(args) -> int:
    cfg = _load(args.config)
    report = run_check(cfg)
    text = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    values = {
        "verdict": report.verdict,
        **{f"checks.{name}.status": chk.get("status")
           for name, chk in report.checks.items()},
    }
    expect = dict(cfg.expect)
    failures = _check_expectations(
        {k: v for k, v in expect.items() if k in values}, values)
    for f in failures:
        print(f"EXPECT FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    try:
        lo, hi, n = args.range.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"bad --range {args.range!r}, need LO:HI:N", "sweep.range") from None
    result: SweepResult = sweep_solve(cfg, args.param, lo, hi, n, args.objective)
    doc = {
        "parameter": result.parameter,
        "objective": result.objective_name,
        "values": result.values,
        # a grid that failed in part or everywhere gives a NaN objective, written as null
        "samples": [None if math.isnan(y) else y for y in result.objective],
        "roots": result.roots,
        "discontinuities": result.discontinuities,
        "partial": result.partial,
    }
    print(json.dumps(doc, indent=2, default=float))
    expect = cfg.expect.get("sweep", {})
    failures = []
    if "roots_count" in expect and len(result.roots) != expect["roots_count"]:
        failures.append(f"expected {expect['roots_count']} roots, found {len(result.roots)}")
    if "root_near" in expect:
        target = float(expect["root_near"])
        tol = float(expect.get("root_tol", 1e-6))
        if not any(abs(r - target) <= tol for r in result.roots):
            failures.append(f"no root within {tol} of {target}")
    for f in failures:
        print(f"EXPECT FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_convergence(args) -> int:
    cfg = _load(args.config)
    try:
        steps = tuple(float(s) for s in args.steps.split(",")) if args.steps else CONVERGENCE_STEPS
    except ValueError:
        raise ConfigError(f"bad --steps {args.steps!r}, need H1,H2,...",
                          "convergence.steps") from None
    result = convergence_study(cfg, steps)
    print(json.dumps(result, indent=2, default=float))
    wanted = cfg.expect.get("convergence_order_gte")
    if wanted is not None:
        if result["min_order"] is None or result["min_order"] < float(wanted):
            print(f"EXPECT FAILED: observed order {result['min_order']} < {wanted}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_catalog(args) -> int:
    if args.what != "list":
        raise ConfigError(f"unknown catalog action {args.what!r}")
    print("ambient models:")
    for name in sorted(catalog.AMBIENTS):
        print(f"  {name}")
    print("immersions:")
    for name in sorted(catalog.IMMERSIONS):
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Verify biharmonicity of submanifolds in generalized space forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a scenario's checks over its grid")
    p.add_argument("config")
    p.add_argument("--format", choices=("document", "table"), default="document")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sweep", help="sweep one constant and locate objective roots")
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--range", required=True, help="LO:HI:N")
    p.add_argument("--objective", default="characterization_gap", choices=SWEEP_OBJECTIVES)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("convergence", help="finite-difference oracle convergence study")
    p.add_argument("config")
    p.add_argument("--steps", default=None, help="comma-separated step sizes")
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("catalog", help="inspect the built-in catalog")
    p.add_argument("what", choices=("list",))
    p.set_defaults(fn=_cmd_catalog)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"geometry error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
