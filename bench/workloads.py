"""The three benchmark workloads: inputs generated from a seed, the
operations of one pass, and the checks on their outputs.

Seed 0 is the default seed.  It reproduces the scenarios of
``tests/test_acceptance.py`` exactly (criteria 6, 8/9 and 10), and its
outputs are compared against ``reference_seed0.json``.  Any other seed
shifts the phases of periodic axes and draws immersion parameters from
ranges whose verdict is known in closed form, so every seed is checked
against those closed forms.

The program under test receives only the generated scenario documents
(and, for a sweep, the range and sample count).
"""

from __future__ import annotations

import json
import math
import random

DEFAULT_SEED = 0

MINIMAL = "MinimalHenceBiharmonic"
PROPER = "ProperBiharmonic"
NOT = "NotBiharmonic"

ALL_CHECKS = ("residual", "characterization", "bound", "audit", "relations",
              "gauss", "structure", "pseudo_umbilical")

TWO_PI = 2.0 * math.pi

# Geodesic spheres of CP^2 (rho = 1) are proper biharmonic exactly at
# cot^2 r = (4 + sqrt 13) / 3.
R_STAR = math.atan(math.sqrt(3.0 / (4.0 + math.sqrt(13.0))))

# Closed-form gates (the acceptance-suite tolerances).
COHERENCE_TOL = 1e-8       # closed-form and branch residuals vs the general one
GAUSS_TOL = 1e-6           # intrinsic vs Gauss-equation scalar curvature
HYPERSURFACE_FORM_TOL = 1e-8
ROOT_TOL = 1e-8
MIN_ORDER = 1.9

# Reference gate: 1e-10 relative.  A reference value at or below ZERO_FLOOR
# in magnitude is zero in exact arithmetic; the output must then stay at or
# below ZERO_FLOOR too.  In the seed-0 outputs such values (residuals, gaps,
# relation norms) sit at 1e-18..1e-13, every other computed value is above
# 1e-6, and the smallest echoed tolerance is 1e-10.
REL_TOL = 1e-10
ZERO_FLOOR = 1e-11


def _axis(lo, hi, samples, periodic=False):
    return {"lo": lo, "hi": hi, "samples": samples, "periodic": periodic}


# Default sampling boxes of the catalog immersions that have periodic axes
# (copied from the catalog, so that a seed can shift their phases).
PERIODIC_DOMAINS = {
    "round_hypersphere": [_axis(0.5, 2.6, 2), _axis(0.5, 2.6, 2),
                          _axis(0.3, 0.3 + TWO_PI, 3, True)],
    "product_torus": [_axis(0.3, 0.3 + TWO_PI, 3, True), _axis(0.9, 0.9 + TWO_PI, 3, True)],
    "geodesic_sphere_cp2": [_axis(0.35, 1.2, 2), _axis(0.4, 0.4 + TWO_PI, 2, True),
                            _axis(1.1, 1.1 + TWO_PI, 2, True)],
    "circle": [_axis(0.2, 0.2 + TWO_PI, 4, True)],
    "small_hypersphere": [_axis(0.5, 2.6, 2), _axis(0.5, 2.6, 2), _axis(0.5, 2.6, 2),
                          _axis(0.45, 0.45 + TWO_PI, 2, True)],
    "clifford_torus_s5": [_axis(0.35, 0.35 + TWO_PI, 2, True), _axis(0.5, 2.6, 2),
                          _axis(0.5, 2.6, 2), _axis(0.8, 0.8 + TWO_PI, 2, True)],
}

# The CATALOG_SCENARIOS of the acceptance suite: ambient, immersion,
# parameters at the default seed, parameter ranges for other seeds, and the
# closed-form verdict over those ranges.  Euclidean spheres, circles,
# helices and product tori are never biharmonic; geodesic spheres of CP^2
# only at R_STAR (0.561); small hyperspheres of S^5 are proper only at
# rho = 1/sqrt 2 and minimal at rho = 1; the Clifford-type tori
# S^1(cos t) x S^3(sin t) are proper only at t = pi/4 and minimal at
# t = pi/3, so t stays in [0.85, 0.95].
CATALOG = [
    ("flat_c2", "affine_plane", None, {}, MINIMAL),
    ("flat_c2", "round_hypersphere", {"r": 1.3}, {"r": (1.0, 1.6)}, NOT),
    ("flat_c2", "product_torus", {"a": 1.0, "b": 0.6}, {"a": (0.8, 1.2), "b": (0.4, 0.8)}, NOT),
    ("flat_c2", "circle", {"r": 1.2}, {"r": (0.8, 1.6)}, NOT),
    ("flat_c2", "helix", {"a": 1.0, "b": 0.4}, {"a": (0.8, 1.2), "b": (0.3, 0.6)}, NOT),
    ("cp2", "geodesic_sphere_cp2", {"r": 0.7}, {"r": (0.65, 0.85)}, NOT),
    ("sasakian_r5", "hyperplane_y1", None, {}, MINIMAL),
    ("sasakian_r5", "graph_surface", None, {}, NOT),
    ("cosymplectic_r5", "hyperplane_y1", None, {}, MINIMAL),
    ("cosymplectic_r5", "graph_surface", None, {}, NOT),
    ("kenmotsu_hyperbolic", "hyperplane_y1", None, {}, MINIMAL),
    ("sasakian_sphere_s5", "small_hypersphere", None, {}, PROPER),
    ("sasakian_sphere_s5", "small_hypersphere", {"rho": 1.0}, {}, MINIMAL),
    ("sasakian_sphere_s5", "clifford_torus_s5", None, {}, PROPER),
    ("sasakian_sphere_s5", "clifford_torus_s5", {"theta": 0.9}, {"theta": (0.85, 0.95)}, NOT),
]

# Criterion 6: cp2 geodesic spheres over r in [0.2, 1.2], 50 samples, on a
# 4-point grid.  Other seeds shift the whole range by -0.05..+0.01: its
# width, and so the bisection depth, stays fixed, and R_STAR stays the single
# root (the objective |B|^2 - 6 has its next zero at r = 1.2229).
SWEEP_DOMAIN = [_axis(0.6, 1.0, 1), _axis(0.4, 6.6831853, 2, True),
                _axis(1.1, 7.3831853, 2, True)]
SWEEP_RANGE = (0.2, 1.2)
SWEEP_SAMPLES = 50
SWEEP_SHIFT = (-0.05, 0.01)

# Criterion 10: the FD oracle on graph_surface.  cp2 and S^5 are left out:
# there the normal Laplacian is ~0, the FD error sits at roundoff and the
# observed orders mean nothing.  Other seeds move the sampling box, and with
# it the probe point (0.0976, 0.0976 at seed 0).  The h^2 error coefficient
# changes sign near |u1| = 0.16, where these steps are not yet asymptotic
# (order 0.7..1.9), so the probe's u1 stays in [-0.09, 0.12] (order >= 1.94
# in both ambients); u2 does not change the geometry and moves by 0.3.
CONVERGENCE = [
    ("cosymplectic_r5", (0.05, 0.025, 0.0125)),
    ("sasakian_r5", (0.05, 0.025)),
]
CONVERGENCE_BOX = (-0.8, 0.8, 3)
CONVERGENCE_SHIFTS = ((-0.19, 0.02), (-0.3, 0.3))


def _shift_phases(axes, rng):
    out = []
    for ax in axes:
        ax = dict(ax)
        if ax["periodic"]:
            phase = rng.uniform(0.0, TWO_PI)
            ax["lo"] += phase
            ax["hi"] += phase
        out.append(ax)
    return out


def catalog_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    docs = []
    for ambient, immersion, params, ranges, _ in CATALOG:
        imm = {"catalog": immersion}
        doc = {"ambient": {"catalog": ambient}, "immersion": imm,
               "checks": [{"op": op} for op in ALL_CHECKS]}
        if seed != DEFAULT_SEED:
            if ranges:
                params = {k: rng.uniform(lo, hi) for k, (lo, hi) in ranges.items()}
            if immersion in PERIODIC_DOMAINS:
                doc["domain"] = {"axes": _shift_phases(PERIODIC_DOMAINS[immersion], rng)}
        if params:
            imm["params"] = dict(params)
        docs.append(doc)
    return docs


def sweep_inputs(seed: int) -> tuple[dict, float, float]:
    axes = SWEEP_DOMAIN
    lo, hi = SWEEP_RANGE
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        axes = _shift_phases(axes, rng)
        shift = rng.uniform(*SWEEP_SHIFT)
        lo, hi = lo + shift, hi + shift
    doc = {"ambient": {"catalog": "cp2"},
           "immersion": {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
           "domain": {"axes": axes}, "checks": [{"op": "residual"}]}
    return doc, lo, hi


def convergence_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    docs = []
    for ambient, _ in CONVERGENCE:
        doc = {"ambient": {"catalog": ambient}, "immersion": {"catalog": "graph_surface"}}
        if seed != DEFAULT_SEED:
            lo, hi, n = CONVERGENCE_BOX
            axes = []
            for shifts in CONVERGENCE_SHIFTS:
                s = rng.uniform(*shifts)
                axes.append(_axis(lo + s, hi + s, n))
            doc["domain"] = {"axes": axes}
        docs.append(doc)
    return docs


# -- workloads -----------------------------------------------------------------


class Workload:
    """A named set of scenario documents and the operations of one pass.

    ``run_pass`` loads every document and runs one operation per document;
    it returns one entry per operation: its output, or the exception it
    raised.  ``finish`` turns outputs into plain data, which
    ``expectation_failures`` checks after the timed region.
    """

    name: str

    def __init__(self, seed: int):
        self.seed = seed

    def documents(self) -> list[dict]:
        raise NotImplementedError

    def _operate(self, scenario, index, cfg):
        raise NotImplementedError

    def run_pass(self, scenario) -> list:
        outputs = []
        for i, doc in enumerate(self.documents()):
            try:
                outputs.append(self._operate(scenario, i, scenario.load_scenario(doc)))
            except Exception as e:  # a raising operation is a failed one
                outputs.append(e)
        return outputs

    def finish(self, outputs) -> list:
        """Turn raw pass outputs into the plain data that is checked."""
        return outputs

    def expectation_failures(self, index, out) -> list[str]:
        raise NotImplementedError


class CheckCatalog(Workload):
    name = "check-catalog"

    def documents(self):
        return catalog_docs(self.seed)

    def _operate(self, scenario, index, cfg):
        return scenario.emit_report(scenario.run_check(cfg))

    def finish(self, outputs):
        return [o if isinstance(o, Exception) else json.loads(o) for o in outputs]

    def expectation_failures(self, index, doc):
        _, immersion, _, _, verdict = CATALOG[index]
        agg, checks = doc["aggregates"], doc["checks"]
        out = []
        if agg["verdict"] != verdict:
            out.append(f"verdict {agg['verdict']} != {verdict}")
        if agg["points_failed"]:
            out.append(f"{agg['points_failed']} grid points failed")
        for key in ("max_closed_form_vs_general", "max_branch_vs_general"):
            if not agg[key] <= COHERENCE_TOL:
                out.append(f"{key} {agg[key]} > {COHERENCE_TOL}")
        gauss = checks["gauss"]
        if not gauss["max_gap"] <= GAUSS_TOL:
            out.append(f"gauss gap {gauss['max_gap']} > {GAUSS_TOL}")
        if not gauss.get("hypersurface_form_gap", 0.0) <= HYPERSURFACE_FORM_TOL:
            out.append(f"hypersurface form gap {gauss['hypersurface_form_gap']}")
        if immersion == "round_hypersphere":
            # flat hyperspheres: the normal residual is exactly 3 / r^3
            r = doc["scenario"]["immersion"]["params"]["r"]
            got = agg["max_normal_residual"]
            if not abs(got - 3.0 / r**3) <= 1e-8 * (3.0 / r**3):
                out.append(f"hypersphere residual {got} != 3/r^3 at r={r}")
        return out


class SweepGeodesic(Workload):
    name = "sweep-geodesic"

    def documents(self):
        return [sweep_inputs(self.seed)[0]]

    def _operate(self, scenario, index, cfg):
        _, lo, hi = sweep_inputs(self.seed)
        res = scenario.sweep_solve(cfg, "r", lo, hi, SWEEP_SAMPLES, "characterization_gap")
        return {"values": [float(x) for x in res.values],
                "objective": [float(y) for y in res.objective],
                "roots": [float(r) for r in res.roots]}

    def expectation_failures(self, index, out):
        roots = out["roots"]
        if len(roots) != 1:
            return [f"{len(roots)} roots, expected 1"]
        if not abs(roots[0] - R_STAR) <= ROOT_TOL:
            return [f"root {roots[0]!r} misses R* = {R_STAR!r}"]
        return []


class ConvergenceFD(Workload):
    name = "convergence-fd"

    def documents(self):
        return convergence_docs(self.seed)

    def _operate(self, scenario, index, cfg):
        return scenario.convergence_study(cfg, steps=CONVERGENCE[index][1])

    def expectation_failures(self, index, out):
        order = out["min_order"]
        if order is None or not order >= MIN_ORDER:
            return [f"min order {order} < {MIN_ORDER}"]
        return []


WORKLOADS = {w.name: w for w in (CheckCatalog, SweepGeodesic, ConvergenceFD)}


# -- correctness gate ----------------------------------------------------------


def compare(got, ref, path="") -> list[str]:
    """Mismatches of ``got`` against ``ref`` under the reference gate."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"]
        if abs(ref) <= ZERO_FLOOR:
            ok = abs(got) <= ZERO_FLOOR
        else:
            ok = abs(got - ref) <= REL_TOL * abs(ref)
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for k in ref:
            out += compare(got[k], ref[k], f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(ref):
            return [f"{path}: length differs"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, f"{path}[{i}]")
        return out
    raise TypeError(f"{path}: unexpected reference value {ref!r}")


def operation_failures(workload: Workload, outputs, reference) -> list[list[str]]:
    """Reasons each operation failed (an empty list for a passing one).

    ``reference`` is the stored list of outputs for this workload at the
    default seed, or None for any other seed.
    """
    failures = []
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failures.append([f"raised {type(out).__name__}: {out}"])
            continue
        reasons = workload.expectation_failures(i, out)
        if reference is not None:
            reasons += compare(out, reference[i], f"op{i}")[:5]
        failures.append(reasons)
    return failures
