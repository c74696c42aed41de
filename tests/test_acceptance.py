"""Acceptance suite.

Each test is one acceptance criterion, pinned at its stated tolerance and
runtime budget, and prints a single pass/fail line (run ``pytest -s`` to see
them).  Expected values come from closed-form oracles computed in place:
hypersphere and product-sphere principal curvatures, the geodesic-sphere
radius solving 2 cot^2 r + 4 cot^2 2r = 6, and the constant
K(m, c) = m f1 - f2 + 3 f3 of the classical contact space forms.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from biharm import catalog
from biharm.scenario import load_scenario, run_check, sweep_solve, convergence_study
from biharm.structure import decompose, verify_relations
from biharm.ambient import PointAmbient, curvature_parts, metric_at, structure_at
from biharm.submanifold import point_geometry
from conftest import random_orthonormal_frames, reeb_tangent_hypersurface_identities


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({elapsed:.1f}s < {budget_seconds}s)")
    assert elapsed < budget_seconds


def _scenario(ambient, immersion, checks=({"op": "residual"},), **extra):
    doc = {"ambient": ambient, "immersion": immersion, "checks": list(checks)}
    doc.update(extra)
    return load_scenario(json.dumps(doc))


GEODESIC_SWEEP_DOMAIN = {"axes": [
    {"lo": 0.6, "hi": 1.0, "samples": 1},
    {"lo": 0.4, "hi": 6.6831853, "samples": 2, "periodic": True},
    {"lo": 1.1, "hi": 7.3831853, "samples": 2, "periodic": True},
]}

R_STAR = math.atan(math.sqrt(3.0 / (4.0 + math.sqrt(13.0))))


def test_criterion_1_structure_relations():
    with criterion(1, "structure relations", 5.0):
        rng = np.random.RandomState(101)
        complex_points = {
            "flat_c2": (0.2, -0.3, 0.5, 0.1),
            "cp2": (0.3, 0.1, -0.2, 0.4),
            "synthetic_complex": (0.0, 0.0, 0.0, 0.0),
        }
        for name, x in complex_points.items():
            space = catalog.ambient(name)
            for _ in range(100):
                m = int(rng.randint(1, 4))
                tf, nf = random_orthonormal_frames(space, x, m, rng)
                rel = verify_relations(decompose(PointAmbient(space, x), tf, nf))
                assert max(rel.values()) <= 1e-10, (name, rel)
        contact_points = {
            "sasakian_r5": (0.3, -0.2, 0.4, 0.1, 0.5),
            "cosymplectic_r5": (0.1, 0.2, -0.4, 0.3, 0.6),
            "kenmotsu_hyperbolic": (0.2, 0.1, -0.1, 0.3, 0.2),
        }
        for name, x in contact_points.items():
            space = catalog.ambient(name)
            for _ in range(100):
                m = int(rng.randint(1, 5))
                tf, nf = random_orthonormal_frames(space, x, m, rng)
                rel = verify_relations(decompose(PointAmbient(space, x), tf, nf))
                assert max(rel.values()) <= 1e-10, (name, rel)
        s5 = catalog.ambient("sasakian_sphere_s5")
        p = rng.randn(6)
        p /= np.linalg.norm(p)
        for _ in range(100):
            tf, nf = random_orthonormal_frames(s5, p, int(rng.randint(1, 5)), rng)
            rel = verify_relations(decompose(PointAmbient(s5, p), tf, nf))
            assert max(rel.values()) <= 1e-10


def test_criterion_2_reeb_tangent_hypersurface_identities():
    with criterion(2, "xi-tangent hypersurface identities", 5.0):
        space = catalog.ambient("sasakian_r5")
        imm = catalog.immersion("hyperplane_y1", space)
        rng = np.random.RandomState(7)
        for _ in range(50):
            u = rng.uniform(-0.8, 0.8, 4)
            pg = point_geometry(space, imm, tuple(u), order=2)
            ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
            assert np.linalg.norm(ops.xi_nor) <= 1e-12  # xi tangent here
            pt, nt = reeb_tangent_hypersurface_identities(ops)
            assert pt <= 1e-9 and nt <= 1e-9


def test_criterion_3_trace_identities():
    with criterion(3, "curvature trace identities", 5.0):
        rng = np.random.RandomState(31)
        # complex: sum_i R_complex(X_i, H) X_i = 3 jl H + 3 kl H
        flat = catalog.ambient("cp2")
        x = (0.2, -0.1, 0.3, 0.4)
        for _ in range(50):
            m = int(rng.randint(1, 4))
            tf, nf = random_orthonormal_frames(flat, x, m, rng)
            ops = decompose(PointAmbient(flat, x), tf, nf)
            hn = rng.randn(4 - m)
            H = hn @ nf
            trace = np.zeros(4)
            for X in tf:
                trace += curvature_parts(flat, x, X, H, X)["complex"]
            lH = ops.nt @ hn
            expected = 3.0 * (ops.tt @ lH) @ tf + 3.0 * (ops.tn @ lH) @ nf
            assert np.abs(trace - expected).max() <= 1e-10
        # contact: the full coefficient-weighted trace display
        sr5 = catalog.ambient("sasakian_r5")
        x = (0.3, -0.2, 0.4, 0.1, 0.5)
        g = metric_at(sr5, x)
        _, xi = structure_at(sr5, x)
        for _ in range(50):
            m = int(rng.randint(1, 5))
            f1, f2, f3 = rng.uniform(-2, 2, 3)
            tf, nf = random_orthonormal_frames(sr5, x, m, rng)
            ops = decompose(PointAmbient(sr5, x), tf, nf)
            hn = rng.randn(5 - m)
            H = hn @ nf
            trace = np.zeros(5)
            for X in tf:
                parts = curvature_parts(sr5, x, X, H, X)
                trace += f1 * parts["const"] + f2 * parts["reeb"] + f3 * parts["fundform"]
            eta_h = (g @ xi) @ H
            tH = ops.nt @ hn
            expected = (
                -m * f1 * H
                + f2 * ((ops.xi_tan @ ops.xi_tan) * H
                        - eta_h * (ops.xi_tan @ tf) + m * eta_h * xi)
                + 3.0 * f3 * ((ops.tt @ tH) @ tf + (ops.tn @ tH) @ nf)
            )
            assert np.abs(trace - expected).max() <= 1e-10


def test_criterion_4_known_proper_biharmonic_reproductions():
    with criterion(4, "proper biharmonic reproductions", 60.0):
        for ambient, immersion in [
            ({"catalog": "sasakian_sphere_s5"},
             {"catalog": "small_hypersphere", "params": {"rho": 2**-0.5}}),
            ({"catalog": "sasakian_sphere_s5"},
             {"catalog": "clifford_torus_s5", "params": {"theta": math.pi / 4}}),
        ]:
            rep = run_check(_scenario(ambient, immersion,
                                      checks=[{"op": "residual"}]))
            assert rep.verdict == "ProperBiharmonic"
            assert rep.aggregates["max_normal_residual"] <= 1e-6
            assert rep.aggregates["max_tangential_residual"] <= 1e-6
            assert rep.aggregates["h_min"] > 0.1

        cfg = _scenario({"catalog": "cp2"},
                        {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
                        domain=GEODESIC_SWEEP_DOMAIN)
        sweep = sweep_solve(cfg, "r", 0.2, 1.2, 13, "characterization_gap")
        assert len(sweep.roots) == 1
        root = sweep.roots[0]
        assert abs(1.0 / math.tan(root) ** 2 - (4.0 + math.sqrt(13.0)) / 3.0) <= 1e-8
        assert abs(root - R_STAR) <= 1e-8
        rep = run_check(_scenario({"catalog": "cp2"},
                                  {"catalog": "geodesic_sphere_cp2", "params": {"r": root}},
                                  checks=[{"op": "residual"}]))
        assert rep.verdict == "ProperBiharmonic"
        assert rep.aggregates["h_min"] > 0.1


def test_criterion_5_nonexistence_audits():
    with criterion(5, "non-existence audits", 30.0):
        # flat hyperspheres: residual norm is exactly 3/r^3
        for r in (0.6, 1.0, 1.9):
            rep = run_check(_scenario({"catalog": "flat_c2"},
                                      {"catalog": "round_hypersphere", "params": {"r": r}},
                                      checks=[{"op": "residual"}, {"op": "audit"}]))
            got = rep.aggregates["max_normal_residual"]
            assert abs(got - 3.0 / r**3) <= 1e-8 * (3.0 / r**3)
            assert rep.verdict == "NotBiharmonic"
            findings = {f["rule"]: f for f in rep.checks["audit"]["findings"]}
            assert findings["cmc_hypersurface_nonpositive_scalar"]["applies"]
            assert rep.checks["audit"]["status"] == "ok"  # no contradiction

        # Sasakian R^5 (c = -3 <= -10/6): the threshold fires, and the
        # catalog's xi-tangent CMC hypersurface scenario is not proper
        rep = run_check(_scenario({"catalog": "sasakian_r5"},
                                  {"catalog": "hyperplane_y1"},
                                  checks=[{"op": "residual"}, {"op": "audit"}]))
        findings = {f["rule"]: f for f in rep.checks["audit"]["findings"]}
        audit = findings["cmc_reeb_tangent_hypersurface"]
        assert audit["applies"] is True
        assert audit["detail"]["c_threshold"] == pytest.approx(-10.0 / 6.0)
        assert audit["detail"]["c"] <= audit["detail"]["c_threshold"]
        assert rep.verdict != "ProperBiharmonic"
        assert rep.checks["audit"]["status"] == "ok"


def test_criterion_6_characterization_equivalences():
    with criterion(6, "characterization equivalences", 60.0):
        base = _scenario({"catalog": "cp2"},
                         {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
                         domain=GEODESIC_SWEEP_DOMAIN)
        radii = list(np.linspace(0.2, 1.2, 50))
        sweep = sweep_solve(base, "r", 0.2, 1.2, 50, "characterization_gap")
        radii.extend(sweep.roots)
        assert any(abs(r - R_STAR) < 1e-8 for r in sweep.roots)
        for r in radii:
            rep = run_check(base.with_constant("r", float(r)))
            datas = rep.document["points"]
            residual_ok = all(
                max(p["normal_residual"], p["tangential_residual"]) <= 1e-6
                for p in datas)
            gap_ok = all(abs(p["b_norm2"] - 6.0) <= 1e-5 for p in datas)
            assert residual_ok == gap_ok, f"equivalence broken at r={r}"

        # small hyperspheres in S^5: threshold |B|^2 = 4 f1 - f2 + 3 f3 = 4
        for rho, satisfied in ((2**-0.5, True), (0.6, False), (0.85, False)):
            rep = run_check(_scenario(
                {"catalog": "sasakian_sphere_s5"},
                {"catalog": "small_hypersphere", "params": {"rho": rho}},
                checks=[{"op": "residual"}, {"op": "characterization"}]))
            chk = rep.checks["characterization"]
            assert chk["target"] == pytest.approx(4.0)
            assert (chk["status"] == "Satisfied") is satisfied
            assert (rep.verdict == "ProperBiharmonic") is satisfied


def test_criterion_7_bound_equality_case():
    with criterion(7, "mean-curvature bound equality", 30.0):
        rep = run_check(_scenario(
            {"catalog": "sasakian_sphere_s5"},
            {"catalog": "small_hypersphere", "params": {"rho": 2**-0.5}},
            checks=[{"op": "residual"}, {"op": "bound"}]))
        bound = rep.checks["bound"]
        assert bound["k_value"] == pytest.approx(4.0)   # K(4, 1)
        assert bound["bound"] == pytest.approx(1.0)     # K / m
        assert bound["h2"] == pytest.approx(1.0, abs=1e-9)
        assert bound["equality"] is True
        assert bound["equality_case"] == {"pseudo_umbilical": True,
                                          "parallel_mean_curvature": True}
        assert rep.verdict == "ProperBiharmonic"

        rep = run_check(_scenario(
            {"catalog": "sasakian_sphere_s5"},
            {"catalog": "small_hypersphere", "params": {"rho": 0.65}},
            checks=[{"op": "residual"}, {"op": "bound"}]))
        bound = rep.checks["bound"]
        assert bound["equality"] is False
        assert rep.verdict != "ProperBiharmonic"


CATALOG_SCENARIOS = [
    ({"catalog": "flat_c2"}, {"catalog": "affine_plane"}),
    ({"catalog": "flat_c2"}, {"catalog": "round_hypersphere", "params": {"r": 1.3}}),
    ({"catalog": "flat_c2"}, {"catalog": "product_torus", "params": {"a": 1.0, "b": 0.6}}),
    ({"catalog": "flat_c2"}, {"catalog": "circle", "params": {"r": 1.2}}),
    ({"catalog": "flat_c2"}, {"catalog": "helix", "params": {"a": 1.0, "b": 0.4}}),
    ({"catalog": "cp2"}, {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.7}}),
    ({"catalog": "sasakian_r5"}, {"catalog": "hyperplane_y1"}),
    ({"catalog": "sasakian_r5"}, {"catalog": "graph_surface"}),
    ({"catalog": "cosymplectic_r5"}, {"catalog": "hyperplane_y1"}),
    ({"catalog": "cosymplectic_r5"}, {"catalog": "graph_surface"}),
    ({"catalog": "kenmotsu_hyperbolic"}, {"catalog": "hyperplane_y1"}),
    ({"catalog": "sasakian_sphere_s5"}, {"catalog": "small_hypersphere"}),
    ({"catalog": "sasakian_sphere_s5"}, {"catalog": "small_hypersphere", "params": {"rho": 1.0}}),
    ({"catalog": "sasakian_sphere_s5"}, {"catalog": "clifford_torus_s5"}),
    ({"catalog": "sasakian_sphere_s5"}, {"catalog": "clifford_torus_s5", "params": {"theta": 0.9}}),
]


def test_criterion_8_gauss_equation_cross_check():
    with criterion(8, "Gauss-equation cross-check", 30.0):
        for ambient, immersion in CATALOG_SCENARIOS:
            rep = run_check(_scenario(ambient, immersion,
                                      checks=[{"op": "gauss"}]))
            chk = rep.checks["gauss"]
            assert chk["status"] == "ok", (ambient, immersion, chk)
            if "hypersurface_form_gap" in chk:
                # M^3 in N(alpha, beta): 6(alpha+beta) - |B|^2 + 9|H|^2
                assert chk["hypersurface_form_gap"] <= 1e-8


def test_criterion_9_specialization_coherence():
    with criterion(9, "specialization coherence", 30.0):
        for ambient, immersion in CATALOG_SCENARIOS:
            rep = run_check(_scenario(ambient, immersion))
            assert rep.aggregates["max_closed_form_vs_general"] <= 1e-8, (ambient, immersion)
            assert rep.aggregates["max_branch_vs_general"] <= 1e-8, (ambient, immersion)


def test_criterion_10_fd_oracle_convergence():
    with criterion(10, "finite-difference oracle convergence", 60.0):
        cfg = _scenario({"catalog": "cosymplectic_r5"}, {"catalog": "graph_surface"})
        out = convergence_study(cfg)
        assert out["min_order"] is not None
        assert out["min_order"] >= 1.9
        cfg = _scenario({"catalog": "sasakian_r5"}, {"catalog": "graph_surface"})
        out = convergence_study(cfg, steps=(0.05, 0.025))
        assert out["min_order"] >= 1.9
