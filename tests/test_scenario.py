"""Scenario loading, grid runs, reports, sweeps, CLI plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from biharm.ambient import GeometryError
from biharm.cli import main as cli_main
from biharm.jets import n_entries
from biharm.scenario import (
    ConfigError,
    convergence_study,
    emit_report,
    load_scenario,
    parse_document,
    run_check,
    sweep_solve,
)


def _cfg(**overrides):
    doc = {
        "schema_version": 1,
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        "checks": [{"op": "residual"}],
    }
    doc.update(overrides)
    return load_scenario(json.dumps(doc))


def test_load_catalog_names():
    cfg = _cfg()
    assert cfg.ambient.name == "flat_c2"
    assert cfg.immersion.name == "round_hypersphere"
    assert cfg.immersion.bindings["r"] == 1.0


def test_unknown_catalog_name():
    with pytest.raises(ConfigError) as err:
        _cfg(ambient={"catalog": "cp3"})
    assert "ambient.catalog" in str(err.value)


def test_expression_error_has_path():
    with pytest.raises(ConfigError) as err:
        _cfg(immersion={
            "components": ["sin(u1", "u2", "0", "0"],
            "params": ["u1", "u2"],
            "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2},
                                 {"lo": 0, "hi": 1, "samples": 2}]},
        })
    msg = str(err.value)
    assert "immersion.components[0]" in msg and "position" in msg


def test_dimension_mismatch():
    with pytest.raises(ConfigError) as err:
        _cfg(ambient={"catalog": "cp2"},
             immersion={
                 "components": ["u1", "u2", "0", "0", "0"],
                 "params": ["u1", "u2"],
                 "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2},
                                      {"lo": 0, "hi": 1, "samples": 2}]},
             })
    assert "components" in str(err.value)


def test_unknown_check_rejected():
    with pytest.raises(ConfigError):
        _cfg(checks=[{"op": "frobnicate"}])


def test_duplicate_check_rejected(tmp_path, capsys):
    checks = [{"op": "residual", "tol": 1e-12}, {"op": "residual", "tol": 10}]
    with pytest.raises(ConfigError) as err:
        _cfg(checks=checks)
    assert "checks[1].op" in str(err.value) and "duplicate" in str(err.value)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        "checks": checks,
    }))
    assert cli_main(["check", str(path)]) == 2
    capsys.readouterr()


_IDENTITY = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
_FLAT_INLINE = {
    "kind": "generalized_complex", "backend": "chart", "dim": 4,
    "coordinates": ["x1", "y1", "x2", "y2"],
    "metric": _IDENTITY,
    "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                          ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    "coefficients": {"alpha": "0", "beta": "0"},
}


@pytest.mark.parametrize("overrides, path", [
    ({"checks": [5]}, "checks[0]"),
    ({"checks": {"op": "residual"}}, "checks"),
    ({"constants": {"r": "abc"}}, "constants.r"),
    ({"constants": [1.0]}, "constants"),
    ({"ambient": {"catalog": "flat_c2", "params": 5}}, "ambient.params"),
    ({"immersion": {"catalog": "round_hypersphere", "params": [1.0]}}, "immersion.params"),
    ({"domain": 5}, "domain"),
    ({"order": "four"}, "order"),
    ({"order": 4.5}, "order"),
    ({"checks": [{"op": "residual", "tol": "1e-6"}]}, "checks[0].tol"),
    ({"checks": [{"op": "residual", "tol": True}]}, "checks[0].tol"),
    ({"checks": [{"op": "residual", "tol": -1}]}, "checks[0].tol"),
    ({"checks": [{"op": "residual", "tolerance": 1e-6}]}, "checks[0].tolerance"),
    ({"checks": [{"op": "audit", "tol": 1e-6}]}, "checks[0].tol"),
    ({"checks": [{"op": "bound", "kind": "sideways"}]}, "checks[0].kind"),
    ({"checks": [{"op": "bound", "kind": "xi_phi_h_tangent"}]}, "checks[0].kind"),
    ({"ambient": dict(_FLAT_INLINE, dim="four")}, "ambient.dim"),
    ({"ambient": dict(_FLAT_INLINE, tag={"family": "complex_space_form"})}, "ambient.tag"),
    ({"ambient": dict(_FLAT_INLINE, tag={"family": "sasaki", "value": 1})}, "ambient.tag.family"),
    ({"domain": {"axes": [{"lo": 0.5, "hi": 2.6, "samples": 2},
                          {"lo": 0.5, "hi": 2.6, "samples": 2},
                          {"lo": 0.3, "hi": 6.5, "samples": 3, "periodic": "false"}]}},
     "domain.axes[2].periodic"),
    ({"domain": {"axes": [{"lo": 0.5, "hi": 2.6, "samples": 2.9}]}}, "domain.axes[0].samples"),
    ({"domain": {"axes": [{"lo": 0, "hi": True, "samples": 2}]}}, "domain.axes[0].hi"),
    ({"domain": {"axes": [{"lo": "0", "hi": 1, "samples": 2}]}}, "domain.axes[0].lo"),
    ({"domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2, "periodc": True}]}},
     "domain.axes[0].periodc"),
    ({"domain": {"axes": [5]}}, "domain.axes[0]"),
    ({"constants": {"r": True}}, "constants.r"),
    ({"immersion": {"catalog": "round_hypersphere", "params": {"r": "1.0"}}}, "immersion.params.r"),
])
def test_malformed_document_field_is_config_error(tmp_path, capsys, overrides, path):
    doc = {
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        "checks": [{"op": "residual"}],
        **overrides,
    }
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: "), err


def test_check_tol_defaults_to_its_declaration():
    cfg = _cfg(checks=[{"op": "residual"}, {"op": "gauss", "tol": 0}, {"op": "audit"}])
    assert [spec.tol for spec in cfg.checks] == [1e-6, 0, None]


def test_overflowing_component_fails_points_not_the_run():
    # exp(800 u1) overflows at u1 = 1 (its value) and at u1 = 0.5 (the
    # induced metric); only u1 = 0 evaluates cleanly
    cfg = _cfg(ambient={"catalog": "cosymplectic_r5"}, immersion={
        "components": ["u1", "u2", "exp(800*u1)", "0", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 2}]},
    })
    rep = run_check(cfg)
    assert rep.aggregates["points_total"] == 6
    assert rep.aggregates["points_failed"] == 4
    # the 2 clean points alone would read NotBiharmonic
    assert rep.verdict == "Inconclusive"
    failed = [p for p in rep.document["points"] if "error" in p]
    assert {p["u"][0] for p in failed} == {0.5, 1.0}
    assert all(p["error"] for p in failed)


def test_nan_residual_at_second_sample_fails_that_point(monkeypatch):
    import biharm.scenario as scenario

    calls = []
    real = scenario.residual_general

    def poisoned(space, pg, nd):
        res = real(space, pg, nd)
        calls.append(pg.u)
        if len(calls) == 2:
            res.normal = res.normal * float("nan")
        return res

    monkeypatch.setattr(scenario, "residual_general", poisoned)
    rep = run_check(_cfg())
    assert rep.aggregates["points_failed"] == 1
    bad = rep.document["points"][1]
    assert "non-finite" in bad["error"] and "normal residual" in bad["error"]
    assert rep.aggregates["max_normal_residual"] == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("target, poison, reason", [
    ("verify_relations", lambda out: dict(out, adjoint_skew=math.nan), "adjoint_skew relation"),
    ("pseudo_umbilical_check", lambda out: (None, math.nan), "pseudo-umbilical deviation"),
])
def test_nan_reduced_value_at_second_sample_fails_that_point(monkeypatch, target, poison, reason):
    # the aggregates reduce these with max, which drops a NaN that is not first
    import biharm.scenario as scenario

    calls = []
    real = getattr(scenario, target)

    def poisoned(*args):
        out = real(*args)
        calls.append(out)
        return poison(out) if len(calls) == 2 else out

    monkeypatch.setattr(scenario, target, poisoned)
    rep = run_check(_cfg(checks=[{"op": "relations"}, {"op": "pseudo_umbilical"}]))
    assert rep.aggregates["points_failed"] == 1
    bad = rep.document["points"][1]
    assert "non-finite" in bad["error"] and reason in bad["error"]
    assert rep.verdict == "Inconclusive"


def test_order2_grid_batch_fault_reruns_each_sample(monkeypatch):
    # sqrt(c - u1) leaves its domain at u1 >= c: the order-2 grid batch
    # fails, and the per-sample rerun gives each point its own reason
    import biharm.scenario as scenario
    import biharm.submanifold as submanifold

    cfg = _cfg(constants={"c": 0.6}, immersion={
        "components": ["u1", "u2", "sqrt(c - u1)", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 2}]},
    })
    needs = frozenset((scenario.GEOMETRY, scenario.COEFFICIENTS))
    expected = [scenario._evaluate_point(cfg, u, needs) for u in cfg.immersion.grid()]
    calls = []
    real = submanifold.point_geometry

    def counted(space, imm, u, order=4):
        calls.append(np.shape(u))
        return real(space, imm, u, order)

    monkeypatch.setattr(scenario, "point_geometry", counted)
    records = scenario._run_grid(cfg, {scenario.COEFFICIENTS})
    assert calls == [(6, 2)] + [(2,)] * 6  # one batch, then one call per sample
    assert [r.error for r in records] == [r.error for r in expected]
    assert [r.error is None for r in records] == [True] * 4 + [False] * 2
    assert all(a.data.b_norm2 == b.data.b_norm2 for a, b in zip(records[:4], expected))

    res = sweep_solve(cfg, "c", 0.6, 1.4, 3, "characterization_gap")
    assert res.partial == [0.6, 1.0]
    assert math.isnan(res.objective[0]) and math.isfinite(res.objective[2])


def test_order4_grid_block_fault_reruns_that_block_per_sample(monkeypatch):
    # sqrt(c - u1) leaves its domain at u1 = 1: the second block fails as a
    # whole and reruns one sample at a time, the first stays one batch
    import biharm.scenario as scenario
    import biharm.submanifold as submanifold

    monkeypatch.setattr(scenario, "_BLOCK_COEFFS", 6 * n_entries(2 + 4, 4))  # 6-sample blocks
    cfg = _cfg(constants={"c": 0.6}, immersion={
        "components": ["u1", "u2", "sqrt(c - u1)", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 4}]},
    }, checks=[{"op": "residual"}])
    needs = frozenset((scenario.GEOMETRY, scenario.RESIDUALS, scenario.NORMAL, scenario.SPLIT))
    expected = [scenario._evaluate_point(cfg, u, needs) for u in cfg.immersion.grid()]
    calls = []
    real = submanifold.point_geometry

    def counted(space, imm, u, order=4):
        calls.append((np.shape(u), order))
        return real(space, imm, u, order)

    monkeypatch.setattr(scenario, "point_geometry", counted)
    records = scenario._run_grid(cfg, {scenario.RESIDUALS})
    assert calls == [((6, 2), 4), ((6, 2), 4)] + [((2,), 4)] * 6
    assert [r.error for r in records] == [r.error for r in expected]
    assert [r.error is None for r in records] == [True] * 8 + [False] * 4
    assert all("sqrt" in r.error for r in records[8:])
    assert run_check(cfg).verdict == "Inconclusive"


def test_normal_jet_stage_fault_reruns_that_block_per_sample(monkeypatch):
    # a fault in a block's normal-jet stage (here at u1 = 1) fails the whole
    # block; it reruns one sample at a time, so that only the samples that
    # fault on their own fail, each with its own reason
    import biharm.scenario as scenario
    import biharm.submanifold as submanifold
    from biharm.jets import DomainError

    monkeypatch.setattr(scenario, "_BLOCK_COEFFS", 6 * n_entries(2 + 4, 4))  # 6-sample blocks
    cfg = _cfg(immersion={
        "components": ["u1", "u2", "u1 * u2", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 4}]},
    }, checks=[{"op": "residual"}])
    grid = cfg.immersion.grid()
    expected = scenario._run_grid(cfg, {scenario.RESIDUALS})
    real, calls = submanifold.normal_jets, []

    def faulty(pg):
        calls.append(np.shape(pg.position)[:-1])
        bad = [tuple(u) for u in np.reshape(pg.u, (-1, 2)).tolist() if u[0] == 1.0]
        if bad:
            raise DomainError(f"normal-jet fault at {bad}")
        real(pg)

    monkeypatch.setattr(scenario, "normal_jets", faulty)
    monkeypatch.setattr(submanifold, "normal_jets", faulty)
    records = scenario._run_grid(cfg, {scenario.RESIDUALS})
    assert calls == [(6,), (6,)] + [()] * 6  # two blocks, then the second per sample
    assert [r.error is None for r in records] == [True] * 8 + [False] * 4
    assert [r.error for r in records[8:]] == [f"normal-jet fault at {[u]}" for u in grid[8:]]
    assert all(_same(a, b) for a, b in zip(records[:8], expected))
    assert run_check(cfg).verdict == "Inconclusive"


def test_sweep_range_must_be_finite_with_at_least_two_samples(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"ambient": {"catalog": "flat_c2"},
                               "immersion": {"catalog": "round_hypersphere",
                                             "params": {"r": 1.0}}}))
    for bad in ("0.3:1.2:-3", "nan:1.2:4", "0.3:inf:4", "0.3:1.2:0", "0.3:1.2:1",
                "0.3:1.2:2.5"):
        assert cli_main(["sweep", str(scn), "--param", "r", "--range", bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.range: "), (bad, err)
    cfg = _cfg()
    for lo, hi, n in ((0.3, 1.2, 2.5), (0.3, math.nan, 4), ("0.3", 1.2, 4), (0.3, 1.2, True)):
        with pytest.raises(ConfigError, match="sweep.range"):
            sweep_solve(cfg, "r", lo, hi, n)


def test_convergence_steps_must_be_finite_and_positive(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"ambient": {"catalog": "cosymplectic_r5"},
                               "immersion": {"catalog": "graph_surface"}}))
    for bad in ("a,b", "0,0.1", "nan,0.1", "-0.1", "0.1,inf", ","):
        assert cli_main(["convergence", str(scn), "--steps", bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: convergence.steps: "), (bad, err)
    cfg = load_scenario(scn.read_text())
    for steps in ((), [], 0.05, (0.05, "0.025"), (0.05, math.nan)):
        with pytest.raises(ConfigError, match="convergence.steps"):
            convergence_study(cfg, steps)


def _same(a, b) -> bool:
    """Equal values, floats and arrays compared bitwise."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (float, np.ndarray, np.generic)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("ambient, immersion, blocks", [
    ("sasakian_r5", "hyperplane_y1", 4),             # chart, 9 jet variables
    ("sasakian_sphere_s5", "clifford_torus_s5", 1),  # embedded, 4 jet variables
    ("flat_c2", "round_hypersphere", 2),             # chart, 8 + 4 samples
])
def test_grid_blocks_change_no_record(ambient, immersion, blocks):
    import biharm.scenario as scenario

    cfg = _cfg(ambient={"catalog": ambient}, immersion={"catalog": immersion})
    grid = cfg.immersion.grid()
    assert math.ceil(len(grid) / scenario._block_rows(cfg, cfg.order)) == blocks
    records = scenario._run_grid(cfg)
    assert len(records) == len(grid)
    for u, record in zip(grid, records):
        assert record.error is None
        assert _same(record, scenario._evaluate_point(cfg, u, scenario.QUANTITIES)), u


def test_immersion_must_have_lower_dimension():
    with pytest.raises(ConfigError):
        _cfg(immersion={
            "components": ["u1", "u2", "u3", "u4"],
            "params": ["u1", "u2", "u3", "u4"],
            "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}] * 4},
        })


def test_inline_ambient_and_immersion():
    cfg = load_scenario(json.dumps({
        "ambient": {
            "kind": "generalized_complex", "backend": "chart", "dim": 4,
            "coordinates": ["x1", "y1", "x2", "y2"],
            "metric": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                   ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "coefficients": {"alpha": "0", "beta": "0"},
        },
        "immersion": {
            "components": ["cos(u1)", "sin(u1)", "u2", "0"],
            "params": ["u1", "u2"],
            "domain": {"axes": [{"lo": 0, "hi": 6.283, "samples": 3, "periodic": True},
                                 {"lo": -1, "hi": 1, "samples": 2}]},
        },
    }))
    rep = run_check(cfg)
    # cylinder in flat space: CMC but not biharmonic
    assert rep.verdict == "NotBiharmonic"
    assert rep.aggregates["cmc"] is True


def test_flat_sphere_report_values():
    rep = run_check(_cfg())
    assert rep.verdict == "NotBiharmonic"
    assert rep.aggregates["max_normal_residual"] == pytest.approx(3.0, rel=1e-9)
    assert rep.aggregates["h_max"] == pytest.approx(1.0, rel=1e-12)
    assert rep.checks["residual"]["status"] == "violated"


def test_minimal_catalog_scenario_verdict():
    cfg = _cfg(ambient={"catalog": "sasakian_r5"},
               immersion={"catalog": "hyperplane_y1"})
    rep = run_check(cfg)
    assert rep.verdict == "MinimalHenceBiharmonic"


def test_proper_biharmonic_scenario_verdict():
    cfg = _cfg(ambient={"catalog": "sasakian_sphere_s5"},
               immersion={"catalog": "small_hypersphere"},
               checks=[{"op": "residual", "tol": 1e-6}])
    rep = run_check(cfg)
    assert rep.verdict == "ProperBiharmonic"
    assert rep.checks["residual"]["status"] == "ok"


def test_errors_recorded_per_point_without_abort():
    # the hypersphere parametrization degenerates at u1 = 0; that grid point
    # must be recorded as an error while the rest of the grid is evaluated
    cfg = _cfg(domain={"axes": [
        {"lo": 0.0, "hi": 2.6, "samples": 2},
        {"lo": 0.5, "hi": 2.6, "samples": 2},
        {"lo": 0.3, "hi": 6.58, "samples": 2, "periodic": True},
    ]})
    rep = run_check(cfg)
    assert rep.aggregates["points_failed"] == 4
    assert rep.aggregates["points_total"] == 8
    failed = [p for p in rep.document["points"] if "error" in p]
    assert len(failed) == 4 and all("rank" in p["error"] for p in failed)


def test_document_round_trip_and_determinism():
    cfg = _cfg()
    doc1 = emit_report(run_check(cfg), "document")
    doc2 = emit_report(run_check(cfg), "document")
    assert doc1 == doc2
    parsed = parse_document(doc1)
    assert parsed["aggregates"]["verdict"] == "NotBiharmonic"
    # emit(parse(emit)) is idempotent at 12 significant digits
    from biharm.scenario import Report

    doc3 = emit_report(Report(parsed), "document")
    assert doc3 == doc1


def test_table_format():
    rep = run_check(_cfg(checks=[{"op": "residual"}, {"op": "gauss"}]))
    table = emit_report(rep, "table")
    assert "verdict" in table and "NotBiharmonic" in table
    assert "residual" in table and "gauss" in table


def test_document_numbers_have_12_digits():
    rep = run_check(_cfg())
    doc = emit_report(rep, "document")
    # 1/3 style fractions must be rendered at 12 significant digits
    parsed = parse_document(doc)
    res = parsed["aggregates"]["max_normal_residual"]
    assert abs(res - 3.0) < 1e-9
    assert "0.333333333333" in doc or "3" in doc


def test_sweep_no_root_for_flat_hyperspheres():
    cfg = _cfg()
    res = sweep_solve(cfg, "r", 0.5, 2.0, 6, "normal_residual")
    assert res.roots == []
    assert all(v > 0 for v in res.objective)


def test_sweep_clifford_family_root_at_quarter_pi():
    import math

    cfg = _cfg(
        ambient={"catalog": "sasakian_sphere_s5"},
        immersion={"catalog": "clifford_torus_s5", "params": {"theta": 0.7}},
        domain={"axes": [
            {"lo": 0.4, "hi": 6.68, "samples": 1, "periodic": True},
            {"lo": 0.6, "hi": 2.2, "samples": 2},
            {"lo": 0.7, "hi": 2.1, "samples": 1},
            {"lo": 0.9, "hi": 7.18, "samples": 1, "periodic": True},
        ]},
    )
    res = sweep_solve(cfg, "theta", 0.3, 1.2, 8, "normal_residual")
    # the proper biharmonic member sits at theta = pi/4; the family's minimal
    # member at theta = pi/3 is the only other zero of the residual
    assert any(abs(r - math.pi / 4) <= 1e-9 for r in res.roots)
    for r in res.roots:
        assert min(abs(r - math.pi / 4), abs(r - math.pi / 3)) <= 1e-7


def test_sweep_reports_pole_as_discontinuity_not_root():
    # alpha = tan(c) flips sign across its pole at c = pi/2; bisection
    # converges there, but |f| grows instead of shrinking
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    cfg = _cfg(
        ambient={
            "kind": "generalized_complex", "backend": "chart", "dim": 4,
            "coordinates": ["x1", "y1", "x2", "y2"], "metric": eye,
            "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "coefficients": {"alpha": "tan(c)", "beta": "0"},
        },
        immersion={"catalog": "round_hypersphere", "params": {"r": 1.3}},
        constants={"c": 1.2},
        domain={"axes": [{"lo": 0.6, "hi": 1.2, "samples": 1},
                         {"lo": 0.5, "hi": 1.0, "samples": 1},
                         {"lo": 0.3, "hi": 1.0, "samples": 1}]},
    )
    res = sweep_solve(cfg, "c", 1.2, 2.0, 5)
    assert res.roots == []
    assert len(res.discontinuities) == 1
    assert res.discontinuities[0] == pytest.approx(math.pi / 2, abs=1e-9)


def test_sweep_unknown_parameter():
    with pytest.raises(ConfigError):
        sweep_solve(_cfg(), "zeta", 0.0, 1.0, 3)


def test_convergence_study_graph_surface():
    cfg = _cfg(ambient={"catalog": "cosymplectic_r5"},
               immersion={"catalog": "graph_surface"})
    out = convergence_study(cfg, steps=(0.05, 0.025))
    assert out["min_order"] is not None and out["min_order"] > 1.9


def test_cli_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "ambient": {"catalog": "sasakian_r5"},
        "immersion": {"catalog": "hyperplane_y1"},
        "checks": [{"op": "residual"}],
        "expect": {"verdict": "MinimalHenceBiharmonic"},
    }))
    assert cli_main(["check", str(good), "--format", "table"]) == 0
    capsys.readouterr()

    bad_expect = tmp_path / "bad.json"
    bad_expect.write_text(json.dumps({
        "ambient": {"catalog": "sasakian_r5"},
        "immersion": {"catalog": "hyperplane_y1"},
        "expect": {"verdict": "ProperBiharmonic"},
    }))
    assert cli_main(["check", str(bad_expect)]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"ambient": {"catalog": "nope"},
                                  "immersion": {"catalog": "circle"}}))
    assert cli_main(["check", str(broken)]) == 2
    capsys.readouterr()


def test_cli_catalog_list(capsys):
    assert cli_main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "sasakian_sphere_s5" in out and "geodesic_sphere_cp2" in out


def test_cli_sweep_with_expectations(tmp_path, capsys):
    scn = tmp_path / "sweep.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        "expect": {"sweep": {"roots_count": 0}},
    }))
    assert cli_main(["sweep", str(scn), "--param", "r", "--range", "0.5:2.0:5",
                     "--objective", "normal_residual"]) == 0
    capsys.readouterr()
    scn.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        "expect": {"sweep": {"root_near": 1.0, "root_tol": 1e-6}},
    }))
    assert cli_main(["sweep", str(scn), "--param", "r", "--range", "0.5:2.0:5",
                     "--objective", "normal_residual"]) == 1
    capsys.readouterr()
    assert cli_main(["sweep", str(scn), "--param", "r", "--range", "oops"]) == 2
    capsys.readouterr()


def test_cli_convergence_with_expectation(tmp_path, capsys):
    scn = tmp_path / "conv.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "cosymplectic_r5"},
        "immersion": {"catalog": "graph_surface"},
        "expect": {"convergence_order_gte": 1.9},
    }))
    assert cli_main(["convergence", str(scn), "--steps", "0.05,0.025"]) == 0
    capsys.readouterr()
    scn.write_text(json.dumps({
        "ambient": {"catalog": "cosymplectic_r5"},
        "immersion": {"catalog": "graph_surface"},
        "expect": {"convergence_order_gte": 3.5},
    }))
    assert cli_main(["convergence", str(scn), "--steps", "0.05,0.025"]) == 1
    capsys.readouterr()


def test_cli_report_out_file(tmp_path):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "circle"},
    }))
    out = tmp_path / "report.json"
    assert cli_main(["check", str(scn), "--out", str(out)]) == 0
    parsed = parse_document(out.read_text())
    assert parsed["aggregates"]["verdict"] == "NotBiharmonic"


def test_checks_never_silently_skipped():
    cfg = _cfg(ambient={"catalog": "sasakian_r5"},
               immersion={"catalog": "hyperplane_y1"},
               checks=[{"op": "residual"}, {"op": "characterization"},
                       {"op": "bound"}, {"op": "audit"}, {"op": "gauss"},
                       {"op": "relations"}, {"op": "structure"},
                       {"op": "pseudo_umbilical"}])
    rep = run_check(cfg)
    assert set(rep.checks) == {"residual", "characterization", "bound", "audit",
                                "gauss", "relations", "structure", "pseudo_umbilical"}
    # minimal hyperplane: characterization and bound are explicit not-applicable
    assert rep.checks["characterization"]["status"] == "NotApplicable"
    assert rep.checks["bound"]["status"] == "NotApplicable"
    assert rep.checks["pseudo_umbilical"]["status"] == "NotApplicable"


# -- demand-driven sample evaluation -------------------------------------------

GEODESIC_SWEEP_DOMAIN = {"axes": [
    {"lo": 0.6, "hi": 1.0, "samples": 1},
    {"lo": 0.4, "hi": 6.6831853, "samples": 2, "periodic": True},
    {"lo": 1.1, "hi": 7.3831853, "samples": 2, "periodic": True},
]}
R_STAR = math.atan(math.sqrt(3.0 / (4.0 + math.sqrt(13.0))))


def _count_calls(monkeypatch, module, names):
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("ambient, immersion", [
    ({"catalog": "flat_c2"}, {"catalog": "round_hypersphere", "params": {"r": 1.0}}),
    ({"catalog": "sasakian_r5"}, {"catalog": "hyperplane_y1"}),
])
def test_residual_only_document_skips_unrequested_quantities(monkeypatch, ambient, immersion):
    import biharm.scenario as scenario

    skipped = ("scalar_curvature", "verify_relations", "pseudo_umbilical_check")
    calls = _count_calls(monkeypatch, scenario, skipped + ("normal_derivatives",))
    rep = run_check(_cfg(ambient=ambient, immersion=immersion))
    points = rep.aggregates["points_total"]
    assert rep.aggregates["points_failed"] == 0
    assert {name: calls[name] for name in skipped} == dict.fromkeys(skipped, 0)
    assert calls["normal_derivatives"] == points  # the verdict still needs the residuals

    all_checks = [{"op": op} for op in scenario.CHECKS]
    run_check(_cfg(ambient=ambient, immersion=immersion, checks=all_checks))
    assert {name: calls[name] for name in skipped} == dict.fromkeys(skipped, points)


@pytest.mark.parametrize("r", [0.3, R_STAR, 0.9])
def test_characterization_gap_objective_equals_full_pipeline_bitwise(monkeypatch, r):
    import biharm.scenario as scenario

    cfg = _cfg(ambient={"catalog": "cp2"},
               immersion={"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
               domain=GEODESIC_SWEEP_DOMAIN).with_constant("r", r)
    objective = scenario.SWEEP_OBJECTIVES["characterization_gap"]
    full = objective.run(cfg, scenario._run_grid(cfg))  # every quantity, jet order 4
    calls = _count_calls(monkeypatch, scenario, ("normal_derivatives",))
    fast = scenario._sweep_objective(cfg, "characterization_gap")
    assert calls["normal_derivatives"] == 0
    assert fast == full


def test_criterion_6_sweep_takes_at_most_eight_evaluations_per_root(monkeypatch):
    import biharm.scenario as scenario

    base = _cfg(ambient={"catalog": "cp2"},
                immersion={"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
                domain=GEODESIC_SWEEP_DOMAIN)
    calls = _count_calls(monkeypatch, scenario, ("load_scenario",))  # one per evaluation
    res = sweep_solve(base, "r", 0.2, 1.2, 50, "characterization_gap")
    assert len(res.roots) == 1 and abs(res.roots[0] - R_STAR) <= 1e-10
    assert 50 < calls["load_scenario"] <= 50 + 8


def test_catalog_reports_unchanged_by_demand_driven_evaluation():
    # The acceptance catalog with all eight checks, as emitted by the engine
    # that ran the full pipeline at every sample.  Values are compared
    # byte for byte: the registry must compute the same numbers in the same
    # order.  (Near-zero residuals print every bit, so a different BLAS can
    # move their last digits.)
    from pathlib import Path

    path = Path(__file__).parent / "data" / "catalog_reports.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) == 15
    for line in lines:
        doc = json.loads(line)
        assert set(c["op"] for c in doc["scenario"]["checks"]) == {
            "residual", "characterization", "bound", "audit", "relations", "gauss",
            "structure", "pseudo_umbilical"}
        assert emit_report(run_check(load_scenario(doc["scenario"]))) == line, \
            doc["scenario"]


def _partial_sweep_doc():
    # alpha = c, so the objective mean|B|^2 - 3c falls through 0 near
    # c = 0.504; the zero term fails the samples at u1 = 0 (one of three
    # columns of the grid) whenever |c - 0.5| < 0.1
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return {
        "ambient": {
            "kind": "generalized_complex", "backend": "chart", "dim": 4,
            "coordinates": ["x1", "y1", "x2", "y2"], "metric": eye,
            "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "coefficients": {"alpha": "c", "beta": "0"},
        },
        "immersion": {
            "components": ["u1", "u2", "u1*u1 + 0*sqrt(u1 + (c - 0.5)^2 - 0.01)", "0"],
            "params": ["u1", "u2"],
            "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                                 {"lo": 0, "hi": 1, "samples": 2}]},
        },
        "constants": {"c": 0.2},
        "checks": [{"op": "residual"}],
    }


def test_sweep_objective_is_nan_on_a_partial_grid_and_never_brackets_across_it():
    cfg = load_scenario(_partial_sweep_doc())
    # samples 0.2 (f > 0), 0.5 (partial), 0.8 (f < 0): no bracket across the NaN
    res = sweep_solve(cfg, "c", 0.2, 0.8, 3)
    assert res.objective[0] > 0.0 > res.objective[2]
    assert math.isnan(res.objective[1])
    assert res.partial == [0.5]
    assert res.roots == [] and res.discontinuities == []
    # the full grid is there at both ends, so this time the sign change is a
    # bracket, but its first secant step lands at c = 0.5035 (partial)
    res = sweep_solve(cfg, "c", 0.2, 0.8, 2)
    assert res.roots == [] and res.discontinuities == []
    assert len(res.partial) == 1 and abs(res.partial[0] - 0.5) < 0.1
    # without the failing term the grid is whole and the root is found
    doc = _partial_sweep_doc()
    doc["immersion"]["components"][2] = "u1*u1"
    res = sweep_solve(load_scenario(doc), "c", 0.2, 0.8, 3)
    assert res.partial == [] and len(res.roots) == 1
    assert abs(res.roots[0] - 0.5036) < 1e-3


def test_cli_sweep_prints_partial_values(tmp_path, capsys):
    scn = tmp_path / "partial.json"
    scn.write_text(json.dumps(_partial_sweep_doc()))
    assert cli_main(["sweep", str(scn), "--param", "c", "--range", "0.2:0.8:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["partial"] == [0.5]
    assert out["samples"][1] is None and out["roots"] == []


def _unbound_constant_doc():
    doc = _partial_sweep_doc()
    doc["immersion"]["components"][2] = "k*u1*u1"
    return doc


def test_unbound_constant_is_a_config_error_at_its_path(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        load_scenario(_unbound_constant_doc())
    assert err.value.path == "immersion.components[2]"
    assert "'k'" in str(err.value)
    doc = _partial_sweep_doc()
    doc["ambient"]["coefficients"]["beta"] = "0*b"
    with pytest.raises(ConfigError) as err:
        load_scenario(doc)
    assert err.value.path == "ambient.coefficients[1]"
    # bound by the document's constants or the defaults: loads
    doc = _unbound_constant_doc()
    doc["constants"]["k"] = 2.0
    doc["immersion"]["components"][3] = "0*pi"
    load_scenario(doc)

    scn = tmp_path / "unbound.json"
    scn.write_text(json.dumps(_unbound_constant_doc()))
    assert cli_main(["check", str(scn)]) == 2
    assert "unbound constant 'k'" in capsys.readouterr().err


def test_sweep_value_failing_everywhere_is_partial_not_fatal(tmp_path, capsys):
    doc = _partial_sweep_doc()
    doc["immersion"]["components"][2] = "u1*u1 + 0*sqrt(c - 1)"
    res = sweep_solve(load_scenario(doc), "c", 0.5, 2.0, 4)
    assert math.isnan(res.objective[0])
    assert res.partial == [0.5]
    assert all(math.isfinite(y) for y in res.objective[1:])

    scn = tmp_path / "fails.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["sweep", str(scn), "--param", "c", "--range", "0.5:2.0:4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["partial"] == [0.5] and out["samples"][0] is None

    # a sweep in which nothing evaluates still fails, and names the cause
    with pytest.raises(GeometryError, match=r"first error at c=0\.2: .*sqrt"):
        sweep_solve(load_scenario(doc), "c", 0.2, 0.8, 3)


def test_each_ambient_tensor_runs_once_per_sample(monkeypatch):
    # For the sample's ambient snapshot, which every curvature, coefficient
    # and structure reader shares, decompose included.
    from collections import Counter

    from biharm.exprs import CompiledFields

    cfg = _cfg(ambient={"catalog": "kenmotsu_hyperbolic"},
               immersion={"catalog": "hyperplane_y1"},
               checks=[{"op": "residual"}, {"op": "gauss"}])
    runs = Counter()
    real = CompiledFields.values

    def counted(self, name, point):
        runs[name] += 1
        return real(self, name, point)

    monkeypatch.setattr(CompiledFields, "values", counted)
    rep = run_check(cfg)
    samples = rep.aggregates["points_total"]
    assert rep.aggregates["points_failed"] == 0 and samples > 1
    for name in ("metric", "phi", "reeb", "coeffs"):
        assert runs[name] == samples, (name, runs[name], samples)
