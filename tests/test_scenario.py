"""Scenario loading, grid runs, reports, sweeps, CLI plumbing."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from biharm import catalog
from biharm.ambient import GeometryError
from biharm.cli import main as cli_main
from biharm.exprs import DEFAULT_BINDINGS, expr_constants
from biharm.jets import n_entries
from biharm.residuals import PROPER_TOL, map_columns
from biharm.scenario import (
    CHECKS,
    GAUSS_TOL,
    RELATIONS_TOL,
    STRUCTURE_TOL,
    ConfigError,
    convergence_study,
    emit_report,
    load_scenario,
    run_check,
    sweep_solve,
)
from biharm.submanifold import geometry_jet_size
from conftest import QUANTITIES


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


def test_catalog_binding_precedence_default_constant_params():
    # a catalog model's default < the document's constant < the model's params
    cfg = _cfg(ambient={"catalog": "cp2"}, immersion={"catalog": "geodesic_sphere_cp2"},
               constants={"rho": 2.0, "r": 0.4})
    assert (cfg.ambient.bindings["rho"], cfg.immersion.bindings["r"]) == (2.0, 0.4)
    cfg = _cfg(ambient={"catalog": "cp2", "params": {"rho": 0.5}},
               immersion={"catalog": "geodesic_sphere_cp2", "params": {"r": 0.3}},
               constants={"rho": 2.0, "r": 0.4})
    assert (cfg.ambient.bindings["rho"], cfg.immersion.bindings["r"]) == (0.5, 0.3)
    assert _cfg(ambient={"catalog": "cp2"}).ambient.bindings["rho"] == 1.0


def test_document_constant_binds_a_catalog_default():
    # round_hypersphere defaults to r = 1; the constant r = 2 must win over
    # it, giving the flat normal residual 3 / r^3
    cfg = _cfg(immersion={"catalog": "round_hypersphere"}, constants={"r": 2.0})
    assert run_check(cfg).aggregates["max_normal_residual"] == pytest.approx(0.375, rel=1e-9)
    res = sweep_solve(cfg, "r", 0.5, 2.0, 4, "normal_residual")
    assert res.objective == pytest.approx([24.0, 3.0, 8.0 / 9.0, 0.375], rel=1e-9)


@pytest.mark.parametrize("model, entry, name", [
    ("immersion", "round_hypersphere", "radius"),
    ("ambient", "cp2", "rh0"),
    ("ambient", "flat_c2", "rho"),
])
def test_catalog_params_must_be_declared(model, entry, name):
    # a misspelt parameter would otherwise run the entry at its default
    with pytest.raises(ConfigError) as err:
        _cfg(**{model: {"catalog": entry, "params": {name: 2.0}}})
    assert err.value.path == f"{model}.params.{name}"
    with pytest.raises(ValueError):
        if model == "ambient":
            catalog.ambient(entry, {name: 2.0})
        else:
            catalog.immersion(entry, catalog.ambient("flat_c2"), {name: 2.0})


def test_undeclared_parameter_error_names_the_parameter():
    with pytest.raises(catalog.UndeclaredParameter) as err:
        catalog.ambient("cp2", {"rho": 1.0, "rh0": 2.0})
    assert err.value.name == "rh0"
    with pytest.raises(ConfigError) as err:
        _cfg(ambient={"catalog": "cp2", "params": {"rh0": 2.0}})
    assert str(err.value) == "ambient.params.rh0: cp2 declares no parameter 'rh0' (it declares rho)"
    with pytest.raises(ConfigError) as err:
        _cfg(immersion={"catalog": "affine_plane", "params": {"r": 2.0}})
    assert str(err.value) == ("immersion.params.r: affine_plane declares no parameter 'r' "
                              "(it declares none)")


def _expressions(field):
    """The expressions of a nested tuple field."""
    if isinstance(field, tuple):
        for item in field:
            yield from _expressions(item)
    elif field is not None:
        yield field


def test_catalog_expressions_read_only_what_they_declare():
    # catalog entries are parsed without the inline loader's unbound-constant
    # rule: a name that is neither a coordinate or parameter of the model nor
    # a declared parameter would read whatever a document's constants bind
    admitted = set()
    for name, (_, declared) in catalog.AMBIENTS.items():
        space = catalog.ambient(name)
        for field in ("metric", "cstruct", "phi", "reeb", "coeffs", "normals"):
            for expr in _expressions(getattr(space, field)):
                assert expr_constants(expr) <= set(declared) | set(DEFAULT_BINDINGS), (name, field)
        for imm_name, (_, imm_declared) in catalog.IMMERSIONS.items():
            try:
                imm = catalog.immersion(imm_name, space)
            except ValueError:
                continue
            admitted.add(imm_name)
            for expr in imm.components:
                assert expr_constants(expr) <= set(imm_declared) | set(DEFAULT_BINDINGS), \
                    (name, imm_name)
    assert admitted == set(catalog.IMMERSIONS)


def test_catalog_docstring_table_matches_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Catalog", 1)[1].split("\n## ", 1)[0]
    rows = [(n.strip("`"), d) for n, d in
            (line.strip("| ").split(" | ") for line in section.splitlines() if line.startswith("| `"))]
    doc = catalog.__doc__.split("=\n", 2)[2].split("\n=")[0]
    assert [tuple(line.split(None, 1)) for line in doc.splitlines()] == rows
    assert sorted(name for name, _ in rows) == sorted(catalog.AMBIENTS)


def test_document_constants_may_name_anything():
    # constants bind only the names an entry declares, and may name others
    cfg = _cfg(ambient={"catalog": "cp2"}, immersion={"catalog": "geodesic_sphere_cp2"},
               constants={"radius": 2.0, "r": 0.4, "rh0": 4.0})
    assert cfg.ambient.bindings == {"rho": 1.0}
    assert cfg.immersion.bindings == {"r": 0.4}


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
    checks = [{"op": "residual"}, {"op": "residual"}]
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
    ({"ambient": dict(_FLAT_INLINE, backend="chrat")}, "ambient.backend"),
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
    ({"ambient": {"catalog": "cp2", "params": {"rho": -1.0}}}, "ambient"),
    ({"ambient": {"catalog": "cp2", "params": {"rh0": 4.0}}}, "ambient.params.rh0"),
    ({"immersion": {"catalog": "round_hypersphere", "params": {"radius": 2.0}}},
     "immersion.params.radius"),
    ({"ambient": {"catalog": ["cp2"]}}, "ambient.catalog"),
    # JSON Infinity and NaN, which Python's reader accepts, are not numbers here
    ({"constants": {"r": math.inf}}, "constants.r"),
    ({"constants": {"r": 10**400}}, "constants.r"),   # an integer past the float range
    ({"ambient": {"catalog": "cp2", "params": {"rho": math.nan}}}, "ambient.params.rho"),
    ({"domain": {"axes": [{"lo": -math.inf, "hi": 1, "samples": 2}]}}, "domain.axes[0].lo"),
    ({"ambient": dict(_FLAT_INLINE, tag={"family": "complex_space_form", "value": math.inf})},
     "ambient.tag.value"),
    # a name is a string, at the top level and on inline models
    ({"name": {"a": 1}}, "name"),
    ({"name": 5}, "name"),
    ({"ambient": dict(_FLAT_INLINE, name=["x"])}, "ambient.name"),
    ({"immersion": {"name": None, "params": ["u", "v"], "components": ["u", "v", "0", "0"],
                    "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}] * 2}}},
     "immersion.name"),
    # a tag that is present is a mapping with a family and a value
    *[({"ambient": dict(_FLAT_INLINE, tag=tag)}, "ambient.tag")
      for tag in ({}, 0, False, [], "", None)],
    ({"schema_version": True}, "schema_version"),
    # a domain has axes, each with hi > lo and a sample, one per parameter
    ({"domain": {"axes": []}}, "domain"),
    ({"domain": {"axes": [{"lo": 1, "hi": 1, "samples": 2}]}}, "domain.axes[0]"),
    ({"domain": {"axes": [{"lo": 0, "hi": 1, "samples": 0}]}}, "domain.axes[0]"),
    ({"domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}]}}, "domain"),
    ({"immersion": {"params": ["u", "v"], "components": ["u", "v", "0", "0"],
                    "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}]}}},
     "immersion.domain"),
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


@pytest.mark.parametrize("text, message", [
    ("{", "invalid JSON"),
    ("[1]", "config root must be a mapping"),
])
def test_unreadable_document_is_config_error_at_the_root(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.path == "" and str(err.value).startswith(message)
    scn = tmp_path / "bad.json"
    scn.write_text(text)
    assert cli_main(["check", str(scn)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


_INLINE_PLANE = {
    "params": ["u", "v"], "components": ["u", "v", "0", "0"],
    "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}, {"lo": 0, "hi": 1, "samples": 2}]},
}
_CONTACT_INLINE = {
    "kind": "generalized_sasakian", "dim": 3, "coordinates": ["x", "y", "z"],
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]], "reeb": ["0", "0", "1"],
    "coefficients": {"f1": "0", "f2": "0", "f3": "0"},
}
# the catalog S^5, written inline (embedded backend)
_INLINE_S5 = json.loads((Path(__file__).parent / "data" / "inline_s5.json").read_text())


# a misspelt or misplaced field would otherwise be ignored, and the scenario
# run with its defaults: "constant" below would check r = 1, not r = 2
@pytest.mark.parametrize("overrides, path", [
    ({"constant": {"r": 2.0}}, "constant"),
    ({"chekcs": [{"op": "gauss"}]}, "chekcs"),
    ({"domian": {"axes": []}}, "domian"),
    ({"order": 4}, "order"),
    ({"ambient": {"catalog": "cp2", "param": {"rho": 4.0}}}, "ambient.param"),
    ({"immersion": {"catalog": "round_hypersphere", "param": {"r": 2.0}}}, "immersion.param"),
    ({"ambient": dict(_FLAT_INLINE, metirc=_IDENTITY)}, "ambient.metirc"),
    ({"ambient": dict(_FLAT_INLINE, phi=_IDENTITY)}, "ambient.phi"),
    ({"ambient": dict(_FLAT_INLINE, normals=[])}, "ambient.normals"),
    ({"ambient": dict(_FLAT_INLINE, coefficients={"alpha": "0", "beta": "0", "gamma": "1"})},
     "ambient.coefficients.gamma"),
    ({"ambient": dict(_FLAT_INLINE, tag={"family": "complex_space_form", "value": 0, "c": 1})},
     "ambient.tag.c"),
    ({"ambient": dict(_CONTACT_INLINE, complex_structure=_IDENTITY)},
     "ambient.complex_structure"),
    # an embedded ambient gives its normals, and no parametrization
    ({"ambient": dict(_INLINE_S5["ambient"], embedding_params=["t1", "t2", "t3", "t4", "t5"])},
     "ambient.embedding_params"),
    ({"ambient": dict(_INLINE_S5["ambient"], embedding=["t1"])}, "ambient.embedding"),
    ({"immersion": dict(_INLINE_PLANE, paramz=["u"])}, "immersion.paramz"),
    ({"immersion": dict(_INLINE_PLANE, domain={"axes": _INLINE_PLANE["domain"]["axes"],
                                               "axis": []})}, "immersion.domain.axis"),
    ({"domain": {"axes": [{"lo": 0.5, "hi": 2.6, "samples": 2}], "samples": 3}},
     "domain.samples"),
    # a check entry holds only its op: every check's tolerance is fixed
    *[({"checks": [{"op": op, "tol": 1e-6}]}, "checks[0].tol") for op in sorted(CHECKS)],
])
def test_unknown_document_field_is_config_error(tmp_path, capsys, overrides, path):
    doc = {
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.0}},
        **overrides,
    }
    scn = tmp_path / "stray.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: unknown field"), err


def test_inline_contact_ambient_takes_its_kind_fields():
    cfg = load_scenario({"ambient": _CONTACT_INLINE,
                         "immersion": {"params": ["u"], "components": ["u", "0", "0"],
                                       "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}]}}})
    assert cfg.ambient.kind == "generalized_sasakian"


# an inline field of the wrong type, or a list of the wrong length, is a
# config error at its path, not a TypeError or a broadcast error when the
# model loads, compiles or runs
@pytest.mark.parametrize("ambient, immersion, path", [
    (dict(_FLAT_INLINE, kind=["generalized_complex"]), None, "ambient.kind"),
    (dict(_FLAT_INLINE, backend={"chart": True}), None, "ambient.backend"),
    (dict(_FLAT_INLINE, coordinates=5), None, "ambient.coordinates"),
    (dict(_FLAT_INLINE, coordinates=[1, 2, 3, 4]), None, "ambient.coordinates[0]"),
    (dict(_FLAT_INLINE, coordinates=["x1", "x1", "x2", "y2"]), None, "ambient.coordinates"),
    (dict(_FLAT_INLINE, metric=5), None, "ambient.metric"),
    (dict(_FLAT_INLINE, metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), None,
     "ambient.metric"),
    (dict(_FLAT_INLINE, complex_structure=[["0", "-1", "0", "0"], ["1", "0", "0"],
                                           ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]),
     None, "ambient.complex_structure[1]"),
    (dict(_INLINE_S5["ambient"], normals=5), _INLINE_S5["immersion"], "ambient.normals"),
    ({"catalog": "flat_c2"}, dict(_INLINE_PLANE, components=5), "immersion.components"),
    # 3 chart coordinates cannot carry a 4-dimensional ambient
    (dict(_FLAT_INLINE, coordinates=["x1", "y1", "x2"]), None, "ambient"),
])
def test_inline_shape_fault_is_config_error(tmp_path, capsys, ambient, immersion, path):
    scn = tmp_path / "shape.json"
    scn.write_text(json.dumps({
        "ambient": ambient,
        "immersion": immersion or {"catalog": "round_hypersphere"},
    }))
    assert cli_main(["check", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: "), err


# expectations are validated when the document loads, for every subcommand:
# before the run, not after it
@pytest.mark.parametrize("command, expect, path", [
    ("check", {"verdcit": "ProperBiharmonic"}, "expect.verdcit"),
    ("check", {"checks.gauss.status": "ok"}, "expect.checks.gauss.status"),
    ("check", {"checks.residual.stat": "ok"}, "expect.checks.residual.stat"),
    ("check", {"verdict": 1}, "expect.verdict"),
    ("check", {"checks.residual.status": True}, "expect.checks.residual.status"),
    ("check", ["verdict"], "expect"),
    ("sweep", {"sweep": {"roots": 1}}, "expect.sweep.roots"),
    ("sweep", {"sweep": {"root_near": "one"}}, "expect.sweep.root_near"),
    ("sweep", {"sweep": {"root_near": 1.0, "root_tol": "1e-6"}}, "expect.sweep.root_tol"),
    ("sweep", {"sweep": {"roots_count": 1.5}}, "expect.sweep.roots_count"),
    ("sweep", {"sweep": 1}, "expect.sweep"),
    ("convergence", {"convergence_order_gte": "2"}, "expect.convergence_order_gte"),
])
def test_malformed_expectation_is_config_error(tmp_path, capsys, command, expect, path):
    scn = tmp_path / "expect.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "cosymplectic_r5"},
        "immersion": {"catalog": "graph_surface"},
        "checks": [{"op": "residual"}],
        "expect": expect,
    }))
    args = {"check": [], "sweep": ["--param", "r", "--range", "0.5:2.0:3"],
            "convergence": ["--steps", "0.05,0.025"]}[command]
    assert cli_main([command, str(scn), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: "), err


def test_check_status_expectation_compares_the_requested_check(tmp_path, capsys):
    scn = tmp_path / "status.json"
    doc = {"ambient": {"catalog": "sasakian_r5"}, "immersion": {"catalog": "hyperplane_y1"},
           "checks": [{"op": "residual"}, {"op": "gauss"}],
           "expect": {"verdict": "MinimalHenceBiharmonic", "checks.gauss.status": "ok"}}
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 0
    doc["expect"]["checks.gauss.status"] = "violated"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 1
    err = capsys.readouterr().err
    assert "EXPECT FAILED: expected checks.gauss.status='violated', got 'ok'" in err


def test_checks_load_as_their_ops():
    cfg = _cfg(checks=[{"op": "residual"}, {"op": "gauss"}, {"op": "audit"}])
    assert cfg.checks == ["residual", "gauss", "audit"]


# each document's check fails at its fixed tolerance; a loose "tol" used to
# let it read as passing, meet its expectation and exit 0
@pytest.mark.parametrize("ambient, immersion, op, loose, claimed", [
    # |B|^2 is 1.775 from its target 0
    ({"catalog": "flat_c2"}, {"catalog": "round_hypersphere", "params": {"r": 1.3}},
     "characterization", 100, "Satisfied"),
    # |H|^2 = 3 above the bound 1
    ({"catalog": "sasakian_sphere_s5"}, {"catalog": "small_hypersphere", "params": {"rho": 0.5}},
     "bound", 10, "WithinBound"),
])
def test_loose_check_tol_cannot_pass_a_document(tmp_path, capsys, ambient, immersion, op,
                                                loose, claimed):
    doc = {"ambient": ambient, "immersion": immersion, "checks": [{"op": op, "tol": loose}],
           "expect": {f"checks.{op}.status": claimed}}
    scn = tmp_path / "loose.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 2
    assert "checks[0].tol: unknown field 'tol'" in capsys.readouterr().err
    doc["checks"] = [{"op": op}]
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 1
    assert f"expected checks.{op}.status={claimed!r}, got 'Violated'" in capsys.readouterr().err


def test_echoed_check_tolerances_are_the_engines():
    rep = run_check(_cfg(ambient={"catalog": "sasakian_r5"},
                         immersion={"catalog": "hyperplane_y1"},
                         checks=[{"op": op} for op in CHECKS]))
    tols = {op: rep.checks[op].get("tol") for op in CHECKS}
    assert tols == {"residual": PROPER_TOL, "relations": RELATIONS_TOL, "gauss": GAUSS_TOL,
                    "structure": STRUCTURE_TOL, "characterization": None, "bound": None,
                    "audit": None, "pseudo_umbilical": None}


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


def _block_budget(monkeypatch, cfg, rows):
    """Set the block budget to ``rows`` samples of ``cfg``'s order-4 grid."""
    import biharm.scenario as scenario

    size = geometry_jet_size(cfg.ambient, cfg.immersion, scenario.JET_ORDER)
    monkeypatch.setattr(scenario, "_BLOCK_COEFFS", rows * size)
    assert scenario._block_rows(cfg, scenario.JET_ORDER) == rows


def test_nan_residual_at_second_sample_fails_that_point(monkeypatch):
    import biharm.scenario as scenario

    _block_budget(monkeypatch, _cfg(), 8)  # 8 + 4 samples
    calls = []
    real = scenario.residual_general
    second = _cfg().immersion.grid()[1]

    def poisoned(pg, nd):
        # the second sample's normal residual is NaN, in its block and alone
        res = real(pg, nd)
        calls.append(np.shape(pg.u)[:-1])
        bad = (pg.u == second).all(-1)
        res.normal = np.where(bad[..., None], float("nan"), res.normal)
        return res

    monkeypatch.setattr(scenario, "residual_general", poisoned)
    rep = run_check(_cfg())
    assert calls == [(8,)] + [(1,)] * 8 + [(4,)]  # the faulting block reruns row by row
    assert rep.aggregates["points_failed"] == 1
    bad = rep.document["points"][1]
    assert "non-finite" in bad["error"] and "normal residual" in bad["error"]
    assert rep.aggregates["max_normal_residual"] == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("target, poison, reason", [
    ("verify_relations",
     lambda out, bad: dict(out, adjoint_skew=np.where(bad, math.nan, out["adjoint_skew"])),
     "adjoint_skew relation"),
    ("pseudo_umbilical_check", lambda out, bad: (out[0], np.where(bad, math.nan, out[1])),
     "pseudo-umbilical deviation"),
])
def test_nan_reduced_value_at_second_sample_fails_that_point(monkeypatch, target, poison, reason):
    # the aggregates reduce these with max, which drops a NaN that is not first
    import biharm.scenario as scenario

    second = _cfg().immersion.grid()[1]
    real_geometry, real = scenario.point_geometry, getattr(scenario, target)
    rows = []

    def geometry(*args):
        pg = real_geometry(*args)
        rows[:] = [(pg.u == second).all(-1)]  # the second sample's row of this block
        return pg

    def poisoned(*args):
        return poison(real(*args), rows[0])

    monkeypatch.setattr(scenario, "point_geometry", geometry)
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
    needs = frozenset((scenario.GEOMETRY,))
    expected = [_single(cfg, u, needs, 2) for u in cfg.immersion.grid()]
    calls = []
    real = submanifold.point_geometry

    def counted(space, imm, u, order=4):
        calls.append((np.shape(u), order))
        return real(space, imm, u, order)

    monkeypatch.setattr(scenario, "point_geometry", counted)
    [(samples, failed)] = scenario._run_grids([cfg], {scenario.GEOMETRY})
    # one batch, then one call per sample, all at the block's jet order
    assert calls == [((6, 2), 2)] + [((1, 2), 2)] * 6
    assert _errors(failed, 6) == [error for _, error in expected]
    assert [error is None for error in _errors(failed, 6)] == [True] * 4 + [False] * 2
    assert samples.b_norm2.tolist() == [single.b_norm2[0] for single, _ in expected[:4]]

    res = sweep_solve(cfg, "c", 0.6, 1.4, 3, "characterization_gap")
    assert res.partial == [0.6, 1.0]
    assert math.isnan(res.objective[0]) and math.isfinite(res.objective[2])


def _indefinite_metric_doc(hi):
    # a chart metric diag(1, 1, 1, x1), singular at x1 = 0 and indefinite
    # below, along a plane over u1 in [-1, hi]
    metric = [row[:] for row in _IDENTITY]
    metric[3][3] = "x1"
    return {"ambient": dict(_FLAT_INLINE, metric=metric),
            "immersion": {"params": ["u1", "u2"], "components": ["u1", "u2", "0", "0"],
                          "domain": {"axes": [{"lo": -1, "hi": hi, "samples": 3},
                                              {"lo": 0, "hi": 1, "samples": 2}]}}}


def test_grid_rows_fail_where_the_ambient_metric_is_not_positive_definite(tmp_path, capsys):
    # the calculus's check fails exactly the rows with u1 <= 0, each with its
    # reason, and a partial grid decides nothing
    rep = run_check(load_scenario(_indefinite_metric_doc(1)))
    failed = [p for p in rep.document["points"] if "error" in p]
    assert [p["u"][0] for p in failed] == [-1.0, -1.0, 0.0, 0.0]
    assert all(p["error"] == "ambient metric not positive definite along immersion"
               for p in failed)
    assert rep.aggregates["points_failed"] == 4 and rep.verdict == "Inconclusive"
    # with no clean row, the command ends as a geometry error
    scn = tmp_path / "indefinite.json"
    scn.write_text(json.dumps(_indefinite_metric_doc(-0.5)))
    assert cli_main(["check", str(scn)]) == 2
    assert "ambient metric not positive definite along immersion" in capsys.readouterr().err


def test_order4_grid_block_fault_reruns_that_block_per_sample(monkeypatch):
    # sqrt(c - u1) leaves its domain at u1 = 1: the second block fails as a
    # whole and reruns one sample at a time, the first stays one batch
    import biharm.scenario as scenario
    import biharm.submanifold as submanifold

    cfg = _cfg(constants={"c": 0.6}, immersion={
        "components": ["u1", "u2", "sqrt(c - u1)", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 4}]},
    }, checks=[{"op": "residual"}])
    _block_budget(monkeypatch, cfg, 6)  # 6-sample blocks
    needs = frozenset((scenario.GEOMETRY, scenario.RESIDUALS))
    expected = [_single(cfg, u, needs, scenario.JET_ORDER) for u in cfg.immersion.grid()]
    calls = []
    real = submanifold.point_geometry

    def counted(space, imm, u, order=4):
        calls.append((np.shape(u), order))
        return real(space, imm, u, order)

    monkeypatch.setattr(scenario, "point_geometry", counted)
    [(_, failed)] = scenario._run_grids([cfg], {scenario.RESIDUALS})
    assert calls == [((6, 2), 4), ((6, 2), 4)] + [((1, 2), 4)] * 6
    assert _errors(failed, 12) == [error for _, error in expected]
    assert [error is None for error in _errors(failed, 12)] == [True] * 8 + [False] * 4
    assert all("sqrt" in error for error in _errors(failed, 12)[8:])
    assert run_check(cfg).verdict == "Inconclusive"


def test_normal_jet_stage_fault_reruns_that_block_per_sample(monkeypatch):
    # a fault in a block's normal-derivative stage (here at u1 = 1) fails the
    # whole block; it reruns one sample at a time, so that only the samples
    # that fault on their own fail, each with its own reason
    import biharm.scenario as scenario
    from biharm.jets import DomainError

    cfg = _cfg(immersion={
        "components": ["u1", "u2", "u1 * u2", "0"],
        "params": ["u1", "u2"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                             {"lo": 0, "hi": 1, "samples": 4}]},
    }, checks=[{"op": "residual"}])
    _block_budget(monkeypatch, cfg, 6)  # 6-sample blocks
    grid = cfg.immersion.grid()
    [(expected, _)] = scenario._run_grids([cfg], {scenario.RESIDUALS})
    real, calls = scenario.normal_derivatives, []

    def faulty(pg):
        calls.append(np.shape(pg.position)[:-1])
        bad = [tuple(u) for u in np.reshape(pg.u, (-1, 2)).tolist() if u[0] == 1.0]
        if bad:
            raise DomainError(f"normal-jet fault at {bad}")
        return real(pg)

    monkeypatch.setattr(scenario, "normal_derivatives", faulty)
    [(samples, failed)] = scenario._run_grids([cfg], {scenario.RESIDUALS})
    assert calls == [(6,), (6,)] + [(1,)] * 6  # two blocks, then the second per sample
    assert [error is None for error in _errors(failed, 12)] == [True] * 8 + [False] * 4
    assert failed == [(row, grid[row], f"normal-jet fault at {[grid[row]]}")
                      for row in range(8, 12)]
    assert _same(samples, map_columns(lambda a: a[:8], expected))
    assert run_check(cfg).verdict == "Inconclusive"


def test_one_row_tail_fault_fails_only_that_row(monkeypatch):
    # a tail stage that faults at one grid sample fails its block, which
    # reruns row by row: that row alone fails with its own reason, and every
    # other record is bitwise the clean run's
    import biharm.scenario as scenario

    cfg = _cfg(checks=[{"op": "residual"}, {"op": "gauss"}, {"op": "relations"}])
    _block_budget(monkeypatch, cfg, 8)  # 8 + 4 samples
    grid = cfg.immersion.grid()
    [(clean, _)] = scenario._run_grids([cfg], {scenario.RESIDUALS, scenario.SCALAR,
                                               scenario.RELATIONS})
    real, calls = scenario.scalar_curvature, []

    def faulty(pg):
        calls.append(np.shape(pg.u)[:-1])
        if (pg.u == grid[5]).all(-1).any():
            raise GeometryError(f"tail fault at {tuple(grid[5])}")
        return real(pg)

    monkeypatch.setattr(scenario, "scalar_curvature", faulty)
    [(samples, failed)] = scenario._run_grids([cfg], {scenario.RESIDUALS, scenario.SCALAR,
                                                      scenario.RELATIONS})
    assert calls == [(8,)] + [(1,)] * 8 + [(4,)]
    assert _errors(failed, 12) == [None] * 5 + [f"tail fault at {grid[5]}"] + [None] * 6
    assert failed[0][1] == grid[5]
    assert _same(samples, map_columns(lambda a: np.delete(a, 5, axis=0), clean))


def test_float_overflow_in_a_one_row_rerun_reads_numpys_reason():
    # the coefficient overflows at x1 = 1: the block faults and its rows
    # rerun as blocks of one row, arrays of shape (1, m) like the block's,
    # so each failed row reads numpy's overflow text
    coeffs = {"alpha": "(1e200*x1)*1e200", "beta": "0"}
    cfg = _cfg(ambient=dict(_FLAT_INLINE, coefficients=coeffs), immersion=_INLINE_PLANE)
    rep = run_check(cfg)
    assert [(p["u"], p.get("error")) for p in rep.document["points"]] == [
        ([0.0, 0.0], None), ([0.0, 1.0], None),
        ([1.0, 0.0], "overflow encountered in multiply"),
        ([1.0, 1.0], "overflow encountered in multiply")]


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


def _single(cfg, u, needs, order):
    """The one sample ``u`` run as a block of one row (shape (1, m)): its
    columns and None, or None and its error."""
    import biharm.scenario as scenario

    chunks, failed = [], []
    scenario._run_block([(cfg, 0, u, (chunks, failed))], needs, order)
    return (chunks[0], None) if chunks else (None, failed[0][2])


def _value_objective(cfg, objective) -> float:
    """The sweep objective on ``cfg``'s grid, run alone for the objective's
    needs: NaN when any row failed."""
    import biharm.scenario as scenario

    declared = scenario.SWEEP_OBJECTIVES[objective]
    [(samples, failed)] = scenario._run_grids([cfg], declared.needs)
    return math.nan if failed else declared.run(cfg, samples)


def _errors(failed, rows) -> list:
    """Each grid row's error from a grid's ``failed`` rows, None at a clean row."""
    errors = [None] * rows
    for row, _, error in failed:
        errors[row] = error
    return errors


def _same(a, b) -> bool:
    """Equal values, floats and arrays compared bitwise, object arrays
    entry by entry."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray) and a.dtype == object:
        return b.dtype == object and a.shape == b.shape and _same(a.tolist(), b.tolist())
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
    ("sasakian_r5", "hyperplane_y1", 4),             # chart, 9 jet variables, 4-sample blocks
    ("sasakian_sphere_s5", "clifford_torus_s5", 1),  # embedded, 4 jet variables
    ("flat_c2", "round_hypersphere", 2),             # chart, 8 + 4 samples
])
def test_grid_blocks_change_no_record(monkeypatch, ambient, immersion, blocks):
    import biharm.scenario as scenario

    cfg = _cfg(ambient={"catalog": ambient}, immersion={"catalog": immersion})
    rows = {"hyperplane_y1": 4, "round_hypersphere": 8}.get(immersion)
    if rows:  # the catalog budget runs these grids in fewer blocks
        _block_budget(monkeypatch, cfg, rows)
    grid = cfg.immersion.grid()
    assert math.ceil(len(grid) / scenario._block_rows(cfg, scenario.JET_ORDER)) == blocks
    [(samples, failed)] = scenario._run_grids([cfg], QUANTITIES)
    assert failed == [] and len(samples.h_norm) == len(grid)
    for row, u in enumerate(grid):
        single, error = _single(cfg, u, QUANTITIES, scenario.JET_ORDER)
        assert error is None
        assert _same(map_columns(lambda a: a[row:row + 1], samples), single), u


@pytest.mark.parametrize("ambient, immersion, blocks", [
    ("sasakian_r5", "hyperplane_y1", 1),  # 16 samples, 26 per block
    ("cosymplectic_r5", "graph_surface", 1),
    ("flat_c2", "round_hypersphere", 1),
])
def test_catalog_budget_sizes_blocks_by_the_first_order_chart_space(ambient, immersion, blocks):
    # the augmented chart space keeps its displacements first-order and runs
    # one order below the seed, so the catalog's widest grids run in fewer,
    # larger blocks than over the full space or at the seed order
    import biharm.scenario as scenario

    cfg = _cfg(ambient={"catalog": ambient}, immersion={"catalog": immersion})
    m, d = cfg.immersion.dim, cfg.ambient.dim
    size = geometry_jet_size(cfg.ambient, cfg.immersion, scenario.JET_ORDER)
    seeded = n_entries(m, 4) + d * n_entries(m, 3)
    assert size == max(n_entries(m, 4), n_entries(m, 3) + d * n_entries(m, 2)) < seeded
    rows = scenario._block_rows(cfg, scenario.JET_ORDER)
    assert rows == scenario._BLOCK_COEFFS // size > scenario._BLOCK_COEFFS // n_entries(m + d, 4)
    assert math.ceil(len(cfg.immersion.grid()) / rows) == blocks


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


def test_inline_embedded_ambient_reports_as_the_catalog_sphere():
    # the catalog S^5's fields written inline: every aggregate and check
    # value is the catalog run's, bit for bit
    inline = run_check(load_scenario(_INLINE_S5))
    doc = dict(_INLINE_S5, ambient={"catalog": "sasakian_sphere_s5"})
    ref = run_check(load_scenario(doc))
    assert inline.verdict == "ProperBiharmonic"
    assert inline.aggregates == ref.aggregates
    assert inline.checks == ref.checks


def test_translated_sphere_is_the_same_sasakian_space_form(capsys):
    # the catalog S^5 moved by 2 along p1, written inline: an isometric copy,
    # so every structure identity holds, the covariant ones included
    path = Path(__file__).parent / "data" / "inline_s5_translated.json"
    rep = run_check(load_scenario(json.loads(path.read_text())))
    structure = rep.checks["structure"]
    assert rep.verdict == "ProperBiharmonic" and structure["status"] == "ok"
    assert max(structure["residuals"]["covariant_phi"],
               structure["residuals"]["covariant_reeb"]) <= 1e-12
    assert cli_main(["check", str(path)]) == 0  # its expect block holds


# Embedded normals that only span the normal space: the flat C^2 in R^6
# (standard J on p1..p4) around a radius-1.3 round 3-sphere, and the catalog
# S^5 padded to S^5 x {0} in R^7 around its proper biharmonic hypersphere
_E5, _E6 = ["0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "1"]
_FLAT_C2_IN_R6 = {
    "kind": "generalized_complex", "backend": "embedded", "dim": 4,
    "coordinates": ["p1", "p2", "p3", "p4", "p5", "p6"],
    "complex_structure": [["0", "-1", "0", "0", "0", "0"], ["1", "0", "0", "0", "0", "0"],
                          ["0", "0", "0", "-1", "0", "0"], ["0", "0", "1", "0", "0", "0"],
                          ["0"] * 6, ["0"] * 6],
    "coefficients": {"alpha": "0", "beta": "0"},
}
_S5_IN_R7 = json.loads((Path(__file__).parent / "data"
                        / "inline_s5_r7_mixed_normals.json").read_text())


def _flat_c2_in_r6(normals):
    return {"ambient": dict(_FLAT_C2_IN_R6, normals=normals),
            "constants": {"r": 1.3},
            "immersion": {"params": ["u1", "u2", "u3"],
                          "components": ["r*cos(u1)", "r*sin(u1)*cos(u2)",
                                         "r*sin(u1)*sin(u2)*cos(u3)",
                                         "r*sin(u1)*sin(u2)*sin(u3)", "0", "0"],
                          "domain": {"axes": [{"lo": lo, "hi": lo + 0.04, "samples": 2}
                                              for lo in (2.08, 2.18, 3.914)]}},
            "checks": _S5_IN_R7["checks"]}


def _bench_compare():
    """``compare`` of ``bench/workloads.py``: the reference gate's rule."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


@pytest.mark.parametrize("mixed, twin, verdict", [
    # e5 + e6 is not normal to e5: projecting by each one alone once read a
    # round sphere of flat space as minimal
    (_flat_c2_in_r6([_E5, ["0", "0", "0", "0", "1", "1"]]), _flat_c2_in_r6([_E5, _E6]),
     "NotBiharmonic"),
    (_flat_c2_in_r6([["0", "0", "0", "0", "2", "0"], ["0", "0", "0", "0", "3", "-1"]]),
     _flat_c2_in_r6([_E5, _E6]), "NotBiharmonic"),
    # dependence is relative to each field's own norm: 1e-9 e5, 1e-9 e6 once
    # failed every point as dependent
    (_flat_c2_in_r6([["0", "0", "0", "0", "1e-9", "0"], ["0", "0", "0", "0", "0", "1e-9"]]),
     _flat_c2_in_r6([_E5, _E6]), "NotBiharmonic"),
    # (p, 0) and (p, 1) once read the proper biharmonic hypersphere as not biharmonic
    (_S5_IN_R7, dict(_S5_IN_R7, ambient=dict(
        _S5_IN_R7["ambient"], normals=[_S5_IN_R7["ambient"]["normals"][0], ["0"] * 6 + ["1"]])),
     "ProperBiharmonic"),
])
def test_embedded_normals_that_span_read_as_their_orthonormal_twin(mixed, twin, verdict):
    rep, ref = (run_check(load_scenario(doc)).document for doc in (mixed, twin))
    assert rep["aggregates"]["verdict"] == ref["aggregates"]["verdict"] == verdict
    assert rep["checks"]["structure"]["status"] == "ok"
    if verdict == "NotBiharmonic":  # the radius-1.3 sphere of flat space
        assert rep["aggregates"]["h_max"] == pytest.approx(1 / 1.3, rel=1e-12)
    del rep["scenario"], ref["scenario"]
    assert _bench_compare()(rep, ref) == []


def test_dependent_embedded_normals_fail_every_point(tmp_path, capsys):
    import biharm.scenario as scenario

    doc = _flat_c2_in_r6([_E5, ["0", "0", "0", "0", "2", "0"]])
    cfg = load_scenario(doc)
    [(samples, failed)] = scenario._run_grids([cfg], {scenario.RESIDUALS})
    assert samples is None
    assert _errors(failed, 8) == ["ambient normal fields linearly dependent (field 2)"] * 8
    scn = tmp_path / "dependent.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 2
    assert "linearly dependent" in capsys.readouterr().err


def test_bound_kind_is_matched_from_the_flags_never_forced(tmp_path, capsys):
    # a Lagrangian torus of CP^2 with the complex-surface bound forced: the
    # document may not name the kind, and without it the flags match lagrangian
    doc = {"ambient": {"catalog": "cp2"},
           "immersion": {"catalog": "product_torus", "params": {"b": 0.5462946835578539}},
           "checks": [{"op": "residual"}, {"op": "bound", "kind": "complex_surface"}]}
    scn = tmp_path / "forced.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["check", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("config error: checks[1].kind: ")
    del doc["checks"][1]["kind"]
    rep = run_check(load_scenario(doc))
    assert rep.aggregates["classification"]["is_complex"] is False
    assert rep.checks["bound"]["kind"] == "lagrangian"


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
               checks=[{"op": "residual"}])
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
    parsed = json.loads(doc1)
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
    parsed = json.loads(doc)
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


def test_normal_residual_objective_reads_every_sample():
    import biharm.scenario as scenario
    from biharm.residuals import GridSamples

    def samples(signed, norms):
        n = len(norms)
        return GridSamples(u=np.zeros((n, 1)), h_norm=np.ones(n), b_norm2=np.ones(n),
                           normal_residual=np.array(norms),
                           signed_normal=np.array(signed, dtype=object))

    objective = scenario.SWEEP_OBJECTIVES["normal_residual"].run
    # the largest magnitude, keeping its sign; the first one on ties
    assert objective(None, samples([0.1, -0.5, 0.5, 0.2], [0.1, 0.5, 0.5, 0.2])) == -0.5
    # a sample with no sign (a minimal point): the largest norm
    assert objective(None, samples([0.1, -0.5, 0.5, None], [0.1, 0.5, 0.5, 0.7])) == 0.7


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

    missing = tmp_path / "missing.json"
    assert cli_main(["check", str(missing)]) == 2
    assert capsys.readouterr().err == f"config error: no such config file: {missing}\n"


# a point fault outside the grid records ends the command as a geometry
# error, exit 2, not as a traceback with the exit 1 of a failed expectation
def test_convergence_probe_fault_exits_2(tmp_path, capsys):
    # log(u1) at the probe point u1 = -0.1585
    scn = tmp_path / "probe.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "immersion": {"params": ["u1", "u2"], "components": ["u1", "u2", "log(u1)", "0"],
                      "domain": {"axes": [{"lo": -1, "hi": 0.5, "samples": 3},
                                          {"lo": 0, "hi": 1, "samples": 3}]}},
    }))
    assert cli_main(["convergence", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("geometry error: log of non-positive value")


def test_structure_check_jet_fault_exits_2(tmp_path, capsys):
    # phi's floats are fine on y1 = 0, its jets leave the domain of sqrt there
    phi = [["0"] * 5 for _ in range(5)]
    phi[2][0], phi[3][1], phi[0][2], phi[1][3] = "1", "1", "-1", "-1+0*sqrt(y1^2)"
    scn = tmp_path / "structure.json"
    scn.write_text(json.dumps({
        "ambient": {"kind": "generalized_sasakian", "dim": 5,
                    "coordinates": ["x1", "x2", "y1", "y2", "z"],
                    "metric": [["1" if i == j else "0" for j in range(5)] for i in range(5)],
                    "phi": phi, "reeb": ["0", "0", "0", "0", "1"],
                    "coefficients": {"f1": "0", "f2": "0", "f3": "0"},
                    "tag": {"family": "cosymplectic", "value": 0}},
        "immersion": {"catalog": "hyperplane_y1"},
        "checks": [{"op": "residual"}, {"op": "structure"}],
    }))
    assert cli_main(["check", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("geometry error: sqrt at non-positive value")


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
    assert capsys.readouterr().err == ""  # the immersion reads r: no note
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
    # criterion 6 has one root in the range, not the two expected
    scn.write_text(json.dumps({
        "ambient": {"catalog": "cp2"},
        "immersion": {"catalog": "geodesic_sphere_cp2"},
        "expect": {"sweep": {"roots_count": 2}},
    }))
    assert cli_main(["sweep", str(scn), "--param", "r", "--range", "0.2:1.2:20"]) == 1
    assert "EXPECT FAILED: expected 2 roots, found 1" in capsys.readouterr().err


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
    parsed = json.loads(out.read_text())
    assert parsed["aggregates"]["verdict"] == "NotBiharmonic"


def test_report_refuses_values_of_unknown_type():
    # a numpy bool is not a bool: writing it as the string "True" would
    # hide that a column value reached the document unconverted
    from biharm.scenario import Report

    for value in (np.bool_(True), object()):
        with pytest.raises(TypeError):
            emit_report(Report({"aggregates": {"cmc": value}}))
    assert emit_report(Report({"aggregates": {"cmc": True}})) == '{"aggregates":{"cmc":true}}'


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
    cfg = _cfg(ambient=ambient, immersion=immersion)
    rep = run_check(cfg)
    blocks = math.ceil(rep.aggregates["points_total"] / scenario._block_rows(cfg, scenario.JET_ORDER))
    assert rep.aggregates["points_failed"] == 0
    assert {name: calls[name] for name in skipped} == dict.fromkeys(skipped, 0)
    assert calls["normal_derivatives"] == blocks  # the verdict still needs the residuals

    all_checks = [{"op": op} for op in scenario.CHECKS]
    run_check(_cfg(ambient=ambient, immersion=immersion, checks=all_checks))
    assert {name: calls[name] for name in skipped} == dict.fromkeys(skipped, blocks)


@pytest.mark.parametrize("r", [0.3, R_STAR, 0.9])
def test_characterization_gap_objective_equals_full_pipeline_bitwise(monkeypatch, r):
    import biharm.scenario as scenario

    cfg = _cfg(ambient={"catalog": "cp2"},
               immersion={"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
               domain=GEODESIC_SWEEP_DOMAIN).with_constant("r", r)
    objective = scenario.SWEEP_OBJECTIVES["characterization_gap"]
    full = objective.run(cfg, scenario._run_grids([cfg], QUANTITIES)[0][0])  # order 4
    calls = _count_calls(monkeypatch, scenario, ("normal_derivatives",))
    fast = _value_objective(cfg, "characterization_gap")
    assert calls["normal_derivatives"] == 0
    assert fast == full


def test_curvature_tensor_is_built_once_per_sample_and_only_on_demand(monkeypatch):
    from functools import cached_property

    from biharm.ambient import PointAmbient

    builds = []
    build = PointAmbient.__dict__["curvature"].func

    def counted(amb):
        builds.append(np.shape(amb.x)[:-1])
        return build(amb)

    prop = cached_property(counted)
    prop.__set_name__(PointAmbient, "curvature")
    monkeypatch.setattr(PointAmbient, "curvature", prop)
    cfg = _cfg(ambient={"catalog": "cp2"}, immersion={"catalog": "geodesic_sphere_cp2"},
               checks=[{"op": "residual"}, {"op": "gauss"}])
    rep = run_check(cfg)
    # the curvature trace and the Gauss contraction share one tensor per
    # sample, built for the grid's one block
    assert rep.aggregates["points_total"] == 8 and builds == [(8,)]
    builds.clear()
    sweep_solve(cfg, "r", 0.3, 0.9, 3, "characterization_gap")
    assert builds == []


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
    # For the samples' ambient snapshot, which every curvature, coefficient
    # and structure reader shares, decompose included: one program run on
    # arrays per grid block.  The structure audit adds one run of each
    # tensor it reads, and of the immersion, for all its points together.
    from collections import Counter

    import biharm.scenario as scenario

    from biharm.exprs import CompiledFields

    runs = Counter()
    real = CompiledFields.values

    def counted(self, name, point):
        runs[name] += 1
        return real(self, name, point)

    monkeypatch.setattr(CompiledFields, "values", counted)
    # the catalog hyperplane_y1 (16 samples) runs in one block: 3^2 2^2 samples take two
    axes = [{"lo": -0.8, "hi": 0.8, "samples": n} for n in (3, 3, 2, 2)]
    hyperplane = {"params": ["u1", "u2", "u3", "u4"], "components": ["u1", "u2", "0", "u3", "u4"],
                  "domain": {"axes": axes}}
    for structure in (0, 1):
        cfg = _cfg(ambient={"catalog": "kenmotsu_hyperbolic"}, immersion=hyperplane,
                   checks=[{"op": "residual"}, {"op": "gauss"}] + [{"op": "structure"}] * structure)
        runs.clear()
        rep = run_check(cfg)
        samples = rep.aggregates["points_total"]
        blocks = math.ceil(samples / scenario._block_rows(cfg, scenario.JET_ORDER))
        assert rep.aggregates["points_failed"] == 0 and samples > blocks > 1
        assert len(rep.checks) == 2 + structure
        # the blocks' metric is the one their calculus evaluated as jets
        assert runs["metric"] == structure
        for name in ("phi", "reeb"):
            assert runs[name] == blocks + structure, (name, runs[name], blocks)
        assert runs["coeffs"] == blocks
        assert runs["components"] == structure


def _legendre_torus_doc():
    # the flat Legendre torus (s e^{i t1}, s e^{i t2}, sqrt(1 - 2 s^2) e^{i t3})
    # of S^5, t1 = u1 + (1 - 2 s^2) u2, t2 = -u1 + (1 - 2 s^2) u2, t3 = -2 s^2 u2:
    # proper biharmonic at s = 1/2, minimal at s = 1/sqrt(3); s runs inside
    # sqrt and ^ on the embedded backend
    t = "(1 - 2*s^2)*u2"
    return {
        "ambient": {"catalog": "sasakian_sphere_s5"},
        "immersion": {
            "components": [f"s*cos(u1 + {t})", f"s*sin(u1 + {t})",
                           f"s*cos(-u1 + {t})", f"s*sin(-u1 + {t})",
                           "sqrt(1 - 2*s^2)*cos(-2*s^2*u2)", "sqrt(1 - 2*s^2)*sin(-2*s^2*u2)"],
            "params": ["u1", "u2"],
            "domain": {"axes": [{"lo": 0.3, "hi": 2.0, "samples": 2},
                                 {"lo": 0.4, "hi": 2.5, "samples": 2}]},
        },
        "constants": {"s": 0.5},
        "checks": [{"op": "residual"}],
    }


def test_sweep_reports_a_root_that_falls_on_a_sample():
    # s = 0.5 is a sample of both ranges and |f| there is roundoff: Brent
    # returns the sample itself, which is a root, not a discontinuity
    cfg = load_scenario(_legendre_torus_doc())
    res = sweep_solve(cfg, "s", 0.2, 0.7, 11, "normal_residual")
    assert res.values[6] == 0.5 and abs(res.objective[6]) < 1e-14
    # the minimal root: within 1e-9 of it |H| is too small to sign the residual
    assert res.roots == [0.5, pytest.approx(1.0 / math.sqrt(3.0), abs=1e-8)]
    assert res.discontinuities == [] and res.partial == []
    res = sweep_solve(cfg, "s", 0.42, 0.56, 8, "normal_residual")
    assert res.roots == [0.5] and res.discontinuities == []


def _tan_pole_doc():
    # alpha = tan(c) over the flat metric: a pole at c = pi/2
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return {
        "ambient": {
            "kind": "generalized_complex", "backend": "chart", "dim": 4,
            "coordinates": ["x1", "y1", "x2", "y2"], "metric": eye,
            "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "coefficients": {"alpha": "tan(c)", "beta": "0"},
        },
        "immersion": {"catalog": "round_hypersphere", "params": {"r": 1.3}},
        "constants": {"c": 1.2},
        "domain": {"axes": [{"lo": 0.6, "hi": 1.2, "samples": 1},
                            {"lo": 0.5, "hi": 1.0, "samples": 1},
                            {"lo": 0.3, "hi": 1.0, "samples": 2}]},
    }


def _geodesic_sweep_doc():
    return {"ambient": {"catalog": "cp2"},
            "immersion": {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}},
            "domain": GEODESIC_SWEEP_DOMAIN, "checks": [{"op": "residual"}]}


def _failing_everywhere_doc():
    doc = _partial_sweep_doc()
    doc["immersion"]["components"][2] = "u1*u1 + 0*sqrt(c - 1)"
    return doc


@pytest.mark.parametrize("doc, parameter, sweep_range, objective", [
    (_geodesic_sweep_doc(), "r", (0.2, 1.2, 50), "characterization_gap"),  # criterion 6
    (_partial_sweep_doc(), "c", (0.2, 0.8, 3), "characterization_gap"),    # a partial value
    (_failing_everywhere_doc(), "c", (0.5, 2.0, 4), "characterization_gap"),  # an all-failed one
    (_geodesic_sweep_doc(), "rho", (0.5, 1.5, 6), "normal_residual"),      # an ambient parameter
    (_geodesic_sweep_doc(), "rho", (0.5, 1.5, 6), "characterization_gap"),
    (_tan_pole_doc(), "c", (1.2, 2.0, 5), "characterization_gap"),         # an inline ambient's
    (_legendre_torus_doc(), "s", (0.2, 0.7, 11), "normal_residual"),       # embedded backend
], ids=["criterion-6", "partial", "all-failed", "cp2-rho-residual", "cp2-rho-gap", "tan-pole",
        "legendre-torus"])
def test_sweep_over_shared_blocks_equals_the_per_value_loop_bitwise(
        monkeypatch, doc, parameter, sweep_range, objective):
    import biharm.scenario as scenario

    cfg = load_scenario(doc)
    res = sweep_solve(cfg, parameter, *sweep_range, objective)
    expected = [_value_objective(cfg.with_constant(parameter, x), objective) for x in res.values]
    assert _same(res.objective, expected)
    nan_values = [x for x, y in zip(res.values, expected) if math.isnan(y)]
    assert res.partial[:len(nan_values)] == nan_values
    # one-sample blocks and one value per grid run: the loop of single points
    monkeypatch.setattr(scenario, "_block_rows", lambda cfg, order: 1)
    assert _same(res, sweep_solve(cfg, parameter, *sweep_range, objective))


def test_sweep_rewrites_a_catalog_ambient_parameter():
    # rho named in the ambient's params, which override the constants: each
    # sampled value is the document loaded with that rho in its params
    doc = _geodesic_sweep_doc()
    doc["ambient"]["params"] = {"rho": 1.0}
    res = sweep_solve(load_scenario(doc), "rho", 0.5, 1.5, 3)
    expected = []
    for x in res.values:
        doc["ambient"]["params"]["rho"] = x
        expected.append(_value_objective(load_scenario(doc), "characterization_gap"))
    assert _same(res.objective, expected)
    assert len(set(expected)) == 3


@pytest.mark.parametrize("objective", ["characterization_gap", "normal_residual"])
def test_sampled_values_on_a_root_are_roots(objective):
    # a plane is minimal in flat C^2 at every c: both objectives read 0.0 at
    # every sampled value, the last one included
    cfg = _cfg(constants={"c": 0.0}, immersion={
        "params": ["u1", "u2"], "components": ["u1", "u2", "0*c", "0"],
        "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 2}] * 2}})
    res = sweep_solve(cfg, "c", 0.0, 1.0, 3, objective)
    assert res.objective == [0.0, 0.0, 0.0]
    assert res.roots == [0.0, 0.5, 1.0] and res.discontinuities == []


def test_cli_sweep_over_a_constant_shadowed_by_a_parameter(tmp_path, capsys):
    # the constant u1 is shadowed by the immersion's parameter u1: sweeping it
    # leaves the inline params as they are, the objective is constant, and
    # a note on stderr says that no expression reads it
    scn = tmp_path / "shadowed.json"
    scn.write_text(json.dumps({
        "ambient": {"catalog": "flat_c2"},
        "constants": {"u1": 0.5},
        "immersion": {"params": ["u1", "u2"], "components": ["cos(u1)", "sin(u1)", "u2", "0"],
                      "domain": {"axes": [{"lo": 0, "hi": 1, "samples": 3},
                                          {"lo": 0, "hi": 1, "samples": 2}]}},
    }))
    assert cli_main(["sweep", str(scn), "--param", "u1", "--range", "0:1:3"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert len(set(out["samples"])) == 1 and out["roots"] == [] and out["partial"] == []
    assert captured.err == ("note: no expression of the scenario reads 'u1'; "
                            "the objective does not depend on it\n")


def test_criterion_6_sweep_shares_geometry_blocks_between_values(monkeypatch):
    # the 50 sampled values run as shared blocks, Brent's steps one value each
    import biharm.scenario as scenario

    base = load_scenario(_geodesic_sweep_doc())
    rows = scenario._block_rows(base, 2)  # characterization_gap runs at jet order 2
    samples = 50 * len(base.immersion.grid())
    calls = _count_calls(monkeypatch, scenario, ("point_geometry", "load_scenario"))
    res = sweep_solve(base, "r", 0.2, 1.2, 50, "characterization_gap")
    assert len(res.roots) == 1
    brent = calls["load_scenario"] - 50
    assert calls["point_geometry"] <= math.ceil(samples / rows) + brent


def test_a_faulting_value_costs_its_shared_block_at_most_one_call(monkeypatch):
    # a block that faults reruns each value's rows as a block of their own,
    # and only a faulting value's rows one sample at a time: at most one
    # call per shared block more than running each value's grid alone
    import biharm.scenario as scenario

    cfg = load_scenario(_partial_sweep_doc())
    calls = _count_calls(monkeypatch, scenario, ("point_geometry",))
    res = sweep_solve(cfg, "c", 0.2, 0.8, 25)
    assert res.partial and res.roots == [] and res.discontinuities == []
    shared, calls["point_geometry"] = calls["point_geometry"], 0
    for x in res.values:
        _value_objective(cfg.with_constant("c", x), "characterization_gap")
    blocks = math.ceil(len(res.values) * len(cfg.immersion.grid()) / scenario._block_rows(cfg, 2))
    assert shared <= calls["point_geometry"] + blocks
