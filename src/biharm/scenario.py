"""Scenario configuration, grid execution, sweeps and reports.

A scenario is a JSON document naming an ambient model and an immersion
(catalog entries or inline expressions), a sampling domain, constants, and
a list of requested checks.  ``run_check`` evaluates every check at every
grid sample, computing only the per-sample quantities the requested checks
declare, and aggregates into a deterministic report; ``sweep_solve``
root-finds along one named constant; ``convergence_study`` replays the
finite-difference oracle at shrinking steps.

Document schema (see README for the full field list)::

    {
      "schema_version": 1,
      "ambient":   {"catalog": "cp2", "params": {"rho": 1.0}} | {inline...},
      "immersion": {"catalog": "geodesic_sphere_cp2", "params": {"r": 0.5}}
                   | {"components": [...], "params": [...], ...},
      "domain":    {"axes": [{"lo": 0, "hi": 6.28, "samples": 3,
                              "periodic": true}, ...]},
      "constants": {"name": value, ...},
      "checks":    [{"op": "residual", "tol": 1e-6}, ...],
      "expect":    {"verdict": "ProperBiharmonic", ...}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import catalog
from .ambient import (
    KIND_COMPLEX,
    KIND_CONTACT,
    AmbientModel,
    ClassicalTag,
    GeometryError,
    coefficients_at,
    verify_structure,
)
from .exprs import ExprError, ExprSyntaxError, parse_expression
from .jets import DomainError
from .residuals import (
    CLOSED_FORM,
    GENERAL,
    MINIMAL_TOL,
    PROPER_TOL,
    PointData,
    _cmc,
    bound_check,
    cmc_characterization,
    nonexistence_audit,
    proper_biharmonic_verdict,
    reduction_residual,
    residual_gcsf,
    residual_general,
    residual_gssf,
)
from .structure import CLASSIFY_TOL, classify, decompose, verify_relations
from .submanifold import (
    Axis,
    ImmersionModel,
    fd_normal_laplacian,
    normal_derivatives,
    point_geometry,
    pseudo_umbilical_check,
    scalar_curvature,
)

SCHEMA_VERSION = 1

BRANCH_PRIORITY = {
    KIND_COMPLEX: ("curve", "hypersurface", "complex_surface", "lagrangian_surface"),
    KIND_CONTACT: ("hypersurface", "xi_normal", "xi_tangent", "invariant", "anti_invariant"),
}


class ConfigError(Exception):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass
class CheckSpec:
    op: str
    tol: float | None = None
    params: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    ambient: AmbientModel
    immersion: ImmersionModel
    checks: list[CheckSpec]
    constants: dict
    expect: dict
    order: int = 4
    raw: dict = field(default_factory=dict)

    def with_constant(self, name: str, value: float) -> "ScenarioConfig":
        doc = json.loads(json.dumps(self.raw))
        doc.setdefault("constants", {})[name] = value
        imm = doc.get("immersion", {})
        if isinstance(imm, dict) and name in imm.get("params", {}):
            imm["params"][name] = value
        amb = doc.get("ambient", {})
        if isinstance(amb, dict) and name in amb.get("params", {}):
            amb["params"][name] = value
        return load_scenario(doc)


def _require(doc, key, path):
    if key not in doc:
        raise ConfigError(f"missing field {key!r}", path)
    return doc[key]


def _load_ambient(doc, constants, path) -> AmbientModel:
    if not isinstance(doc, dict):
        raise ConfigError("expected a mapping", path)
    if "catalog" in doc:
        name = doc["catalog"]
        try:
            space = catalog.ambient(name, doc.get("params"))
        except KeyError as e:
            raise ConfigError(str(e), path + ".catalog") from None
        space.bindings.update({k: float(v) for k, v in constants.items()
                               if k not in space.bindings})
        return space
    kind = _require(doc, "kind", path)
    if kind not in (KIND_COMPLEX, KIND_CONTACT):
        raise ConfigError(f"unknown kind {kind!r}", path + ".kind")
    coords = tuple(_require(doc, "coordinates", path))

    def mat(key):
        rows = _require(doc, key, path)
        out = []
        for i, row in enumerate(rows):
            out.append(tuple(_parse(e, coords, f"{path}.{key}[{i}][{j}]")
                             for j, e in enumerate(row)))
        return tuple(out)

    def vec(key, source=None):
        entries = source if source is not None else _require(doc, key, path)
        return tuple(_parse(e, coords, f"{path}.{key}[{i}]")
                     for i, e in enumerate(entries))

    coeffs_doc = _require(doc, "coefficients", path)
    names = ("alpha", "beta") if kind == KIND_COMPLEX else ("f1", "f2", "f3")
    coeffs = vec("coefficients", [str(_require(coeffs_doc, n, path + ".coefficients"))
                                  for n in names])
    tag = None
    if doc.get("tag"):
        tag = ClassicalTag(doc["tag"]["family"], float(doc["tag"]["value"]))
    kwargs = dict(
        name=doc.get("name", "inline"),
        kind=kind,
        backend=doc.get("backend", "chart"),
        dim=int(_require(doc, "dim", path)),
        coords=coords,
        coeffs=coeffs,
        tag=tag,
        bindings={k: float(v) for k, v in constants.items()},
    )
    if kind == KIND_COMPLEX:
        kwargs["cstruct"] = mat("complex_structure")
    else:
        kwargs["phi"] = mat("phi")
        kwargs["reeb"] = vec("reeb")
    if kwargs["backend"] == "chart":
        kwargs["metric"] = mat("metric")
    else:
        params = tuple(_require(doc, "embedding_params", path))
        kwargs["embed_params"] = params
        kwargs["embed_map"] = tuple(
            _parse(e, params, f"{path}.embedding[{i}]")
            for i, e in enumerate(_require(doc, "embedding", path)))
        kwargs["normals"] = tuple(
            vec("normals", nf) for nf in _require(doc, "normals", path))
    try:
        return AmbientModel(**kwargs)
    except GeometryError as e:
        raise ConfigError(str(e), path) from None


def _parse(source, params, path):
    try:
        return parse_expression(str(source), params)
    except ExprSyntaxError as e:
        raise ConfigError(f"parse error: {e}", path) from None
    except ExprError as e:
        raise ConfigError(str(e), path) from None


def _load_immersion(doc, space, constants, path) -> ImmersionModel:
    if not isinstance(doc, dict):
        raise ConfigError("expected a mapping", path)
    if "catalog" in doc:
        try:
            imm = catalog.immersion(doc["catalog"], space, doc.get("params"))
        except KeyError as e:
            raise ConfigError(str(e), path + ".catalog") from None
        except ValueError as e:
            raise ConfigError(str(e), path) from None
    else:
        params = tuple(_require(doc, "params", path))
        comps = _require(doc, "components", path)
        if len(comps) != space.rep_dim:
            raise ConfigError(
                f"{len(comps)} components for ambient of representation "
                f"dimension {space.rep_dim}", path + ".components")
        components = tuple(
            _parse(c, params, f"{path}.components[{i}]") for i, c in enumerate(comps))
        axes_doc = _require(doc, "domain", path).get("axes")
        axes = _load_axes(axes_doc, path + ".domain")
        if len(axes) != len(params):
            raise ConfigError("one domain axis per parameter is required", path + ".domain")
        imm = ImmersionModel(
            name=doc.get("name", "inline"),
            dim=len(params),
            params=params,
            components=components,
            domain=axes,
            bindings={},
        )
    if imm.dim >= space.dim:
        raise ConfigError(
            f"immersion dimension {imm.dim} must be below ambient dimension {space.dim}",
            path)
    merged = dict(constants)
    merged.update(imm.bindings)
    imm.bindings = merged
    return imm


def _load_axes(axes_doc, path) -> tuple[Axis, ...]:
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ConfigError("expected a non-empty list of axes", path)
    axes = []
    for i, ax in enumerate(axes_doc):
        try:
            axes.append(Axis(
                lo=float(_require(ax, "lo", f"{path}.axes[{i}]")),
                hi=float(_require(ax, "hi", f"{path}.axes[{i}]")),
                samples=int(_require(ax, "samples", f"{path}.axes[{i}]")),
                periodic=bool(ax.get("periodic", False)),
            ))
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e), f"{path}.axes[{i}]") from None
        if axes[-1].samples < 1 or axes[-1].hi <= axes[-1].lo:
            raise ConfigError("need hi > lo and samples >= 1", f"{path}.axes[{i}]")
    return tuple(axes)


def load_scenario(document) -> ScenarioConfig:
    """Validate a config document (dict or JSON text) into a ScenarioConfig."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}", "schema_version")
    constants = {str(k): float(v) for k, v in doc.get("constants", {}).items()}
    space = _load_ambient(_require(doc, "ambient", ""), constants, "ambient")
    imm = _load_immersion(_require(doc, "immersion", ""), space, constants, "immersion")
    if "domain" in doc:
        axes = _load_axes(doc["domain"].get("axes"), "domain")
        if len(axes) != imm.dim:
            raise ConfigError("one axis per immersion parameter", "domain")
        imm.domain = axes
    checks = []
    for i, c in enumerate(doc.get("checks", [{"op": "residual"}])):
        op = _require(c, "op", f"checks[{i}]")
        if op not in CHECKS:
            raise ConfigError(f"unknown check op {op!r}", f"checks[{i}].op")
        if any(spec.op == op for spec in checks):
            raise ConfigError(f"duplicate check op {op!r}", f"checks[{i}].op")
        extra = {k: v for k, v in c.items() if k not in ("op", "tol")}
        checks.append(CheckSpec(op, c.get("tol"), extra))
    order = int(doc.get("order", 4))
    if order < 4:
        raise ConfigError("jet order below 4 cannot feed the normal Laplacian", "order")
    return ScenarioConfig(
        ambient=space,
        immersion=imm,
        checks=checks,
        constants=constants,
        expect=doc.get("expect", {}),
        order=order,
        raw=doc,
    )


# -- grid evaluation -------------------------------------------------------------
#
# Per-sample quantities.  Every check and every sweep objective declares the
# ones it reads; a grid run computes only their union, together with what
# they rest on, and gates exactly those for finiteness.

GEOMETRY = "geometry"            # frames, B and H; |H| and |B|^2 (always computed)
COEFFICIENTS = "coefficients"    # curvature coefficients at the sample
NORMAL = "normal_derivatives"    # nabla-perp H and its normal Laplacian
SPLIT = "split"                  # tangential/normal split of J or phi, flags
RESIDUALS = "residuals"          # general, closed-form and branch residuals
SCALAR = "scalar_curvature"      # intrinsic and Gauss-equation scalar curvature
RELATIONS = "relations"          # algebraic relations of the split
PSEUDO = "pseudo_umbilical"      # deviation of A_H from |H|^2 Id

QUANTITIES = frozenset((GEOMETRY, COEFFICIENTS, NORMAL, SPLIT, RESIDUALS, SCALAR,
                        RELATIONS, PSEUDO))
_REQUIRES = {RESIDUALS: (NORMAL, SPLIT), RELATIONS: (SPLIT,)}
# |H|, |B|^2 and the coefficients read jets only to second order, and come
# out bitwise the same at jet order 2 as at order 4
_ORDER2 = frozenset((GEOMETRY, COEFFICIENTS))


@dataclass
class PointRecord:
    u: tuple
    error: str | None = None
    data: PointData | None = None
    relations: dict | None = None
    branch: str | None = None
    signed_normal: float | None = None


def _require_finite(data: PointData):
    """Raise DomainError naming every computed sample quantity that is not finite."""
    values = {"|H|": data.h_norm, "|B|^2": data.b_norm2}
    if data.scal_intrinsic is not None:
        values["intrinsic scalar curvature"] = data.scal_intrinsic
        values["Gauss scalar curvature"] = data.scal_via_gauss
    for name, res in data.residuals.items():
        values[f"{name} normal residual"] = res.normal_norm
        values[f"{name} tangential residual"] = res.tangential_norm
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise DomainError("non-finite " + ", ".join(bad))


def _evaluate_point(cfg: ScenarioConfig, u, needs: frozenset) -> PointRecord:
    """The quantities ``needs`` at ``u``, each listed with what it rests on;
    a geometric, arithmetic or non-finite fault fails just this point,
    naming the reason."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _evaluate_point_data(cfg, u, needs)
    except (GeometryError, ArithmeticError, np.linalg.LinAlgError) as e:
        return PointRecord(u=tuple(u), error=str(e))


def _evaluate_point_data(cfg: ScenarioConfig, u, needs: frozenset) -> PointRecord:
    space, imm = cfg.ambient, cfg.immersion
    pg = point_geometry(space, imm, u, 2 if needs <= _ORDER2 else cfg.order)
    data = PointData(u=tuple(u), h_norm=pg.mean_curvature_norm,
                     b_norm2=pg.second_fundamental_norm2)
    record = PointRecord(u=tuple(u), data=data)
    if NORMAL in needs:
        nd = normal_derivatives(pg)
        data.nabla_h_norm = nd.nabla_norm
    if SPLIT in needs:
        ops = decompose(space, pg.position, pg.tangent_frame, pg.normal_frame)
        data.flags = classify(ops, (pg.m, space.dim), pg.mean_normal_components)
    if RESIDUALS in needs:
        residuals = data.residuals = {GENERAL: residual_general(space, pg, nd)}
        if space.kind == KIND_COMPLEX:
            if pg.m < 4:
                residuals.update(residual_gcsf(space, pg, nd, ops, data.flags))
        else:
            residuals.update(residual_gssf(space, pg, nd, ops, data.flags))
            data.reduction_residual = reduction_residual(space, pg, ops)
        record.branch = next((name for name in BRANCH_PRIORITY[space.kind] if name in residuals),
                             CLOSED_FORM if CLOSED_FORM in residuals else GENERAL)
    if PSEUDO in needs:
        _, data.pseudo_deviation = pseudo_umbilical_check(pg)
    if SCALAR in needs:
        data.scal_intrinsic, data.scal_via_gauss = scalar_curvature(space, pg)
    _require_finite(data)
    if COEFFICIENTS in needs:
        data.coeffs = coefficients_at(space, pg.position)
    if RESIDUALS in needs and pg.mean_curvature_norm > 1e-9:
        normal = data.residuals[GENERAL].normal
        record.signed_normal = (float(normal @ pg.ambient_metric @ pg.mean_curvature)
                                / pg.mean_curvature_norm)
    if RELATIONS in needs:
        record.relations = verify_relations(ops)
    return record


def _run_grid(cfg: ScenarioConfig, needs=QUANTITIES) -> list[PointRecord]:
    """``needs`` at every grid sample, with the geometry and what they rest on."""
    closed = {GEOMETRY, *needs}
    for q in needs:
        closed.update(_REQUIRES.get(q, ()))
    closed = frozenset(closed)
    return [_evaluate_point(cfg, u, closed) for u in cfg.immersion.grid()]


def _flag_consensus(datas) -> dict:
    out = {}
    flags = [d.flags.as_dict() for d in datas]
    for name in flags[0]:
        known = [f[name] for f in flags if f[name] is not None]
        out[name] = all(known) if known else None
    return out


@dataclass
class Report:
    document: dict

    @property
    def verdict(self) -> str:
        return self.document["aggregates"]["verdict"]

    @property
    def aggregates(self) -> dict:
        return self.document["aggregates"]

    @property
    def checks(self) -> dict:
        return self.document["checks"]


def run_check(cfg: ScenarioConfig) -> Report:
    """Evaluate every requested check on the scenario grid.

    The grid computes what the verdict and the aggregates read (geometry,
    normal derivatives, split, residuals) plus what the requested checks
    declare; see :data:`CHECKS`.
    """
    needs = {RESIDUALS}.union(*(CHECKS[spec.op].needs for spec in cfg.checks))
    records = _run_grid(cfg, needs)
    ok = [r for r in records if r.error is None]
    datas = [r.data for r in ok]
    if not datas:
        raise GeometryError(
            "no grid point evaluated cleanly: " + (records[0].error or "empty grid"))

    hs = [d.h_norm for d in datas]
    # a verdict must hold at every sample: a partial grid decides nothing
    verdict = proper_biharmonic_verdict(datas) if len(ok) == len(records) else "Inconclusive"

    branch_gap = 0.0
    closed_form_gap = 0.0
    for d in datas:
        gen = d.residuals[GENERAL]
        for name, res in d.residuals.items():
            gap = max(np.linalg.norm(res.normal - gen.normal),
                      np.linalg.norm(res.tangential - gen.tangential))
            if name == CLOSED_FORM:
                closed_form_gap = max(closed_form_gap, gap)
            elif name != GENERAL:
                branch_gap = max(branch_gap, gap)

    aggregates = {
        "points_total": len(records),
        "points_failed": len(records) - len(ok),
        "h_min": min(hs),
        "h_max": max(hs),
        "b_norm2_min": min(d.b_norm2 for d in datas),
        "b_norm2_max": max(d.b_norm2 for d in datas),
        "cmc": _cmc(datas)[0],
        "max_normal_residual": max(d.residuals[GENERAL].normal_norm for d in datas),
        "max_tangential_residual": max(d.residuals[GENERAL].tangential_norm for d in datas),
        "max_closed_form_vs_general": closed_form_gap,
        "max_branch_vs_general": branch_gap,
        "verdict": verdict,
        "classification": _flag_consensus(datas),
        "branch": ok[0].branch,
    }

    grid = _Grid(cfg, records, datas, aggregates)
    checks_out = {spec.op: CHECKS[spec.op].run(grid, spec) for spec in cfg.checks}

    points_doc = []
    for r in records:
        if r.error is not None:
            points_doc.append({"u": list(r.u), "error": r.error})
            continue
        d = r.data
        entry = {
            "u": list(r.u),
            "h_norm": d.h_norm,
            "b_norm2": d.b_norm2,
            "normal_residual": d.residuals[GENERAL].normal_norm,
            "tangential_residual": d.residuals[GENERAL].tangential_norm,
            "branch": r.branch,
            "flags": d.flags.as_dict(),
        }
        points_doc.append(entry)

    document = {
        "schema_version": SCHEMA_VERSION,
        "scenario": cfg.raw,
        "engine": {
            "jet_order": cfg.order,
            "grid": [ax.samples for ax in cfg.immersion.domain],
            "tolerances": {"proper_residual": PROPER_TOL, "minimal_h": MINIMAL_TOL,
                           "classification": CLASSIFY_TOL},
        },
        "points": points_doc,
        "aggregates": aggregates,
        "checks": checks_out,
    }
    return Report(document)


# -- checks ----------------------------------------------------------------------
#
# One function per check op, registered with the per-sample quantities it
# reads.  ``run_check`` hands each the grid and its CheckSpec.


@dataclass
class _Grid:
    cfg: ScenarioConfig
    records: list[PointRecord]
    datas: list[PointData]       # of the records that evaluated cleanly
    aggregates: dict


@dataclass(frozen=True)
class Declared:
    """A check or sweep objective and the per-sample quantities it reads."""

    needs: frozenset
    run: Callable


CHECKS: dict[str, Declared] = {}


def _declare(table: dict, name: str, *needs: str):
    def register(fn):
        table[name] = Declared(frozenset(needs), fn)
        return fn
    return register


@_declare(CHECKS, "residual", RESIDUALS)
def _check_residual(grid, spec) -> dict:
    datas = grid.datas
    t = spec.tol if spec.tol is not None else PROPER_TOL
    worst = max(max(d.residuals[GENERAL].normal_norm,
                    d.residuals[GENERAL].tangential_norm) for d in datas)
    return {
        "op": "residual",
        "tol": t,
        "max_residual": worst,
        "status": "ok" if worst <= t else "violated",
        "verdict": grid.aggregates["verdict"],
        "terms": {k: max(d.residuals[GENERAL].terms[k] for d in datas)
                  for k in datas[0].residuals[GENERAL].terms},
    }


@_declare(CHECKS, "characterization", COEFFICIENTS, SPLIT, RESIDUALS, SCALAR)
def _check_characterization(grid, spec) -> dict:
    v = cmc_characterization(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim,
                             tol=spec.tol if spec.tol is not None else 1e-5)
    return {
        "op": "characterization", "status": v.verdict, "target": v.target,
        "gap": v.gap, "hypotheses": v.hypotheses,
        "failed_hypothesis": v.failed_hypothesis, "scalar_check": v.scalar_check,
    }


@_declare(CHECKS, "bound", COEFFICIENTS, SPLIT, RESIDUALS, PSEUDO)
def _check_bound(grid, spec) -> dict:
    b = bound_check(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim,
                    kind=spec.params.get("kind"),
                    tol=spec.tol if spec.tol is not None else 1e-8)
    return {
        "op": "bound", "kind": b.kind, "status": b.verdict, "k_value": b.k_value,
        "bound": b.bound, "h2": b.h2, "within_bound": b.within_bound,
        "equality": b.equality, "equality_case": b.equality_case,
        "hypotheses": b.hypotheses, "failed_hypothesis": b.failed_hypothesis,
    }


@_declare(CHECKS, "audit", COEFFICIENTS, SPLIT)
def _check_audit(grid, spec) -> dict:
    findings = nonexistence_audit(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim)
    contradiction = any(
        f.relevant and f.applies for f in findings
    ) and grid.aggregates["verdict"] == "ProperBiharmonic"
    return {
        "op": "audit",
        "status": "contradiction" if contradiction else "ok",
        "findings": [
            {"rule": f.rule, "relevant": f.relevant, "applies": f.applies,
             "detail": f.detail}
            for f in findings
        ],
    }


@_declare(CHECKS, "relations", RELATIONS)
def _check_relations(grid, spec) -> dict:
    t = spec.tol if spec.tol is not None else 1e-10
    worst = {}
    for r in grid.records:
        if r.relations:
            for k, v in r.relations.items():
                worst[k] = max(worst.get(k, 0.0), v)
    status = "ok" if worst and max(worst.values()) <= t else "violated"
    return {"op": "relations", "tol": t, "residuals": worst, "status": status}


@_declare(CHECKS, "gauss", COEFFICIENTS, SCALAR)
def _check_gauss(grid, spec) -> dict:
    datas = grid.datas
    t = spec.tol if spec.tol is not None else 1e-6
    worst = max(abs(d.scal_intrinsic - d.scal_via_gauss) for d in datas)
    out = {"op": "gauss", "tol": t, "max_gap": worst,
           "status": "ok" if worst <= t else "violated"}
    if grid.cfg.ambient.kind == KIND_COMPLEX and grid.cfg.immersion.dim == 3:
        form = max(
            abs(d.scal_via_gauss
                - (6.0 * (d.coeffs[0] + d.coeffs[1]) - d.b_norm2 + 9.0 * d.h_norm**2))
            for d in datas)
        out["hypersurface_form_gap"] = form
    return out


@_declare(CHECKS, "structure", GEOMETRY)
def _check_structure(grid, spec) -> dict:
    t = spec.tol if spec.tol is not None else 1e-9
    pts = [grid.cfg.immersion.values("components", d.u) for d in grid.datas[:6]]
    rep = verify_structure(grid.cfg.ambient, pts)
    return {"op": "structure", "tol": t, "residuals": rep.residuals,
            "status": "ok" if rep.ok(t) else "violated"}


@_declare(CHECKS, "pseudo_umbilical", PSEUDO)
def _check_pseudo_umbilical(grid, spec) -> dict:
    devs = [d.pseudo_deviation for d in grid.datas if d.pseudo_deviation is not None]
    if not devs:
        return {"op": "pseudo_umbilical", "status": "NotApplicable"}
    t = spec.tol if spec.tol is not None else 1e-8
    return {"op": "pseudo_umbilical", "max_deviation": max(devs),
            "status": "ok" if max(devs) < t else "violated"}


# -- parameter sweeps --------------------------------------------------------------


@dataclass
class SweepResult:
    parameter: str
    values: list[float]
    objective: list[float]
    roots: list[float]
    objective_name: str
    # sign changes whose root-finding limit has |f| no smaller than at both
    # bracket ends: poles or jumps of the objective, not roots
    discontinuities: list[float] = field(default_factory=list)
    # parameter values where only part of the grid evaluated: the objective
    # is NaN there, and no root is bracketed across them
    partial: list[float] = field(default_factory=list)


SWEEP_OBJECTIVES: dict[str, Declared] = {}


@_declare(SWEEP_OBJECTIVES, "normal_residual", RESIDUALS)
def _objective_normal_residual(cfg, records) -> float:
    if records[0].signed_normal is not None:
        return records[0].signed_normal
    return max(r.data.residuals[GENERAL].normal_norm for r in records)


@_declare(SWEEP_OBJECTIVES, "characterization_gap", COEFFICIENTS)
def _objective_characterization_gap(cfg, records) -> float:
    m = cfg.immersion.dim
    gaps = []
    for d in (r.data for r in records):
        if cfg.ambient.kind == KIND_COMPLEX:
            target = 3.0 * (d.coeffs[0] + d.coeffs[1])
        else:
            target = m * d.coeffs[0] - d.coeffs[1] + 3.0 * d.coeffs[2]
        gaps.append(d.b_norm2 - target)
    return float(np.mean(gaps))


def _sweep_objective(cfg: ScenarioConfig, objective: str) -> float:
    """The objective on the scenario grid; NaN when part of the grid failed."""
    if objective not in SWEEP_OBJECTIVES:
        raise ConfigError(f"unknown sweep objective {objective!r}")
    declared = SWEEP_OBJECTIVES[objective]
    records = _run_grid(cfg, declared.needs)
    failed = sum(r.error is not None for r in records)
    if failed == len(records):
        raise GeometryError("sweep point failed everywhere")
    return math.nan if failed else declared.run(cfg, records)


_EPS = float(np.finfo(float).eps)


def _zeroin(f, a, b, fa, fb, xtol, maxiter=200):
    """Brent's zeroin on a bracket with f(a) f(b) < 0.

    Secant or inverse quadratic steps, and a bisection step whenever they
    would not shrink the bracket fast enough (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Returns ``(x, f(x))``
    at the end of the last bracket with the smaller |f|, once that bracket
    is within ``xtol``, or None if f turned NaN inside the bracket.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        if math.isnan(fb):
            return None
    return b, fb


def sweep_solve(cfg: ScenarioConfig, parameter: str, lo: float, hi: float,
                samples: int, objective: str = "characterization_gap",
                xtol: float = 1e-10) -> SweepResult:
    """Sample the objective over a constant's range and find the root in
    each sign change with Brent's method.

    A limit counts as a root only if |f| there is below |f| at both ends of
    its sampled bracket; otherwise the objective changed sign across a pole
    or a jump, and the limit is reported as a discontinuity.  A value whose
    grid evaluated only in part gives a NaN objective: it is listed under
    ``partial``, never ends a bracket, and a NaN inside a bracket ends that
    bracket's search.
    """
    known = set(cfg.constants) | set(cfg.immersion.bindings) | set(cfg.ambient.bindings)
    if parameter not in known:
        raise ConfigError(f"constant {parameter!r} does not appear in the config",
                          "sweep.parameter")
    partial = []

    def f(value: float) -> float:
        y = _sweep_objective(cfg.with_constant(parameter, value), objective)
        if math.isnan(y):
            partial.append(value)
        return y

    xs = list(np.linspace(lo, hi, samples))
    ys = [f(x) for x in xs]
    roots, jumps = [], []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 == 0.0:
            roots.append(x0)
        elif y0 * y1 < 0.0:  # false when either end is NaN
            limit = _zeroin(f, x0, x1, y0, y1, xtol)
            if limit is not None:
                x, fx = limit
                (roots if abs(fx) < min(abs(y0), abs(y1)) else jumps).append(x)
    if ys and ys[-1] == 0.0:
        roots.append(xs[-1])
    return SweepResult(parameter, xs, ys, roots, objective, jumps, partial)


def convergence_study(cfg: ScenarioConfig, steps=(0.05, 0.025, 0.0125), probe=None) -> dict:
    """Jet-vs-finite-difference comparison of the normal Laplacian at shrinking steps.

    Error against the jet value should shrink like h^2; the report carries
    the observed orders between consecutive steps.
    """
    imm = cfg.immersion
    if probe is None:
        probe = tuple(0.5 * (ax.lo + ax.hi) + 0.061 * (ax.hi - ax.lo) for ax in imm.domain)
    pg = point_geometry(cfg.ambient, imm, probe, cfg.order)
    nd = normal_derivatives(pg)
    exact = nd.laplacian
    errors = []
    for h in steps:
        fd = fd_normal_laplacian(cfg.ambient, imm, probe, h)
        errors.append(float(np.linalg.norm(fd - exact)))
    orders = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 0.0 and e1 > 0.0:
            orders.append(math.log2(e0 / e1))
    return {
        "probe": list(probe),
        "steps": list(steps),
        "errors": errors,
        "orders": orders,
        "min_order": min(orders) if orders else None,
        "laplacian_norm": float(np.linalg.norm(exact)),
    }


# -- report emission -----------------------------------------------------------------


def _fmt(value, digits):
    if isinstance(value, bool) or value is None:
        return "true" if value is True else ("false" if value is False else "null")
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return f"%.{digits}g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.floating):
        return _fmt(float(value), digits)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v, digits) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_fmt(v, digits)}" for k, v in items) + "}"
    return json.dumps(str(value))


def emit_report(report: Report, format: str = "document") -> str:
    """Serialize a report: ``document`` (JSON, 12 significant digits, sorted
    keys) or ``table`` (aligned text, 6 significant digits)."""
    if format == "document":
        return _fmt(report.document, 12)
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    agg = report.aggregates
    lines = [
        f"scenario   {report.document['scenario'].get('name', '')}".rstrip(),
        f"grid       {'x'.join(str(s) for s in report.document['engine']['grid'])}"
        f"  points {agg['points_total']}  failed {agg['points_failed']}",
        f"|H|        [{agg['h_min']:.6g}, {agg['h_max']:.6g}]  cmc={agg['cmc']}",
        f"|B|^2      [{agg['b_norm2_min']:.6g}, {agg['b_norm2_max']:.6g}]",
        f"residuals  normal {agg['max_normal_residual']:.6g}"
        f"  tangential {agg['max_tangential_residual']:.6g}",
        f"verdict    {agg['verdict']}",
        "",
        f"{'check':<18} {'status':<16} detail",
    ]
    for name, chk in report.checks.items():
        detail = {k: v for k, v in chk.items() if k not in ("op", "status")}
        short = ", ".join(
            f"{k}={_fmt(v, 6)}" for k, v in list(detail.items())[:3])
        lines.append(f"{name:<18} {str(chk.get('status')):<16} {short}")
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> dict:
    return json.loads(text)
