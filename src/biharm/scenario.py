"""Scenario configuration, grid execution, sweeps and reports.

A scenario is a JSON document naming an ambient model and an immersion
(catalog entries or inline expressions), a sampling domain, constants, and
a list of requested checks.  ``run_check`` evaluates every check at every
grid sample and aggregates into a deterministic report; ``sweep_solve``
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
    GENERAL,
    CLOSED_FORM,
    PointData,
    bound_check,
    cmc_characterization,
    nonexistence_audit,
    proper_biharmonic_verdict,
    reduction_residual,
    residual_gcsf,
    residual_general,
    residual_gssf,
)
from .structure import classify, decompose, verify_relations
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

KNOWN_CHECKS = (
    "residual",
    "characterization",
    "bound",
    "audit",
    "relations",
    "gauss",
    "structure",
    "pseudo_umbilical",
)

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
        if op not in KNOWN_CHECKS:
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


@dataclass
class PointRecord:
    u: tuple
    error: str | None = None
    data: PointData | None = None
    relations: dict | None = None
    scal_pair: tuple | None = None
    branch: str | None = None
    eta_h: float | None = None
    h_vec: np.ndarray | None = None
    residual_normal_vec: np.ndarray | None = None
    signed_normal: float | None = None


def _require_finite(pg, residuals, scal):
    """Raise DomainError naming every sample quantity that is not finite."""
    values = {"|H|": pg.mean_curvature_norm, "|B|^2": pg.second_fundamental_norm2,
              "intrinsic scalar curvature": scal[0], "Gauss scalar curvature": scal[1]}
    for name, res in residuals.items():
        values[f"{name} normal residual"] = res.normal_norm
        values[f"{name} tangential residual"] = res.tangential_norm
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise DomainError("non-finite " + ", ".join(bad))


def _evaluate_point(cfg: ScenarioConfig, u) -> PointRecord:
    """Every check's per-sample data at ``u``; a geometric, arithmetic or
    non-finite fault fails just this point, naming the reason."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _evaluate_point_data(cfg, u)
    except (GeometryError, ArithmeticError, np.linalg.LinAlgError) as e:
        return PointRecord(u=tuple(u), error=str(e))


def _evaluate_point_data(cfg: ScenarioConfig, u) -> PointRecord:
    space, imm = cfg.ambient, cfg.immersion
    pg = point_geometry(space, imm, u, cfg.order)
    nd = normal_derivatives(pg)
    ops = decompose(space, pg.position, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, (pg.m, space.dim), pg.mean_normal_components)
    residuals = {GENERAL: residual_general(space, pg, nd)}
    red = None
    if space.kind == KIND_COMPLEX:
        if pg.m < 4:
            residuals.update(residual_gcsf(space, pg, nd, ops, flags))
    else:
        residuals.update(residual_gssf(space, pg, nd, ops, flags))
        red = reduction_residual(space, pg, ops)
    branch = CLOSED_FORM if CLOSED_FORM in residuals else GENERAL
    for name in BRANCH_PRIORITY[space.kind]:
        if name in residuals:
            branch = name
            break
    _, dev = pseudo_umbilical_check(pg)
    scal = scalar_curvature(space, pg)
    _require_finite(pg, residuals, scal)
    data = PointData(
        u=tuple(u),
        h_norm=pg.mean_curvature_norm,
        b_norm2=pg.second_fundamental_norm2,
        coeffs=coefficients_at(space, pg.position),
        flags=flags,
        scal_intrinsic=scal[0],
        scal_via_gauss=scal[1],
        pseudo_deviation=dev,
        nabla_h_norm=nd.nabla_norm,
        reduction_residual=red,
        residuals=residuals,
    )
    gen = residuals[GENERAL]
    signed = None
    if pg.mean_curvature_norm > 1e-9:
        from .ambient import metric_at

        g = metric_at(space, pg.position)
        signed = float(gen.normal @ g @ pg.mean_curvature) / pg.mean_curvature_norm
    eta_h = None
    if ops.xi_nor is not None:
        eta_h = float(ops.xi_nor @ pg.mean_normal_components)
    return PointRecord(
        u=tuple(u), data=data, relations=verify_relations(ops), scal_pair=scal,
        branch=branch, eta_h=eta_h, h_vec=pg.mean_curvature,
        residual_normal_vec=gen.normal, signed_normal=signed,
    )


def _run_grid(cfg: ScenarioConfig) -> list[PointRecord]:
    return [_evaluate_point(cfg, u) for u in cfg.immersion.grid()]


def _flag_consensus(datas) -> dict:
    out = {}
    for name in ("is_curve", "is_hypersurface", "is_complex", "is_lagrangian",
                 "is_invariant", "is_anti_invariant", "xi_tangent", "xi_normal",
                 "phi_h_tangent", "phi_h_normal"):
        vals = [getattr(d.flags, name) for d in datas]
        known = [v for v in vals if v is not None]
        out[name] = bool(known) and all(known) if known else None
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
    """Evaluate every requested check on the scenario grid."""
    records = _run_grid(cfg)
    ok = [r for r in records if r.error is None]
    datas = [r.data for r in ok]
    if not datas:
        raise GeometryError(
            "no grid point evaluated cleanly: " + (records[0].error or "empty grid"))

    hs = [d.h_norm for d in datas]
    cmc = (max(hs) - min(hs)) < 1e-7 * (1.0 + max(hs))
    verdict = proper_biharmonic_verdict(datas)
    flags = _flag_consensus(datas)

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
        "cmc": cmc,
        "max_normal_residual": max(d.residuals[GENERAL].normal_norm for d in datas),
        "max_tangential_residual": max(d.residuals[GENERAL].tangential_norm for d in datas),
        "max_closed_form_vs_general": closed_form_gap,
        "max_branch_vs_general": branch_gap,
        "verdict": verdict,
        "classification": flags,
        "branch": ok[0].branch,
    }

    checks_out = {}
    for spec in cfg.checks:
        checks_out[spec.op] = _run_single_check(cfg, spec, records, datas, aggregates)

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
            "tolerances": {"proper_residual": 1e-6, "minimal_h": 1e-6,
                           "classification": 1e-8},
        },
        "points": points_doc,
        "aggregates": aggregates,
        "checks": checks_out,
    }
    return Report(document)


def _run_single_check(cfg, spec, records, datas, aggregates) -> dict:
    space = cfg.ambient
    m = cfg.immersion.dim
    tol = spec.tol
    if spec.op == "residual":
        t = tol if tol is not None else 1e-6
        worst = max(max(d.residuals[GENERAL].normal_norm,
                        d.residuals[GENERAL].tangential_norm) for d in datas)
        return {
            "op": "residual",
            "tol": t,
            "max_residual": worst,
            "status": "ok" if worst <= t else "violated",
            "verdict": aggregates["verdict"],
            "terms": {k: max(d.residuals[GENERAL].terms[k] for d in datas)
                      for k in datas[0].residuals[GENERAL].terms},
        }
    if spec.op == "characterization":
        v = cmc_characterization(space, datas, m, tol=tol if tol is not None else 1e-5)
        return {
            "op": "characterization", "status": v.verdict, "target": v.target,
            "gap": v.gap, "hypotheses": v.hypotheses,
            "failed_hypothesis": v.failed_hypothesis, "scalar_check": v.scalar_check,
        }
    if spec.op == "bound":
        b = bound_check(space, datas, m, kind=spec.params.get("kind"),
                        tol=tol if tol is not None else 1e-8)
        return {
            "op": "bound", "kind": b.kind, "status": b.verdict, "k_value": b.k_value,
            "bound": b.bound, "h2": b.h2, "within_bound": b.within_bound,
            "equality": b.equality, "equality_case": b.equality_case,
            "hypotheses": b.hypotheses, "failed_hypothesis": b.failed_hypothesis,
        }
    if spec.op == "audit":
        findings = nonexistence_audit(space, datas, m)
        contradiction = any(
            f.relevant and f.applies for f in findings
        ) and aggregates["verdict"] == "ProperBiharmonic"
        return {
            "op": "audit",
            "status": "contradiction" if contradiction else "ok",
            "findings": [
                {"rule": f.rule, "relevant": f.relevant, "applies": f.applies,
                 "detail": f.detail}
                for f in findings
            ],
        }
    if spec.op == "relations":
        t = tol if tol is not None else 1e-10
        worst = {}
        for r in records:
            if r.relations:
                for k, v in r.relations.items():
                    worst[k] = max(worst.get(k, 0.0), v)
        status = "ok" if worst and max(worst.values()) <= t else "violated"
        return {"op": "relations", "tol": t, "residuals": worst, "status": status}
    if spec.op == "gauss":
        t = tol if tol is not None else 1e-6
        worst = max(abs(d.scal_intrinsic - d.scal_via_gauss) for d in datas)
        out = {"op": "gauss", "tol": t, "max_gap": worst,
               "status": "ok" if worst <= t else "violated"}
        if space.kind == KIND_COMPLEX and m == 3:
            form = max(
                abs(d.scal_via_gauss
                    - (6.0 * (d.coeffs[0] + d.coeffs[1]) - d.b_norm2 + 9.0 * d.h_norm**2))
                for d in datas)
            out["hypersurface_form_gap"] = form
        return out
    if spec.op == "structure":
        t = tol if tol is not None else 1e-9
        from .exprs import evaluate_expr

        pts = []
        for r in records:
            if r.error is None:
                pts.append([evaluate_expr(c, r.u, cfg.immersion.bindings)
                            for c in cfg.immersion.components])
            if len(pts) == 6:
                break
        rep = verify_structure(space, pts)
        return {"op": "structure", "tol": t, "residuals": rep.residuals,
                "status": "ok" if rep.ok(t) else "violated"}
    if spec.op == "pseudo_umbilical":
        devs = [d.pseudo_deviation for d in datas if d.pseudo_deviation is not None]
        if not devs:
            return {"op": "pseudo_umbilical", "status": "NotApplicable"}
        t = tol if tol is not None else 1e-8
        return {"op": "pseudo_umbilical", "max_deviation": max(devs),
                "status": "ok" if max(devs) < t else "violated"}
    raise ConfigError(f"unhandled check {spec.op!r}")


# -- parameter sweeps --------------------------------------------------------------


@dataclass
class SweepResult:
    parameter: str
    values: list[float]
    objective: list[float]
    roots: list[float]
    objective_name: str


def _sweep_objective(cfg: ScenarioConfig, objective: str) -> float:
    records = _run_grid(cfg)
    datas = [r.data for r in records if r.error is None]
    if not datas:
        raise GeometryError("sweep point failed everywhere")
    if objective == "normal_residual":
        anchor = next(r for r in records if r.error is None)
        if anchor.signed_normal is not None:
            return anchor.signed_normal
        return max(d.residuals[GENERAL].normal_norm for d in datas)
    if objective == "characterization_gap":
        space = cfg.ambient
        m = cfg.immersion.dim
        gaps = []
        for d in datas:
            if space.kind == KIND_COMPLEX:
                target = 3.0 * (d.coeffs[0] + d.coeffs[1])
            else:
                target = m * d.coeffs[0] - d.coeffs[1] + 3.0 * d.coeffs[2]
            gaps.append(d.b_norm2 - target)
        return float(np.mean(gaps))
    raise ConfigError(f"unknown sweep objective {objective!r}")


def sweep_solve(cfg: ScenarioConfig, parameter: str, lo: float, hi: float,
                samples: int, objective: str = "characterization_gap",
                xtol: float = 1e-10) -> SweepResult:
    """Sample the objective over a constant's range and bisect each sign change."""
    known = set(cfg.constants) | set(cfg.immersion.bindings) | set(cfg.ambient.bindings)
    if parameter not in known:
        raise ConfigError(f"constant {parameter!r} does not appear in the config",
                          "sweep.parameter")

    def f(value: float) -> float:
        return _sweep_objective(cfg.with_constant(parameter, value), objective)

    xs = list(np.linspace(lo, hi, samples))
    ys = [f(x) for x in xs]
    roots = []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 == 0.0:
            roots.append(x0)
            continue
        if y0 * y1 < 0.0:
            a, b, fa = x0, x1, y0
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0 or (b - a) < xtol:
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if ys and ys[-1] == 0.0:
        roots.append(xs[-1])
    return SweepResult(parameter, xs, ys, roots, objective)


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
