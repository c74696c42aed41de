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
    COMPLEX_SPACE_FORM,
    COSYMPLECTIC,
    KENMOTSU,
    KIND_COMPLEX,
    KIND_CONTACT,
    SASAKI,
    AmbientModel,
    ClassicalTag,
    GeometryError,
    coefficients_at,  # noqa: F401
    verify_structure,
)
from .exprs import (
    DEFAULT_BINDINGS,
    ExprError,
    ExprSyntaxError,
    expr_constants,
    parse_expression,
)
from .jets import DomainError, n_entries
from .residuals import (
    BOUND_KINDS,
    BOUND_TOL,
    CHARACTERIZATION_TOL,
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
    geometry_jet_size,
    intrinsic_jets,
    normal_derivatives,
    normal_jets,
    point_geometry,
    pseudo_umbilical_check,
    scalar_curvature,
)

# coefficients_at is imported for bench/tracing.py, which wraps it in this
# module's namespace; a sample's coefficients come from its snapshot,
# ``pg.ambient``.

SCHEMA_VERSION = 1

# the classical families an inline ambient's ``tag`` may name, per kind
TAG_FAMILIES = {KIND_COMPLEX: (COMPLEX_SPACE_FORM,),
                KIND_CONTACT: (SASAKI, KENMOTSU, COSYMPLECTIC)}

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
    tol: float | None                 # the document's, else the check's declared default
    params: dict = field(default_factory=dict)   # the check's declared fields


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


def _mapping(doc, path) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("expected a mapping", path)
    return doc


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    return float(value)


def _numbers(doc, path) -> dict:
    """A mapping of names to numbers, as floats."""
    return {str(k): _number(v, f"{path}.{k}") for k, v in _mapping(doc, path).items()}


def _finite(value, path) -> float:
    x = _number(value, path)
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    return x


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return int(value)


def _boolean(value, path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}", path)
    return value


def _load_ambient(doc, constants, path) -> AmbientModel:
    if "catalog" in _mapping(doc, path):
        name = doc["catalog"]
        try:
            space = catalog.ambient(name, _numbers(doc.get("params", {}), path + ".params"))
        except KeyError as e:
            raise ConfigError(str(e), path + ".catalog") from None
        space.bindings.update({k: v for k, v in constants.items() if k not in space.bindings})
        return space
    kind = _require(doc, "kind", path)
    if kind not in (KIND_COMPLEX, KIND_CONTACT):
        raise ConfigError(f"unknown kind {kind!r}", path + ".kind")
    coords = tuple(_require(doc, "coordinates", path))

    def mat(key):
        rows = _require(doc, key, path)
        out = []
        for i, row in enumerate(rows):
            out.append(tuple(_parse(e, coords, f"{path}.{key}[{i}][{j}]", constants)
                             for j, e in enumerate(row)))
        return tuple(out)

    def vec(key, source=None):
        entries = source if source is not None else _require(doc, key, path)
        return tuple(_parse(e, coords, f"{path}.{key}[{i}]", constants)
                     for i, e in enumerate(entries))

    coeffs_doc = _require(doc, "coefficients", path)
    names = ("alpha", "beta") if kind == KIND_COMPLEX else ("f1", "f2", "f3")
    coeffs = vec("coefficients", [str(_require(coeffs_doc, n, path + ".coefficients"))
                                  for n in names])
    tag = None
    if doc.get("tag"):
        tag_doc = _mapping(doc["tag"], path + ".tag")
        family = _require(tag_doc, "family", path + ".tag")
        if family not in TAG_FAMILIES[kind]:
            raise ConfigError(f"{family!r} is not one of {', '.join(TAG_FAMILIES[kind])} for a "
                              f"{kind} ambient", path + ".tag.family")
        tag = ClassicalTag(family, _number(_require(tag_doc, "value", path + ".tag"),
                                           path + ".tag.value"))
    kwargs = dict(
        name=doc.get("name", "inline"),
        kind=kind,
        backend=doc.get("backend", "chart"),
        dim=_integer(_require(doc, "dim", path), path + ".dim"),
        coords=coords,
        coeffs=coeffs,
        tag=tag,
        bindings=dict(constants),
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
            _parse(e, params, f"{path}.embedding[{i}]", constants)
            for i, e in enumerate(_require(doc, "embedding", path)))
        kwargs["normals"] = tuple(
            vec("normals", nf) for nf in _require(doc, "normals", path))
    try:
        return AmbientModel(**kwargs)
    except GeometryError as e:
        raise ConfigError(str(e), path) from None


def _parse(source, params, path, bindings):
    """An inline expression over ``params`` whose constants are all in
    ``bindings`` (the inline model's bindings, which are the document's
    constants) or the default bindings: the names its program reads when it
    runs."""
    try:
        expr = parse_expression(str(source), params)
    except ExprSyntaxError as e:
        raise ConfigError(f"parse error: {e}", path) from None
    except ExprError as e:
        raise ConfigError(str(e), path) from None
    unbound = sorted(expr_constants(expr) - set(bindings) - set(DEFAULT_BINDINGS))
    if unbound:
        raise ConfigError("unbound constant " + ", ".join(map(repr, unbound)), path)
    return expr


def _load_immersion(doc, space, constants, path) -> ImmersionModel:
    if "catalog" in _mapping(doc, path):
        try:
            imm = catalog.immersion(doc["catalog"], space,
                                    _numbers(doc.get("params", {}), path + ".params"))
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
            _parse(c, params, f"{path}.components[{i}]", constants)
            for i, c in enumerate(comps))
        domain = _mapping(_require(doc, "domain", path), path + ".domain")
        axes = _load_axes(domain.get("axes"), path + ".domain")
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


_AXIS_FIELDS = ("lo", "hi", "samples", "periodic")


def _load_axes(axes_doc, path) -> tuple[Axis, ...]:
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ConfigError("expected a non-empty list of axes", path)
    axes = []
    for i, ax in enumerate(axes_doc):
        at = f"{path}.axes[{i}]"
        for key in _mapping(ax, at):
            if key not in _AXIS_FIELDS:
                raise ConfigError(f"unknown field {key!r} of an axis", f"{at}.{key}")
        axes.append(Axis(
            lo=_number(_require(ax, "lo", at), at + ".lo"),
            hi=_number(_require(ax, "hi", at), at + ".hi"),
            samples=_integer(_require(ax, "samples", at), at + ".samples"),
            periodic=_boolean(ax.get("periodic", False), at + ".periodic"),
        ))
        if axes[-1].samples < 1 or axes[-1].hi <= axes[-1].lo:
            raise ConfigError("need hi > lo and samples >= 1", at)
    return tuple(axes)


def _load_check(doc, path, space, seen) -> CheckSpec:
    """A check entry: its op, the fields that op declares, and its tol (the
    declared default unless the entry sets one)."""
    op = _require(_mapping(doc, path), "op", path)
    if not isinstance(op, str) or op not in CHECKS:
        raise ConfigError(f"unknown check op {op!r}", path + ".op")
    if op in seen:
        raise ConfigError(f"duplicate check op {op!r}", path + ".op")
    declared = CHECKS[op]
    spec = CheckSpec(op, declared.tol)
    for key, value in doc.items():
        if key == "tol" and declared.tol is not None:
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (numeric and 0 <= value < math.inf):
                raise ConfigError(f"expected a finite number >= 0, got {value!r}", path + ".tol")
            spec.tol = value
        elif key in declared.fields:
            allowed = declared.fields[key][space.kind]
            if not isinstance(value, str) or value not in allowed:
                raise ConfigError(f"{value!r} is not one of {', '.join(allowed)} for a "
                                  f"{space.kind} ambient", f"{path}.{key}")
            spec.params[key] = value
        elif key != "op":
            raise ConfigError(f"unknown field {key!r} of check {op!r}", f"{path}.{key}")
    return spec


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
    constants = _numbers(doc.get("constants", {}), "constants")
    space = _load_ambient(_require(doc, "ambient", ""), constants, "ambient")
    imm = _load_immersion(_require(doc, "immersion", ""), space, constants, "immersion")
    if "domain" in doc:
        axes = _load_axes(_mapping(doc["domain"], "domain").get("axes"), "domain")
        if len(axes) != imm.dim:
            raise ConfigError("one axis per immersion parameter", "domain")
        imm.domain = axes
    checks_doc = doc.get("checks", [{"op": "residual"}])
    if not isinstance(checks_doc, list):
        raise ConfigError("expected a list", "checks")
    checks = []
    for i, c in enumerate(checks_doc):
        checks.append(_load_check(c, f"checks[{i}]", space, [spec.op for spec in checks]))
    order = _integer(doc.get("order", 4), "order")
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


def _require_finite(data: PointData, relations: dict | None):
    """Raise DomainError naming every computed sample quantity that is not
    finite: the aggregates reduce them with ``max``, which would drop a NaN."""
    values = {"|H|": data.h_norm, "|B|^2": data.b_norm2}
    if data.scal_intrinsic is not None:
        values["intrinsic scalar curvature"] = data.scal_intrinsic
        values["Gauss scalar curvature"] = data.scal_via_gauss
    if data.pseudo_deviation is not None:
        values["pseudo-umbilical deviation"] = data.pseudo_deviation
    if data.reduction_residual is not None:
        values["reduction residual"] = data.reduction_residual
    for name, res in data.residuals.items():
        values[f"{name} normal residual"] = res.normal_norm
        values[f"{name} tangential residual"] = res.tangential_norm
    for name, v in (relations or {}).items():
        values[f"{name} relation"] = v
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise DomainError("non-finite " + ", ".join(bad))


# the faults that fail a sample (a batch of samples: every one of them)
_POINT_FAULTS = (GeometryError, ArithmeticError, np.linalg.LinAlgError)


def _faults_raise():
    return np.errstate(over="raise", invalid="raise", divide="raise")


def _evaluate_point(cfg: ScenarioConfig, u, needs: frozenset, pg=None) -> PointRecord:
    """The quantities ``needs`` at ``u``, each listed with what it rests on,
    from its geometry ``pg`` when given; a geometric, arithmetic or
    non-finite fault fails just this point, naming the reason."""
    try:
        with _faults_raise():
            return _evaluate_point_data(cfg, u, needs, pg)
    except _POINT_FAULTS as e:
        return PointRecord(u=tuple(u), error=str(e))


def _evaluate_point_data(cfg: ScenarioConfig, u, needs: frozenset, pg) -> PointRecord:
    space, imm = cfg.ambient, cfg.immersion
    if pg is None:
        pg = point_geometry(space, imm, u, 2 if needs <= _ORDER2 else cfg.order)
    data = PointData(u=tuple(u), h_norm=pg.mean_curvature_norm,
                     b_norm2=pg.second_fundamental_norm2)
    record = PointRecord(u=tuple(u), data=data)
    if NORMAL in needs:
        nd = normal_derivatives(pg)
        data.nabla_h_norm = nd.nabla_norm
    if SPLIT in needs:
        ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
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
    if RELATIONS in needs:
        record.relations = verify_relations(ops)
    _require_finite(data, record.relations)
    if COEFFICIENTS in needs:
        data.coeffs = pg.ambient.coeffs
    if RESIDUALS in needs and pg.mean_curvature_norm > 1e-9:
        normal = data.residuals[GENERAL].normal
        record.signed_normal = (float(normal @ pg.ambient_metric @ pg.mean_curvature)
                                / pg.mean_curvature_norm)
    return record


# jet coefficients per field of a grid block: four samples of order-4 jets
# over the 9 variables of a hypersurface's augmented chart space, the
# largest in the catalog, where each sample adds about 0.45 MB of peak memory
_BLOCK_COEFFS = 4 * n_entries(9, 4)


def _block_rows(cfg: ScenarioConfig, order: int) -> int:
    """Samples per geometry call of a grid: as many as keep one jet field of
    the block within :data:`_BLOCK_COEFFS` coefficients."""
    return max(1, _BLOCK_COEFFS // geometry_jet_size(cfg.ambient, cfg.immersion, order))


def _run_grid(cfg: ScenarioConfig, needs=QUANTITIES) -> list[PointRecord]:
    """``needs`` at every grid sample, with the geometry and what they rest on.

    The grid's geometry runs as consecutive row blocks (:func:`_block_rows`
    samples), one ``point_geometry`` call each, at jet order 2 when
    ``needs`` reads nothing of higher order, else at the scenario's order;
    the jets of the normal derivatives and of the intrinsic curvature run
    once per block too, when needed.  Every sample is then evaluated from
    its row of the block.  A fault anywhere in a block reruns that block
    alone one sample at a time, so that each failed point keeps its own
    reason.
    """
    closed = {GEOMETRY, *needs}
    for q in needs:
        closed.update(_REQUIRES.get(q, ()))
    closed = frozenset(closed)
    order = 2 if closed <= _ORDER2 else cfg.order
    grid = cfg.immersion.grid()
    rows = _block_rows(cfg, order)
    records = []
    for start in range(0, len(grid), rows):
        block = grid[start:start + rows]
        try:
            with _faults_raise():
                batch = point_geometry(cfg.ambient, cfg.immersion, block, order)
                if NORMAL in closed:
                    normal_jets(batch)
                if SCALAR in closed:
                    intrinsic_jets(batch)
        except _POINT_FAULTS:
            records += [_evaluate_point(cfg, u, closed) for u in block]
        else:
            records += [_evaluate_point(cfg, u, closed, batch.sample(i))
                        for i, u in enumerate(block)]
    return records


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
    checks_out = {spec.op: {"op": spec.op, **CHECKS[spec.op].run(grid, spec)}
                  for spec in cfg.checks}

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
    """A check or sweep objective and the per-sample quantities it reads.
    A check also declares its default ``tol`` (None: it takes none) and the
    further fields it accepts, each with its allowed values per ambient kind."""

    needs: frozenset
    run: Callable
    tol: float | None = None
    fields: dict = field(default_factory=dict)


CHECKS: dict[str, Declared] = {}


def _declare(table: dict, name: str, *needs: str, tol=None, fields=None):
    def register(fn):
        table[name] = Declared(frozenset(needs), fn, tol, fields or {})
        return fn
    return register


@_declare(CHECKS, "residual", RESIDUALS, tol=PROPER_TOL)
def _check_residual(grid, spec) -> dict:
    datas = grid.datas
    worst = max(max(d.residuals[GENERAL].normal_norm,
                    d.residuals[GENERAL].tangential_norm) for d in datas)
    return {
        "tol": spec.tol,
        "max_residual": worst,
        "status": "ok" if worst <= spec.tol else "violated",
        "verdict": grid.aggregates["verdict"],
        "terms": {k: max(d.residuals[GENERAL].terms[k] for d in datas)
                  for k in datas[0].residuals[GENERAL].terms},
    }


@_declare(CHECKS, "characterization", COEFFICIENTS, SPLIT, RESIDUALS, SCALAR,
          tol=CHARACTERIZATION_TOL)
def _check_characterization(grid, spec) -> dict:
    return cmc_characterization(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim, spec.tol)


@_declare(CHECKS, "bound", COEFFICIENTS, SPLIT, RESIDUALS, PSEUDO, tol=BOUND_TOL,
          fields={"kind": BOUND_KINDS})
def _check_bound(grid, spec) -> dict:
    return bound_check(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim,
                       spec.params.get("kind"), spec.tol)


@_declare(CHECKS, "audit", COEFFICIENTS, SPLIT)
def _check_audit(grid, spec) -> dict:
    findings = nonexistence_audit(grid.cfg.ambient, grid.datas, grid.cfg.immersion.dim)
    contradiction = any(
        f["relevant"] and f["applies"] for f in findings
    ) and grid.aggregates["verdict"] == "ProperBiharmonic"
    return {"status": "contradiction" if contradiction else "ok", "findings": findings}


@_declare(CHECKS, "relations", RELATIONS, tol=1e-10)
def _check_relations(grid, spec) -> dict:
    worst = {}
    for r in grid.records:
        if r.relations:
            for k, v in r.relations.items():
                worst[k] = max(worst.get(k, 0.0), v)
    status = "ok" if worst and max(worst.values()) <= spec.tol else "violated"
    return {"tol": spec.tol, "residuals": worst, "status": status}


@_declare(CHECKS, "gauss", COEFFICIENTS, SCALAR, tol=1e-6)
def _check_gauss(grid, spec) -> dict:
    datas = grid.datas
    worst = max(abs(d.scal_intrinsic - d.scal_via_gauss) for d in datas)
    out = {"tol": spec.tol, "max_gap": worst, "status": "ok" if worst <= spec.tol else "violated"}
    if grid.cfg.ambient.kind == KIND_COMPLEX and grid.cfg.immersion.dim == 3:
        form = max(
            abs(d.scal_via_gauss
                - (6.0 * (d.coeffs[0] + d.coeffs[1]) - d.b_norm2 + 9.0 * d.h_norm**2))
            for d in datas)
        out["hypersurface_form_gap"] = form
    return out


@_declare(CHECKS, "structure", GEOMETRY, tol=1e-9)
def _check_structure(grid, spec) -> dict:
    pts = [grid.cfg.immersion.values("components", d.u) for d in grid.datas[:6]]
    rep = verify_structure(grid.cfg.ambient, pts)
    return {"tol": spec.tol, "residuals": rep.residuals,
            "status": "ok" if rep.ok(spec.tol) else "violated"}


@_declare(CHECKS, "pseudo_umbilical", PSEUDO, tol=1e-8)
def _check_pseudo_umbilical(grid, spec) -> dict:
    devs = [d.pseudo_deviation for d in grid.datas if d.pseudo_deviation is not None]
    if not devs:
        return {"status": "NotApplicable"}
    return {"max_deviation": max(devs), "status": "ok" if max(devs) < spec.tol else "violated"}


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
    # parameter values whose grid failed at some or all grid points: the
    # objective is NaN there, and no root is bracketed across them
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


class _GridFailed(GeometryError):
    """Every point of a sweep value's grid failed."""


def _sweep_objective(cfg: ScenarioConfig, objective: str) -> float:
    """The objective on the scenario grid; NaN when part of the grid failed,
    :class:`_GridFailed`, carrying the first point's error, when all of it
    did."""
    if objective not in SWEEP_OBJECTIVES:
        raise ConfigError(f"unknown sweep objective {objective!r}")
    declared = SWEEP_OBJECTIVES[objective]
    records = _run_grid(cfg, declared.needs)
    failed = sum(r.error is not None for r in records)
    if failed == len(records):
        raise _GridFailed(records[0].error)
    return math.nan if failed else declared.run(cfg, records)


_EPS = float(np.finfo(float).eps)
SWEEP_XTOL = 1e-10     # bracket width at which a sweep's root search stops


def _zeroin(f, a, b, fa, fb):
    """Brent's zeroin on a bracket with f(a) f(b) < 0.

    Secant or inverse quadratic steps, and a bisection step whenever they
    would not shrink the bracket fast enough (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Returns ``(x, f(x))``
    at the end of the last bracket with the smaller |f|, once that bracket
    is within :data:`SWEEP_XTOL` (at most 200 steps), or None if f turned
    NaN inside the bracket.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * SWEEP_XTOL
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
                samples: int, objective: str = "characterization_gap") -> SweepResult:
    """Sample the objective over a constant's range and find the root in
    each sign change with Brent's method; ``lo`` and ``hi`` must be finite
    and ``samples`` an integer of at least 2.

    A limit counts as a root only if |f| there is below |f| at both ends of
    its sampled bracket; otherwise the objective changed sign across a pole
    or a jump, and the limit is reported as a discontinuity.  A value whose
    grid failed at some or all grid points gives a NaN objective: it is
    listed under ``partial``, never ends a bracket, and a NaN inside a
    bracket ends that bracket's search.  Only a sweep in which no sampled
    value evaluated at any grid point raises.
    """
    known = set(cfg.constants) | set(cfg.immersion.bindings) | set(cfg.ambient.bindings)
    if parameter not in known:
        raise ConfigError(f"constant {parameter!r} does not appear in the config",
                          "sweep.parameter")
    lo, hi = _finite(lo, "sweep.range"), _finite(hi, "sweep.range")
    samples = _integer(samples, "sweep.range")
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples!r}", "sweep.range")
    partial, evaluated, errors = [], [], []

    def f(value: float) -> float:
        try:
            y = _sweep_objective(cfg.with_constant(parameter, value), objective)
        except _GridFailed as e:
            errors.append(f"{parameter}={value:g}: {e}")
            y = math.nan
        else:
            evaluated.append(value)
        if math.isnan(y):
            partial.append(value)
        return y

    xs = list(np.linspace(lo, hi, samples))
    ys = [f(x) for x in xs]
    if xs and not evaluated:
        raise GeometryError("no sampled value evaluated at any grid point; first error at "
                            + errors[0])
    roots, jumps = [], []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 == 0.0:
            roots.append(x0)
        elif y0 * y1 < 0.0:  # false when either end is NaN
            limit = _zeroin(f, x0, x1, y0, y1)
            if limit is not None:
                x, fx = limit
                (roots if abs(fx) < min(abs(y0), abs(y1)) else jumps).append(x)
    if ys and ys[-1] == 0.0:
        roots.append(xs[-1])
    return SweepResult(parameter, xs, ys, roots, objective, jumps, partial)


CONVERGENCE_STEPS = (0.05, 0.025, 0.0125)


def convergence_study(cfg: ScenarioConfig, steps=CONVERGENCE_STEPS) -> dict:
    """Jet-vs-finite-difference comparison of the normal Laplacian at shrinking steps,
    at a probe point just off the middle of the domain.

    Error against the jet value should shrink like h^2; the report carries
    the observed orders between consecutive steps.  ``steps`` must be a
    non-empty sequence of finite positive step sizes.
    """
    path = "convergence.steps"
    if not isinstance(steps, (list, tuple)) or not steps:
        raise ConfigError(f"expected a non-empty list of step sizes, got {steps!r}", path)
    if min(_finite(h, path) for h in steps) <= 0.0:
        raise ConfigError(f"step sizes must be positive, got {list(steps)}", path)
    imm = cfg.immersion
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
