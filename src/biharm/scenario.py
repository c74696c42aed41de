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
      "checks":    [{"op": "residual"}, ...],
      "expect":    {"verdict": "ProperBiharmonic", ...}
    }
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
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
    dot,
    objects,
    vec_mat,
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
    CLOSED_FORM,
    GENERAL,
    MINIMAL_TOL,
    PROPER_TOL,
    GridSamples,
    _cmc,
    bound_check,
    branch_of,
    characterization_target,
    cmc_characterization,
    decided,
    flag_consensus,
    length,
    map_columns,
    nonexistence_audit,
    proper_biharmonic_verdict,
    pseudo_umbilical,
    reduction_residual,
    residual_gcsf,
    residual_general,
    residual_gssf,
    squares,
)
from .structure import CLASSIFY_TOL, classify, decompose, verify_relations
from .submanifold import (
    JET_ORDER,
    Axis,
    ImmersionModel,
    fd_normal_laplacian,
    geometry_jet_size,
    normal_derivatives,
    point_geometry,
    pseudo_umbilical_check,
    scalar_curvature,
)

# coefficients_at is imported for bench/tracing.py, which wraps it in this
# module's namespace; the samples' coefficients come from their snapshot,
# ``pg.ambient``.

SCHEMA_VERSION = 1

# the classical families an inline ambient's ``tag`` may name, per kind
TAG_FAMILIES = {KIND_COMPLEX: (COMPLEX_SPACE_FORM,),
                KIND_CONTACT: (SASAKI, KENMOTSU, COSYMPLECTIC)}

# the fields each mapping of a document may have
DOCUMENT_FIELDS = ("schema_version", "name", "ambient", "immersion", "domain", "constants",
                   "checks", "expect")
CATALOG_FIELDS = ("catalog", "params")
# an inline ambient's: every kind's and backend's, then its own kind's and backend's
INLINE_AMBIENT_FIELDS = ("name", "kind", "backend", "dim", "coordinates", "coefficients", "tag")
KIND_FIELDS = {KIND_COMPLEX: ("complex_structure",), KIND_CONTACT: ("phi", "reeb")}
BACKEND_FIELDS = {"chart": ("metric",), "embedded": ("normals",)}
INLINE_IMMERSION_FIELDS = ("name", "params", "components", "domain")
AXIS_FIELDS = ("lo", "hi", "samples", "periodic")
SWEEP_EXPECT_FIELDS = ("roots_count", "root_near", "root_tol")


class ConfigError(Exception):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass
class ScenarioConfig:
    ambient: AmbientModel
    immersion: ImmersionModel
    checks: list[str]                 # the requested check ops
    constants: dict
    expect: dict
    raw: dict = field(default_factory=dict)

    def with_constant(self, name: str, value: float) -> "ScenarioConfig":
        doc = json.loads(json.dumps(self.raw))
        doc.setdefault("constants", {})[name] = value
        # a catalog entry's params override the constants; an inline
        # immersion's params name its parameters, which shadow them
        for model in (doc["immersion"], doc["ambient"]):
            if isinstance(model.get("params"), dict) and name in model["params"]:
                model["params"][name] = value
        return load_scenario(doc)

    def check_constant(self, name: str, value: float) -> None:
        """Raise the ConfigError that :meth:`with_constant` would, loading
        nothing: only a catalog entry's builder reads a constant's value, so
        each entry that declares ``name`` is built once with ``value``."""
        for path, entries, build, *args in (
                ("ambient", catalog.AMBIENTS, catalog.ambient),
                ("immersion", catalog.IMMERSIONS, catalog.immersion, self.ambient)):
            doc = self.raw[path]
            if name in entries.get(doc.get("catalog"), ((), ()))[1]:
                doc = {**doc, "params": {**doc.get("params", {}), name: value}}
                _load_catalog(doc, self.constants, path, entries, build, *args)


def _require(doc, key, path):
    if key not in doc:
        raise ConfigError(f"missing field {key!r}", path)
    return doc[key]


def _mapping(doc, path, fields=None) -> dict:
    """``doc``, which must be a mapping, with no field outside ``fields``
    (when given)."""
    if not isinstance(doc, dict):
        raise ConfigError("expected a mapping", path)
    for key in doc:
        if fields is not None and key not in fields:
            raise ConfigError(f"unknown field {key!r}", f"{path}.{key}" if path else str(key))
    return doc


def _number(value, path) -> float:
    """A JSON number that is a finite float: not ``Infinity``, ``NaN`` or an
    integer past the float range."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (numeric and abs(value) <= sys.float_info.max):
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    return float(value)


def _numbers(doc, path) -> dict:
    """A mapping of names to numbers, as floats."""
    return {str(k): _number(v, f"{path}.{k}") for k, v in _mapping(doc, path).items()}


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return int(value)


def _boolean(value, path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}", path)
    return value


def _list(value, path, n=None) -> list:
    """``value``, which must be a list, of ``n`` entries when given."""
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}", path)
    if n is not None and len(value) != n:
        raise ConfigError(f"expected {n} entries, got {len(value)}", path)
    return value


def _name(doc, path) -> str:
    """The ``name`` of ``doc``, a string ("inline" when absent)."""
    name = doc.get("name", "inline")
    if not isinstance(name, str):
        raise ConfigError(f"expected a string, got {name!r}", path)
    return name


def _names(value, path) -> tuple[str, ...]:
    """A list of distinct identifiers."""
    for i, name in enumerate(_list(value, path)):
        if not isinstance(name, str):
            raise ConfigError(f"expected a name, got {name!r}", f"{path}[{i}]")
    _parse("0", value, path, {})  # the parser's rules for parameter names, at this path
    return tuple(value)


def _load_ambient(doc, constants, path) -> AmbientModel:
    if "catalog" in _mapping(doc, path):
        return _load_catalog(doc, constants, path, catalog.AMBIENTS, catalog.ambient)
    kind = _require(doc, "kind", path)
    if not isinstance(kind, str) or kind not in KIND_FIELDS:
        raise ConfigError(f"unknown kind {kind!r}", path + ".kind")
    backend = doc.get("backend", "chart")
    if not isinstance(backend, str) or backend not in BACKEND_FIELDS:
        raise ConfigError(f"unknown backend {backend!r}", path + ".backend")
    _mapping(doc, path, INLINE_AMBIENT_FIELDS + KIND_FIELDS[kind] + BACKEND_FIELDS[backend])
    coords = _names(_require(doc, "coordinates", path), path + ".coordinates")
    dim = _integer(_require(doc, "dim", path), path + ".dim")
    rep_dim = dim if backend == "chart" else len(coords)

    def vec(entries, at, n=rep_dim):
        return tuple(_parse(e, coords, f"{at}[{i}]", constants)
                     for i, e in enumerate(_list(entries, at, n)))

    def mat(key):
        at = f"{path}.{key}"
        return tuple(vec(row, f"{at}[{i}]")
                     for i, row in enumerate(_list(_require(doc, key, path), at, rep_dim)))

    names = ("alpha", "beta") if kind == KIND_COMPLEX else ("f1", "f2", "f3")
    coeffs_doc = _mapping(_require(doc, "coefficients", path), path + ".coefficients", names)
    coeffs = vec([str(_require(coeffs_doc, n, path + ".coefficients")) for n in names],
                 path + ".coefficients", None)
    tag = None
    if "tag" in doc:
        tag_doc = _mapping(doc["tag"], path + ".tag", ("family", "value"))
        family = _require(tag_doc, "family", path + ".tag")
        if family not in TAG_FAMILIES[kind]:
            raise ConfigError(f"{family!r} is not one of {', '.join(TAG_FAMILIES[kind])} for a "
                              f"{kind} ambient", path + ".tag.family")
        tag = ClassicalTag(family, _number(_require(tag_doc, "value", path + ".tag"),
                                           path + ".tag.value"))
    kwargs = dict(
        name=_name(doc, path + ".name"),
        kind=kind,
        backend=backend,
        dim=dim,
        coords=coords,
        coeffs=coeffs,
        tag=tag,
        bindings=dict(constants),
    )
    if kind == KIND_COMPLEX:
        kwargs["cstruct"] = mat("complex_structure")
    else:
        kwargs["phi"] = mat("phi")
        kwargs["reeb"] = vec(_require(doc, "reeb", path), path + ".reeb")
    if backend == "chart":
        kwargs["metric"] = mat("metric")
    else:
        normals = _list(_require(doc, "normals", path), path + ".normals")
        kwargs["normals"] = tuple(vec(nf, f"{path}.normals[{k}]") for k, nf in enumerate(normals))
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


def _load_catalog(doc, constants, path, entries, build, *args):
    """A catalog model, built with each parameter its entry declares bound to
    the default, under the document's constants, under the model's
    ``params``; a ``params`` name the entry does not declare is a config error."""
    name = _mapping(doc, path, CATALOG_FIELDS)["catalog"]
    if not isinstance(name, str) or name not in entries:
        raise ConfigError(f"unknown catalog entry {name!r}", path + ".catalog")
    declared = entries[name][1]
    params = _numbers(doc.get("params", {}), path + ".params")
    try:
        return build(name, *args, {k: v for k, v in constants.items() if k in declared} | params)
    except catalog.UndeclaredParameter as e:
        raise ConfigError(str(e), f"{path}.params.{e.name}") from None
    except ValueError as e:
        raise ConfigError(str(e), path) from None


def _load_immersion(doc, space, constants, path) -> ImmersionModel:
    if "catalog" in _mapping(doc, path):
        imm = _load_catalog(doc, constants, path, catalog.IMMERSIONS, catalog.immersion, space)
    else:
        _mapping(doc, path, INLINE_IMMERSION_FIELDS)
        params = _names(_require(doc, "params", path), path + ".params")
        comps = _list(_require(doc, "components", path), path + ".components", space.rep_dim)
        components = tuple(
            _parse(c, params, f"{path}.components[{i}]", constants)
            for i, c in enumerate(comps))
        axes = _load_domain(_require(doc, "domain", path), path + ".domain")
        if len(axes) != len(params):
            raise ConfigError("one domain axis per parameter is required", path + ".domain")
        imm = ImmersionModel(
            name=_name(doc, path + ".name"),
            dim=len(params),
            params=params,
            components=components,
            domain=axes,
            bindings=dict(constants),
        )
    if imm.dim >= space.dim:
        raise ConfigError(
            f"immersion dimension {imm.dim} must be below ambient dimension {space.dim}",
            path)
    return imm


def _load_domain(doc, path) -> tuple[Axis, ...]:
    axes_doc = _mapping(doc, path, ("axes",)).get("axes")
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ConfigError("expected a non-empty list of axes", path)
    axes = []
    for i, ax in enumerate(axes_doc):
        at = f"{path}.axes[{i}]"
        _mapping(ax, at, AXIS_FIELDS)
        axes.append(Axis(
            lo=_number(_require(ax, "lo", at), at + ".lo"),
            hi=_number(_require(ax, "hi", at), at + ".hi"),
            samples=_integer(_require(ax, "samples", at), at + ".samples"),
            periodic=_boolean(ax.get("periodic", False), at + ".periodic"),
        ))
        if axes[-1].samples < 1 or axes[-1].hi <= axes[-1].lo:
            raise ConfigError("need hi > lo and samples >= 1", at)
    return tuple(axes)


def _load_check(doc, path, seen) -> str:
    """A check entry's op; the entry holds nothing else."""
    op = _require(_mapping(doc, path), "op", path)
    if not isinstance(op, str) or op not in CHECKS:
        raise ConfigError(f"unknown check op {op!r}", path + ".op")
    if op in seen:
        raise ConfigError(f"duplicate check op {op!r}", path + ".op")
    for key in doc:
        if key != "op":
            raise ConfigError(f"unknown field {key!r} of check {op!r}", f"{path}.{key}")
    return op


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
    _mapping(doc, "", DOCUMENT_FIELDS)
    _name(doc, "name")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}", "schema_version")
    constants = _numbers(doc.get("constants", {}), "constants")
    space = _load_ambient(_require(doc, "ambient", ""), constants, "ambient")
    imm = _load_immersion(_require(doc, "immersion", ""), space, constants, "immersion")
    if "domain" in doc:
        axes = _load_domain(doc["domain"], "domain")
        if len(axes) != imm.dim:
            raise ConfigError("one axis per immersion parameter", "domain")
        imm.domain = axes
    checks_doc = doc.get("checks", [{"op": "residual"}])
    if not isinstance(checks_doc, list):
        raise ConfigError("expected a list", "checks")
    checks = []
    for i, c in enumerate(checks_doc):
        checks.append(_load_check(c, f"checks[{i}]", checks))
    return ScenarioConfig(
        ambient=space,
        immersion=imm,
        checks=checks,
        constants=constants,
        expect=_load_expect(doc.get("expect", {}), checks),
        raw=doc,
    )


def _load_expect(doc, ops) -> dict:
    """The expectations the CLI compares a run with: ``verdict`` and
    ``checks.<op>.status`` (for a requested op) are strings, ``sweep`` names
    :data:`SWEEP_EXPECT_FIELDS`, ``convergence_order_gte`` is a number."""
    expect = dict(_mapping(doc, "expect", ("verdict", "sweep", "convergence_order_gte",
                                           *(f"checks.{op}.status" for op in ops))))
    for key, value in expect.items():
        path = f"expect.{key}"
        if key == "sweep":
            sweep = _mapping(value, path, SWEEP_EXPECT_FIELDS)
            expect[key] = {k: (_integer if k == "roots_count" else _number)(v, f"{path}.{k}")
                           for k, v in sweep.items()}
        elif key == "convergence_order_gte":
            expect[key] = _number(value, path)
        elif not isinstance(value, str):
            raise ConfigError(f"expected a string, got {value!r}", path)
    return expect


# -- grid evaluation -------------------------------------------------------------
#
# Per-sample quantities.  Every check and every sweep objective declares the
# ones it reads, with what they rest on; a grid run computes only their
# union and the geometry, and gates exactly those for finiteness.

GEOMETRY = "geometry"            # frames, B and H; |H|, |B|^2, coefficients (always computed)
RESIDUALS = "residuals"          # J or phi split, flags; nabla-perp H, its Laplacian; residuals
SCALAR = "scalar_curvature"      # intrinsic and Gauss-equation scalar curvature
RELATIONS = "relations"          # algebraic relations of the split
PSEUDO = "pseudo_umbilical"      # deviation of A_H from |H|^2 Id


def _require_finite(samples: GridSamples, residual_norms: dict):
    """Raise DomainError naming every computed quantity that is not finite at
    some sample: the aggregates reduce them with ``max``, which would drop a
    NaN.  ``residual_norms`` holds each residual's norms, 0 at the samples
    where it does not count."""
    values = {"|H|": samples.h_norm, "|B|^2": samples.b_norm2,
              "intrinsic scalar curvature": samples.scal_intrinsic,
              "Gauss scalar curvature": samples.scal_via_gauss,
              "pseudo-umbilical deviation": samples.pseudo_deviation,
              "reduction residual": samples.reduction_residual,
              **residual_norms,
              **{f"{name} relation": v for name, v in (samples.relations or {}).items()}}
    bad = [name for name, v in values.items()
           if v is not None and not np.isfinite(decided(v).astype(float)).all()]
    if bad:
        raise DomainError("non-finite " + ", ".join(bad))


# the faults that fail a sample (a block of samples: every one of them); one
# raised outside the grid ends the command as a geometry error
POINT_FAULTS = (GeometryError, ArithmeticError, np.linalg.LinAlgError)


def _faults_raise():
    return np.errstate(over="raise", invalid="raise", divide="raise")


def _evaluate(space: AmbientModel, imm: ImmersionModel, u, needs: frozenset,
              order: int) -> GridSamples:
    """The quantities ``needs``, each listed with what it rests on, at the
    parameter points ``u`` (shape (rows, m)) from one geometry call at jet
    order ``order``: the samples' columns.  Every stage runs over the sample
    axis; a geometric, arithmetic or non-finite fault at any sample raises."""
    pg = point_geometry(space, imm, u, order)
    S = pg.mean_curvature_norm.shape
    out = GridSamples(u=pg.u, h_norm=pg.mean_curvature_norm, b_norm2=pg.second_fundamental_norm2,
                      coeffs=pg.ambient.coeffs)
    residual_norms = {}
    if RESIDUALS in needs:
        ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
        out.flags = flags = classify(ops, pg.mean_normal_components)
        if RELATIONS in needs:
            out.relations = verify_relations(ops)
        nd = normal_derivatives(pg)
        out.nabla_h_norm = nd.nabla_norm
        residuals = {GENERAL: residual_general(pg, nd)}
        if space.kind == KIND_COMPLEX:
            residuals.update(residual_gcsf(space, pg, nd, ops, flags))
        else:
            residuals.update(residual_gssf(space, pg, nd, ops, flags))
            out.reduction_residual = reduction_residual(pg, ops)
        gen = residuals[GENERAL]
        out.branch = branch_of(space.kind, residuals)
        out.terms = gen.terms
        gaps = {}
        for name, res in residuals.items():
            counts = res.active  # a special-case branch counts where its flags activate it
            normal, tangential = length(pg, res.normal), length(pg, res.tangential, normal=False)
            residual_norms[f"{name} normal residual"] = np.where(counts, normal, 0.0)
            residual_norms[f"{name} tangential residual"] = np.where(counts, tangential, 0.0)
            if name == GENERAL:
                out.normal_residual, out.tangential_residual = normal, tangential
            else:
                gaps[name] = np.where(counts, np.maximum(
                    length(pg, res.normal - gen.normal),
                    length(pg, res.tangential - gen.tangential, normal=False)), 0.0)
        out.closed_form_gap = gaps.pop(CLOSED_FORM, np.zeros(S))
        out.branch_gap = np.max([np.zeros(S), *gaps.values()], axis=0)
        # the general normal residual along H, divided by |H| where |H| > 1e-9
        along = dot(gen.normal, pg.mean_normal_components)
        signed = out.h_norm > 1e-9
        out.signed_normal = np.asarray(
            objects(along / np.where(signed, out.h_norm, 1.0), signed), dtype=object)
    if PSEUDO in needs:
        out.pseudo_deviation = np.asarray(pseudo_umbilical_check(pg)[1], dtype=object)
    if SCALAR in needs:
        out.scal_intrinsic, out.scal_via_gauss = scalar_curvature(pg)
    _require_finite(out, residual_norms)
    return out


# jet coefficients per field of a grid block: 26 samples of the catalog's
# widest space, a 5-dimensional chart's hypersurface at order 4 (its order-3
# metric's 110, see geometry_jet_size), at a traced peak of 0.11 MB per sample
_BLOCK_COEFFS = 4 * n_entries(9, 4)


def _block_rows(cfg: ScenarioConfig, order: int) -> int:
    """Samples per geometry call of a grid: as many as keep one jet field of
    the block within :data:`_BLOCK_COEFFS` coefficients."""
    return max(1, _BLOCK_COEFFS // geometry_jet_size(cfg.ambient, cfg.immersion, order))


def _run_grids(cfg: ScenarioConfig, needs, name: str | None = None,
               values=(math.nan,)) -> list[tuple[GridSamples | None, list]]:
    """``needs`` at every grid sample of ``cfg``, with the geometry, at each
    of ``values`` of its constant ``name`` (no name: once, as loaded): per
    value, the columns of its clean samples (None if none) and its failed
    rows as ``(row, u, error)``, both in grid order.

    The grid is built once; its (value, sample) rows, value after value, run
    as blocks of :func:`_block_rows` rows through :func:`_evaluate`, at jet
    order 2 when ``needs`` reads nothing of higher order, else at
    :data:`JET_ORDER`.  A block binds ``name`` on the loaded models (so every
    value runs their compiled programs) to its rows' value, or their array
    where they differ.  A faulting block reruns each value's rows as a block,
    and a block of one value as blocks of one row (1, m), so each failed row
    keeps its reason and no other value loses its block.
    """
    closed = frozenset((GEOMETRY, *needs))
    # |H|, |B|^2 and the coefficients read only the values of B and H, which
    # run at jet order 0 there and come out bitwise the same as at order 4
    order = 2 if closed == {GEOMETRY} else JET_ORDER
    grid = cfg.immersion.grid()
    n, total = len(grid), len(grid) * len(values)
    points, column = np.array(grid * len(values)), np.repeat(np.asarray(values, dtype=float), n)
    loaded = [(m, m.bindings) for m in (cfg.ambient, cfg.immersion) if name in m.bindings]
    chunks, failed = [], [[] for _ in values]
    size = _block_rows(cfg, order)
    todo = [(lo, min(lo + size, total)) for lo in range(0, total, size)][::-1]
    try:
        while todo:  # the row ranges still to run, as a stack: the next one last
            lo, hi = todo.pop()
            rows = column[lo:hi]
            for m, bindings in loaded:
                m.bindings = {**bindings, name: float(rows[0]) if (rows == rows[0]).all() else rows}
            try:
                with _faults_raise():
                    chunks.append(_evaluate(cfg.ambient, cfg.immersion, points[lo:hi],
                                            closed, order))
            except POINT_FAULTS as e:
                if hi - lo == 1:
                    failed[lo // n].append((lo % n, grid[lo % n], str(e)))
                    continue
                # rerun each value's rows as a block, or a block of one value row by row
                bounds = [lo, *(range((lo // n + 1) * n, hi, n) or range(lo + 1, hi)), hi]
                todo += reversed([*zip(bounds, bounds[1:])])
    finally:
        for m, bindings in loaded:
            m.bindings = bindings
    columns = map_columns(lambda *a: np.concatenate(a), *chunks) if chunks else None
    counts = [n - len(errors) for errors in failed]  # each value's clean rows
    return [(map_columns(itemgetter(slice(end - count, end)), columns) if count else None, errors)
            for count, end, errors in zip(counts, np.cumsum(counts), failed)]


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
    needs = {RESIDUALS}.union(*(CHECKS[op].needs for op in cfg.checks))
    [(samples, failed)] = _run_grids(cfg, needs)
    if samples is None:
        raise GeometryError("no grid point evaluated cleanly: " + failed[0][2])

    aggregates = {
        "points_total": len(samples.h_norm) + len(failed),
        "points_failed": len(failed),
        "h_min": float(samples.h_norm.min()),
        "h_max": float(samples.h_norm.max()),
        "b_norm2_min": float(samples.b_norm2.min()),
        "b_norm2_max": float(samples.b_norm2.max()),
        "cmc": _cmc(samples)[0],
        "max_normal_residual": float(samples.normal_residual.max()),
        "max_tangential_residual": float(samples.tangential_residual.max()),
        "max_closed_form_vs_general": float(samples.closed_form_gap.max()),
        "max_branch_vs_general": float(samples.branch_gap.max()),
        # a verdict must hold at every sample: a partial grid decides nothing
        "verdict": "Inconclusive" if failed else proper_biharmonic_verdict(samples),
        "classification": flag_consensus(samples),
        "branch": samples.branch[0],
    }

    grid = _Grid(cfg, samples, aggregates)
    checks_out = {op: {"op": op, **CHECKS[op].run(grid)} for op in cfg.checks}

    columns = ("u", "h_norm", "b_norm2", "normal_residual", "tangential_residual", "branch")
    values = zip(*(getattr(samples, k).tolist() for k in columns))
    flags = zip(*(v.tolist() for v in samples.flags.values()))
    points_doc = [dict(zip(columns, row), flags=dict(zip(samples.flags, f)))
                  for row, f in zip(values, flags)]
    for row, u, error in failed:  # in grid order, so that each lands at its row
        points_doc.insert(row, {"u": list(u), "error": error})

    document = {
        "schema_version": SCHEMA_VERSION,
        "scenario": cfg.raw,
        "engine": {
            "jet_order": JET_ORDER,
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
# reads.  ``run_check`` hands each the grid; a check's tolerance is fixed.

RELATIONS_TOL = 1e-10   # the largest residual of a relation of the split
GAUSS_TOL = 1e-6        # intrinsic against Gauss-side scalar curvature
STRUCTURE_TOL = 1e-9    # the largest residual of a structure identity


@dataclass
class _Grid:
    cfg: ScenarioConfig
    samples: GridSamples         # the samples that evaluated cleanly
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
def _check_residual(grid) -> dict:
    agg = grid.aggregates
    worst = max(agg["max_normal_residual"], agg["max_tangential_residual"])
    return {
        "tol": PROPER_TOL,
        "max_residual": worst,
        "status": "ok" if worst <= PROPER_TOL else "violated",
        "verdict": agg["verdict"],
        "terms": {k: float(v.max()) for k, v in grid.samples.terms.items()},
    }


@_declare(CHECKS, "characterization", RESIDUALS, SCALAR)
def _check_characterization(grid) -> dict:
    return cmc_characterization(grid.cfg.ambient, grid.samples)


@_declare(CHECKS, "bound", RESIDUALS, PSEUDO)
def _check_bound(grid) -> dict:
    return bound_check(grid.cfg.ambient, grid.samples)


@_declare(CHECKS, "audit", RESIDUALS)
def _check_audit(grid) -> dict:
    findings = nonexistence_audit(grid.cfg.ambient, grid.samples)
    contradiction = any(
        f["relevant"] and f["applies"] for f in findings
    ) and grid.aggregates["verdict"] == "ProperBiharmonic"
    return {"status": "contradiction" if contradiction else "ok", "findings": findings}


@_declare(CHECKS, "relations", RESIDUALS, RELATIONS)
def _check_relations(grid) -> dict:
    worst = {k: float(v.max()) for k, v in grid.samples.relations.items()}
    status = "ok" if worst and max(worst.values()) <= RELATIONS_TOL else "violated"
    return {"tol": RELATIONS_TOL, "residuals": worst, "status": status}


@_declare(CHECKS, "gauss", SCALAR)
def _check_gauss(grid) -> dict:
    s = grid.samples
    worst = float(np.abs(s.scal_intrinsic - s.scal_via_gauss).max())
    out = {"tol": GAUSS_TOL, "max_gap": worst, "status": "ok" if worst <= GAUSS_TOL else "violated"}
    if grid.cfg.ambient.kind == KIND_COMPLEX and grid.cfg.immersion.dim == 3:
        form = np.abs(s.scal_via_gauss - (2.0 * characterization_target(KIND_COMPLEX, 3, s.coeffs)
                                          - s.b_norm2 + 9.0 * squares(s.h_norm)))
        out["hypersurface_form_gap"] = float(form.max())
    return out


@_declare(CHECKS, "structure", GEOMETRY)
def _check_structure(grid) -> dict:
    pts = grid.cfg.immersion.values("components", grid.samples.u[:6])
    residuals = verify_structure(grid.cfg.ambient, pts)
    return {"tol": STRUCTURE_TOL, "residuals": residuals,
            "status": "ok" if max(residuals.values()) <= STRUCTURE_TOL else "violated"}


@_declare(CHECKS, "pseudo_umbilical", PSEUDO)
def _check_pseudo_umbilical(grid) -> dict:
    deviation, holds = pseudo_umbilical(grid.samples)
    if deviation is None:
        return {"status": "NotApplicable"}
    return {"max_deviation": deviation, "status": "ok" if holds else "violated"}


# -- parameter sweeps --------------------------------------------------------------


@dataclass
class SweepResult:
    parameter: str
    values: list[float]
    objective: list[float]
    roots: list[float]
    objective_name: str
    # sign changes whose root-finding limit has |f| above |f| at one of the
    # bracket ends: poles or jumps of the objective, not roots
    discontinuities: list[float] = field(default_factory=list)
    # parameter values whose grid failed at some or all grid points: the
    # objective is NaN there, and no root is bracketed across them
    partial: list[float] = field(default_factory=list)


SWEEP_OBJECTIVES: dict[str, Declared] = {}


@_declare(SWEEP_OBJECTIVES, "normal_residual", RESIDUALS)
def _objective_normal_residual(cfg, samples) -> float:
    """The signed general normal residual of largest magnitude over the grid
    (the first on ties); the largest normal-residual norm when some sample
    has no sign (a minimal point)."""
    signed = decided(samples.signed_normal).astype(float)
    if signed.size < samples.signed_normal.size:
        return float(samples.normal_residual.max())
    return float(signed[np.argmax(np.abs(signed))])


@_declare(SWEEP_OBJECTIVES, "characterization_gap", GEOMETRY)
def _objective_characterization_gap(cfg, samples) -> float:
    kind, m = cfg.ambient.kind, cfg.immersion.dim
    return float(np.mean(samples.b_norm2 - characterization_target(kind, m, samples.coeffs)))


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

    The sampled values and Brent's steps take one route: the sampled values
    run their grids in one :func:`_run_grids` call, as shared geometry
    blocks, and each Brent step in a call of its own, all on the loaded
    ``cfg`` (:meth:`ScenarioConfig.check_constant` rejects a value as its
    loader would).  A limit counts as a root only if |f| there is at or
    below |f| at both ends of its sampled bracket (a sample that lands on a
    root is its own limit); otherwise the objective changed sign across a
    pole or a jump, and the limit is reported as a discontinuity.  A value
    whose grid failed at some or all grid points gives a NaN objective: it
    is listed under ``partial``, never ends a bracket, and a NaN inside a
    bracket ends that bracket's search.  Only a sweep in which no sampled
    value evaluated at any grid point raises.
    """
    known = set(cfg.constants) | set(cfg.immersion.bindings) | set(cfg.ambient.bindings)
    if parameter not in known:
        raise ConfigError(f"constant {parameter!r} does not appear in the config",
                          "sweep.parameter")
    lo, hi = _number(lo, "sweep.range"), _number(hi, "sweep.range")
    samples = _integer(samples, "sweep.range")
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples!r}", "sweep.range")
    if objective not in SWEEP_OBJECTIVES:
        raise ConfigError(f"unknown sweep objective {objective!r}")
    declared = SWEEP_OBJECTIVES[objective]
    partial, evaluated, errors = [], [], []

    def objectives(values: list) -> list[float]:
        """The objective at each of ``values``, from one grid run over all of
        them; NaN at a value whose grid failed in part or everywhere."""
        for x in values:
            cfg.check_constant(parameter, x)
        ys = []
        for x, (clean, failed) in zip(values, _run_grids(cfg, declared.needs, parameter, values)):
            if clean is None:
                errors.append(f"{parameter}={x:g}: {failed[0][2]}")
            else:
                evaluated.append(x)
            y = math.nan if failed else declared.run(cfg, clean)
            if math.isnan(y):
                partial.append(x)
            ys.append(y)
        return ys

    xs = list(np.linspace(lo, hi, samples))
    ys = objectives(xs)
    if xs and not evaluated:
        raise GeometryError("no sampled value evaluated at any grid point; first error at "
                            + errors[0])
    roots, jumps = [], []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 == 0.0:
            roots.append(x0)
        elif y0 * y1 < 0.0:  # false when either end is NaN
            limit = _zeroin(lambda x: objectives([x])[0], x0, x1, y0, y1)
            if limit is not None:
                x, fx = limit
                (roots if abs(fx) <= min(abs(y0), abs(y1)) else jumps).append(x)
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
    if min(_number(h, path) for h in steps) <= 0.0:
        raise ConfigError(f"step sizes must be positive, got {list(steps)}", path)
    imm = cfg.immersion
    probe = tuple(0.5 * (ax.lo + ax.hi) + 0.061 * (ax.hi - ax.lo) for ax in imm.domain)
    pg = point_geometry(cfg.ambient, imm, probe, JET_ORDER)
    exact = vec_mat(normal_derivatives(pg).laplacian, pg.normal_frame)
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
    raise TypeError(f"cannot write a {type(value).__name__} into a report")


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
