"""Biharmonicity residuals, curvature characterizations, bounds, audits.

A submanifold is biharmonic exactly when the normal and tangential parts of
the bitension field vanish.  With the sign convention Delta = tr(nabla^2)
the split reads

    normal:      -Delta-perp H + tr B(., A_H .) + (tr R(., H) .)^perp  = 0
    tangential:  (m/2) grad|H|^2 + 2 tr A_{nabla-perp H}(.)
                                 + 2 (tr R(., H) .)^tan               = 0

and substituting the algebraic curvature of a generalized complex or
Sasakian space form turns the trace term into structure-operator
expressions.  Every function here reports residual vectors for the general
split, for the kind-specific closed form, and for whichever special-case
branch the classification flags activate; agreement of all three is a test
property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambient import (
    COSYMPLECTIC,
    KENMOTSU,
    KIND_COMPLEX,
    KIND_CONTACT,
    SASAKI,
    AmbientModel,
    GeometryError,
    coefficients_at,  # noqa: F401
    coefficients_for_tag,
    ClassicalTag,
    curvature_parts,  # noqa: F401
    structure_at,  # noqa: F401
)
from .structure import ClassificationFlags, DecompositionOperators
from .submanifold import NormalFieldDerivatives, PointGeometry, project_tangent, _project_normal

# coefficients_at, curvature_parts and structure_at are imported for
# bench/tracing.py, which wraps them in this module's namespace; the residuals
# read the ambient tensors from the sample's snapshot, ``pg.ambient``.

GENERAL = "general"
CLOSED_FORM = "closed_form"

CMC_RTOL = 1e-7
MINIMAL_TOL = 1e-6
PROPER_TOL = 1e-6
CHARACTERIZATION_TOL = 1e-5   # |B|^2 against its target
BOUND_TOL = 1e-8              # |H|^2 against the mean-curvature bound
REDUCTION_TOL = 1e-8          # contact normal equation against its constant-target form

# The mean-curvature bounds by ambient kind.  Complex: the bound is the grid
# minimum of a coefficient expression.  Contact: it is (K - shift)/m, with
# K = m f1 - f2 + 3 f3, and needs K > shift.
BOUND_KINDS = {
    KIND_COMPLEX: {"lagrangian": lambda alpha, beta: (2.0 * alpha + 3.0 * beta) / 2.0,
                   "complex_surface": lambda alpha, beta: alpha},
    KIND_CONTACT: {"xi_phi_h_tangent": 0.0, "xi_tangent_phi_h_normal": 3.0},
}


@dataclass
class BiharmonicResidual:
    branch: str
    normal: np.ndarray
    tangential: np.ndarray
    terms: dict = field(default_factory=dict)

    @property
    def normal_norm(self) -> float:
        return float(np.linalg.norm(self.normal))

    @property
    def tangential_norm(self) -> float:
        return float(np.linalg.norm(self.tangential))


def curvature_trace(space: AmbientModel, pg: PointGeometry):
    """sum_i R(X_i, H) X_i over the tangent frame, split into parts."""
    total = np.zeros(space.rep_dim)
    for X in pg.tangent_frame:
        total += pg.ambient.curvature_parts(X, pg.mean_curvature, X)["combined"]
    return _project_normal(pg, total), project_tangent(pg, total)


def residual_general(space: AmbientModel, pg: PointGeometry, nd: NormalFieldDerivatives) -> BiharmonicResidual:
    """Residual of the split bitension equations with the curvature trace
    evaluated directly from the ambient algebraic curvature."""
    ctr_normal, ctr_tangent = curvature_trace(space, pg)
    normal = -nd.laplacian + nd.trace_shape_mean + ctr_normal
    tangential = 0.5 * pg.m * nd.grad_h2 + 2.0 * nd.trace_shape_gradient + 2.0 * ctr_tangent
    terms = {
        "laplacian": float(np.linalg.norm(nd.laplacian)),
        "trace_shape_mean": float(np.linalg.norm(nd.trace_shape_mean)),
        "curvature_normal": float(np.linalg.norm(ctr_normal)),
        "grad_h2": float(np.linalg.norm(nd.grad_h2)),
        "trace_shape_gradient": float(np.linalg.norm(nd.trace_shape_gradient)),
        "curvature_tangential": float(np.linalg.norm(ctr_tangent)),
    }
    return BiharmonicResidual(GENERAL, normal, tangential, terms)


def _vec_from_normal(pg, comps):
    return np.asarray(comps) @ pg.normal_frame


def _vec_from_tangent(pg, comps):
    return np.asarray(comps) @ pg.tangent_frame


def residual_gcsf(space, pg, nd, ops: DecompositionOperators,
                  flags: ClassificationFlags) -> dict[str, BiharmonicResidual]:
    """Residuals for submanifolds of a generalized complex space form.

    Returns the closed-form trace version (``closed_form``) plus every
    special-case branch whose hypotheses the flags support.
    """
    if space.kind != KIND_COMPLEX:
        raise GeometryError("residual_gcsf needs a generalized complex ambient")
    m = pg.m
    if m >= 4:
        raise GeometryError("complex-case residuals cover submanifolds of dimension < 4")
    alpha, beta = pg.ambient.coeffs
    H = pg.mean_curvature
    hn = pg.mean_normal_components
    lH = ops.nt @ hn                       # tangent components of J H
    klH = _vec_from_normal(pg, ops.tn @ lH)
    jlH = _vec_from_tangent(pg, ops.tt @ lH)
    base_n = -nd.laplacian + nd.trace_shape_mean
    base_t = 0.5 * m * nd.grad_h2 + 2.0 * nd.trace_shape_gradient

    out = {
        CLOSED_FORM: BiharmonicResidual(
            CLOSED_FORM, base_n - m * alpha * H + 3.0 * beta * klH, base_t + 6.0 * beta * jlH)
    }
    if flags.is_hypersurface:
        out["hypersurface"] = BiharmonicResidual(
            "hypersurface", base_n - 3.0 * (alpha + beta) * H, base_t)
    if flags.is_complex and m == 2:
        out["complex_surface"] = BiharmonicResidual(
            "complex_surface", base_n - 2.0 * alpha * H, base_t)
    if flags.is_lagrangian:
        out["lagrangian_surface"] = BiharmonicResidual(
            "lagrangian_surface", base_n - (2.0 * alpha + 3.0 * beta) * H, base_t)
    if flags.is_curve:
        mmH = _vec_from_normal(pg, ops.nn @ (ops.nn @ hn))
        out["curve"] = BiharmonicResidual(
            "curve", base_n - alpha * H - 3.0 * beta * (H + mmH), base_t)
    return out


def _gssf_rhs_closed_form(space, pg, ops, coeffs):
    """Closed-form right-hand sides of the contact-case equations."""
    f1, f2, f3 = coeffs
    m = pg.m
    H = pg.mean_curvature
    hn = pg.mean_normal_components
    tH = ops.nt @ hn
    NtH = _vec_from_normal(pg, ops.tn @ tH)
    PtH = _vec_from_tangent(pg, ops.tt @ tH)
    xi_top = _vec_from_tangent(pg, ops.xi_tan)
    xi_perp = _vec_from_normal(pg, ops.xi_nor)
    eta_h = float(ops.xi_nor @ hn)
    xt2 = float(ops.xi_tan @ ops.xi_tan)
    rhs_n = m * f1 * H - f2 * xt2 * H - m * f2 * eta_h * xi_perp - 3.0 * f3 * NtH
    rhs_t = -2.0 * f2 * (m - 1) * eta_h * xi_top - 6.0 * f3 * PtH
    aux = {"NtH": NtH, "PtH": PtH, "xi_top": xi_top, "xi_perp": xi_perp,
           "eta_h": eta_h, "xt2": xt2}
    return rhs_n, rhs_t, aux


def residual_gssf(space, pg, nd, ops: DecompositionOperators,
                  flags: ClassificationFlags) -> dict[str, BiharmonicResidual]:
    """Residuals for submanifolds of a generalized Sasakian space form."""
    if space.kind != KIND_CONTACT:
        raise GeometryError("residual_gssf needs a generalized Sasakian ambient")
    f1, f2, f3 = pg.ambient.coeffs
    m = pg.m
    H = pg.mean_curvature
    base_n = -nd.laplacian + nd.trace_shape_mean
    base_t = 0.5 * m * nd.grad_h2 + 2.0 * nd.trace_shape_gradient
    rhs_n, rhs_t, aux = _gssf_rhs_closed_form(space, pg, ops, (f1, f2, f3))
    NtH, PtH = aux["NtH"], aux["PtH"]
    xi_top, xi_perp, eta_h, xt2 = aux["xi_top"], aux["xi_perp"], aux["eta_h"], aux["xt2"]

    out = {
        CLOSED_FORM: BiharmonicResidual(CLOSED_FORM, base_n - rhs_n, base_t - rhs_t)
    }
    if flags.is_invariant:
        out["invariant"] = BiharmonicResidual(
            "invariant",
            base_n - (m * f1 * H - f2 * xt2 * H - m * f2 * eta_h * xi_perp),
            base_t - rhs_t)
    if flags.is_anti_invariant:
        out["anti_invariant"] = BiharmonicResidual(
            "anti_invariant", base_n - rhs_n,
            base_t + 2.0 * f2 * (m - 1) * eta_h * xi_top)
    if flags.xi_normal:
        _, xi_full = pg.ambient.structure
        out["xi_normal"] = BiharmonicResidual(
            "xi_normal",
            base_n - (m * f1 * H - m * f2 * eta_h * xi_full - 3.0 * f3 * NtH),
            base_t)
    if flags.xi_tangent:
        out["xi_tangent"] = BiharmonicResidual(
            "xi_tangent",
            base_n - (m * f1 * H - f2 * H - 3.0 * f3 * NtH),
            base_t + 6.0 * f3 * PtH)
    if flags.is_hypersurface:
        out["hypersurface"] = BiharmonicResidual(
            "hypersurface",
            base_n - ((m * f1 + 3.0 * f3) * H - f2 * xt2 * H
                      - (m * f2 + 3.0 * f3) * eta_h * xi_perp),
            base_t + (2.0 * (m - 1) * f2 + 6.0 * f3) * eta_h * xi_top)
    return out


def reduction_residual(space, pg, ops) -> float:
    """How far the contact normal equation is from its constant-target form.

    Distance between the closed-form right-hand side and (m f1 - f2 + 3 f3) H.
    It vanishes whenever xi and phi(H) are tangent, and also when the
    coefficients in front of the structure terms vanish, which is the
    condition under which the constant-mean-curvature characterization and
    the mean-curvature bounds apply.
    """
    coeffs = pg.ambient.coeffs
    rhs_n, _, _ = _gssf_rhs_closed_form(space, pg, ops, coeffs)
    f1, f2, f3 = coeffs
    target = (pg.m * f1 - f2 + 3.0 * f3) * pg.mean_curvature
    return float(np.linalg.norm(rhs_n - target))


# -- aggregated verdicts --------------------------------------------------------


@dataclass
class PointData:
    """Per-sample data consumed by the grid-level verdicts; a quantity that
    the grid run was not asked for stays None (``residuals`` stays empty)."""

    u: tuple
    h_norm: float
    b_norm2: float
    coeffs: tuple | None = None
    flags: ClassificationFlags | None = None
    scal_intrinsic: float | None = None
    scal_via_gauss: float | None = None
    pseudo_deviation: float | None = None
    nabla_h_norm: float | None = None
    reduction_residual: float | None = None
    residuals: dict[str, BiharmonicResidual] = field(default_factory=dict)


def _cmc(points) -> tuple[bool, float]:
    hs = [p.h_norm for p in points]
    spread = max(hs) - min(hs)
    return spread < CMC_RTOL * (1.0 + max(hs)), max(hs)


def _all_flag(points, name) -> bool:
    return all(getattr(p.flags, name) for p in points)


def contact_reduction_ok(points) -> bool:
    vals = [p.reduction_residual for p in points if p.reduction_residual is not None]
    if not vals:
        return False
    scale = 1.0 + max(p.h_norm for p in points)
    return max(vals) <= REDUCTION_TOL * scale


def cmc_characterization(space: AmbientModel, points, m: int,
                         tol: float = CHARACTERIZATION_TOL) -> dict:
    """Constant-mean-curvature characterization |B|^2 = target for hypersurfaces.

    Complex ambient: target 3(alpha + beta), with the equivalent scalar
    curvature form cross-reported.  Contact ambient: target
    m f1 - f2 + 3 f3, applicable when xi is tangent or when the structure
    terms of the normal equation vanish identically on the grid.  Returns
    the report entry: ``status`` is Satisfied, Violated or NotApplicable.
    """
    points = list(points)
    cmc, hmax = _cmc(points)
    hyp = {
        "cmc": cmc,
        "nonzero_mean_curvature": hmax > MINIMAL_TOL,
        "hypersurface": _all_flag(points, "is_hypersurface"),
    }
    # a complex ambient has no xi; a reducing equation stands in for a tangent one
    holds = dict(hyp, xi_tangent=True)
    if space.kind == KIND_CONTACT:
        hyp["xi_tangent"] = _all_flag(points, "xi_tangent")
        hyp["equation_reduces"] = contact_reduction_ok(points)
        holds["xi_tangent"] = hyp["xi_tangent"] or hyp["equation_reduces"]
    out = {"status": "NotApplicable", "target": None, "gap": None, "hypotheses": hyp,
           "failed_hypothesis": None, "scalar_check": None}
    for name in ("cmc", "nonzero_mean_curvature", "hypersurface", "xi_tangent"):
        if not holds[name]:
            out["failed_hypothesis"] = name
            return out

    gaps, targets, scal_gaps = [], [], []
    for p in points:
        if space.kind == KIND_COMPLEX:
            a, b = p.coeffs
            target = 3.0 * (a + b)
            scal_gaps.append(abs(p.scal_intrinsic - (3.0 * (a + b) + 9.0 * p.h_norm**2)))
        else:
            f1, f2, f3 = p.coeffs
            target = m * f1 - f2 + 3.0 * f3
        targets.append(target)
        gaps.append(abs(p.b_norm2 - target))
    gap = max(gaps)
    out.update(status="Satisfied" if gap < tol else "Violated", target=targets[0], gap=gap)
    if space.kind == KIND_COMPLEX:
        out["scalar_check"] = {"max_gap": max(scal_gaps), "form": "3(alpha+beta)+9|H|^2"}
    return out


def bound_constant(family: str, m: int, c: float) -> float:
    """The constant m f1 - f2 + 3 f3 for the classical space-form families."""
    if family == SASAKI:
        k = (m + 2) * c / 4.0 + (3 * m - 2) / 4.0
    elif family == KENMOTSU:
        k = (m + 2) * c / 4.0 - (3 * m - 2) / 4.0
    elif family == COSYMPLECTIC:
        k = (m + 2) * c / 4.0
    else:
        raise ValueError(f"no mean-curvature bound constant for family {family!r}")
    f1, f2, f3 = coefficients_for_tag(ClassicalTag(family, c))
    assert abs(k - (m * f1 - f2 + 3.0 * f3)) < 1e-12
    return k


def _bound_kind(space, points) -> str | None:
    if space.kind == KIND_COMPLEX:
        if _all_flag(points, "is_lagrangian"):
            return "lagrangian"
        if _all_flag(points, "is_complex"):
            return "complex_surface"
        return None
    phi_h_t = all(p.flags.phi_h_tangent for p in points if p.flags.phi_h_tangent is not None)
    phi_h_n = all(p.flags.phi_h_normal for p in points if p.flags.phi_h_normal is not None)
    xi_t = _all_flag(points, "xi_tangent")
    reduces = contact_reduction_ok(points)
    if (xi_t or reduces) and (phi_h_t or _all_flag(points, "is_hypersurface")):
        return "xi_phi_h_tangent"
    if xi_t and phi_h_n:
        return "xi_tangent_phi_h_normal"
    return None


def bound_check(space: AmbientModel, points, m: int, kind: str | None = None,
                tol: float = BOUND_TOL) -> dict:
    """Mean-curvature bound for proper biharmonic CMC submanifolds.

    Complex case: |H|^2 <= inf (2 alpha + 3 beta)/2 for Lagrangian surfaces,
    |H|^2 <= inf alpha for complex surfaces.  Contact case: |H|^2 <= K/m
    with xi and phi(H) tangent, or (K-3)/m with phi(H) normal, where K is
    m f1 - f2 + 3 f3.  At equality the pseudo-umbilical and parallel-H
    characterization is reported.  Infima are minima over grid samples.
    ``kind`` (one of :data:`BOUND_KINDS` for the ambient) is matched from
    the flags when not given.  Returns the report entry: ``status`` is
    WithinBound, Violated or NotApplicable.
    """
    points = list(points)
    cmc, hmax = _cmc(points)
    # infima are taken over grid samples, never claimed globally
    hyp = {"cmc": cmc, "nonzero_mean_curvature": hmax > MINIMAL_TOL,
           "infimum": "min_over_grid_samples"}
    if kind is None:
        kind = _bound_kind(space, points)
    elif kind not in BOUND_KINDS[space.kind]:
        raise ValueError(f"unknown bound kind {kind!r}")
    out = {"kind": kind or "unmatched", "status": "NotApplicable", "k_value": None,
           "bound": None, "h2": None, "within_bound": None, "equality": None,
           "equality_case": None, "hypotheses": hyp, "failed_hypothesis": None}
    if kind is None:
        out["failed_hypothesis"] = "flag_pattern"
        return out
    hyp["kind"] = kind
    for name in ("cmc", "nonzero_mean_curvature"):
        if not hyp[name]:
            out["failed_hypothesis"] = name
            return out

    if space.kind == KIND_COMPLEX:
        bound = min(BOUND_KINDS[KIND_COMPLEX][kind](*p.coeffs) for p in points)
    else:
        if space.tag is not None and space.tag.family in (SASAKI, KENMOTSU, COSYMPLECTIC):
            k_value = bound_constant(space.tag.family, m, space.tag.value)
        else:
            k_value = min(m * p.coeffs[0] - p.coeffs[1] + 3.0 * p.coeffs[2] for p in points)
        shift = BOUND_KINDS[KIND_CONTACT][kind]
        bound = None if k_value <= shift else (k_value - shift) / m
        out["k_value"] = k_value
    h2 = hmax**2
    out.update(bound=bound, h2=h2)
    if bound is None or bound <= 0.0:
        hyp["positive_bound"] = False
        out["failed_hypothesis"] = "positive_bound"
        return out

    within = h2 <= bound + tol
    equality = abs(h2 - bound) < max(tol, 1e-9 * (1.0 + bound))
    if equality:
        devs = [p.pseudo_deviation for p in points if p.pseudo_deviation is not None]
        out["equality_case"] = {
            "pseudo_umbilical": bool(devs) and max(devs) < 1e-6,
            "parallel_mean_curvature": max(p.nabla_h_norm for p in points) < 1e-6,
        }
    out.update(status="WithinBound" if within else "Violated", within_bound=within,
               equality=equality)
    return out


def nonexistence_audit(space: AmbientModel, points, m: int) -> list[dict]:
    """Which non-existence statements cover the scenario's flag pattern.

    A finding is ``relevant`` when the scenario matches the statement's
    hypotheses and ``applies`` when the coefficient inequality holds, in
    which case any proper-biharmonic verdict on the same grid contradicts
    the theory and is flagged by the runner as a hard failure.  Returns the
    findings as report entries.
    """
    points = list(points)
    cmc = _cmc(points)[0]

    def finding(rule, relevant, applies, detail):
        return {"rule": rule, "relevant": relevant, "applies": applies, "detail": detail}

    if space.kind == KIND_COMPLEX:
        ab = [p.coeffs[0] + p.coeffs[1] for p in points]
        lag = [2.0 * p.coeffs[0] + 3.0 * p.coeffs[1] for p in points]
        comp = [p.coeffs[0] for p in points]
        return [
            finding("cmc_hypersurface_nonpositive_scalar",
                    cmc and _all_flag(points, "is_hypersurface"), max(ab) <= 0.0,
                    {"sup_alpha_plus_beta": max(ab)}),
            finding("cmc_lagrangian_surface", cmc and _all_flag(points, "is_lagrangian"),
                    max(lag) <= 0.0, {"sup_2alpha_plus_3beta": max(lag)}),
            finding("cmc_complex_surface", cmc and _all_flag(points, "is_complex"),
                    max(comp) <= 0.0, {"sup_alpha": max(comp)}),
        ]

    kvals = [m * p.coeffs[0] - p.coeffs[1] + 3.0 * p.coeffs[2] for p in points]
    detail = {"sup_target": max(kvals)}
    if space.tag is not None and space.tag.family in (SASAKI, KENMOTSU, COSYMPLECTIC):
        c = space.tag.value
        if space.tag.family == SASAKI:
            thr = -(3.0 * m - 2.0) / (m + 2.0)
        elif space.tag.family == KENMOTSU:
            thr = (3.0 * m - 2.0) / (m + 2.0)
        else:
            thr = 0.0
        detail.update({"family": space.tag.family, "c": c,
                       "c_threshold": thr, "threshold_applies": c <= thr})
    return [
        finding("cmc_reeb_tangent_hypersurface",
                cmc and _all_flag(points, "is_hypersurface") and _all_flag(points, "xi_tangent"),
                max(kvals) <= 0.0, detail),
        finding("cmc_xi_phi_h_tangent",
                cmc and _all_flag(points, "xi_tangent")
                and all(p.flags.phi_h_tangent for p in points
                        if p.flags.phi_h_tangent is not None),
                max(kvals) <= 0.0, {"sup_k": max(kvals)}),
        finding("cmc_xi_tangent_phi_h_normal",
                cmc and _all_flag(points, "xi_tangent")
                and all(p.flags.phi_h_normal for p in points if p.flags.phi_h_normal is not None)
                and any(p.flags.phi_h_normal is not None for p in points),
                max(kvals) <= 3.0, {"sup_k": max(kvals), "threshold": 3.0}),
    ]


def proper_biharmonic_verdict(points) -> str:
    """MinimalHenceBiharmonic | ProperBiharmonic | NotBiharmonic from the grid.

    Biharmonic means both residual norms stay below :data:`PROPER_TOL` at
    every sample; proper additionally needs a mean curvature bounded away
    from 0.
    """
    hmax = max(p.h_norm for p in points)
    worst = max(max(p.residuals[GENERAL].normal_norm,
                    p.residuals[GENERAL].tangential_norm) for p in points)
    if not worst <= PROPER_TOL:
        return "NotBiharmonic"
    return "MinimalHenceBiharmonic" if hmax <= MINIMAL_TOL else "ProperBiharmonic"
