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
    curvature_parts,  # noqa: F401
    dot,
    mat_vec,
    norm,
    structure_at,  # noqa: F401
    vec_mat,
)
from .structure import ClassificationFlags, DecompositionOperators
from .submanifold import NormalFieldDerivatives, PointGeometry, project_tangent, _project_normal

# coefficients_at, curvature_parts and structure_at are imported for
# bench/tracing.py, which wraps them in this module's namespace; the residuals
# read the ambient tensors from the samples' snapshot, ``pg.ambient``.  Every
# residual here is at all the samples of ``pg``, with the sample axes in front.

GENERAL = "general"
CLOSED_FORM = "closed_form"

CMC_RTOL = 1e-7
MINIMAL_TOL = 1e-6
PROPER_TOL = 1e-6
CHARACTERIZATION_TOL = 1e-5   # |B|^2 against its target
BOUND_TOL = 1e-8              # |H|^2 against the mean-curvature bound
REDUCTION_TOL = 1e-8          # contact normal equation against its constant-target form

# The special-case branches by ambient kind, in the order in which a sample
# reports the first one its flags activate (see :func:`branch_of`).
BRANCH_PRIORITY = {
    KIND_COMPLEX: ("curve", "hypersurface", "complex_surface", "lagrangian_surface"),
    KIND_CONTACT: ("hypersurface", "xi_normal", "xi_tangent", "invariant", "anti_invariant"),
}
# The classification flag that activates each special-case branch at a sample.
BRANCH_FLAGS = {"curve": "is_curve", "hypersurface": "is_hypersurface",
                "complex_surface": "is_complex", "lagrangian_surface": "is_lagrangian",
                "invariant": "is_invariant", "anti_invariant": "is_anti_invariant",
                "xi_normal": "xi_normal", "xi_tangent": "xi_tangent"}

# The mean-curvature bounds by ambient kind.  Complex: the bound is the grid
# minimum of a coefficient expression.  Contact: it is (K - shift)/m, with
# K the characterization target, and needs K > shift.
BOUND_KINDS = {
    KIND_COMPLEX: {"lagrangian": lambda alpha, beta: (2.0 * alpha + 3.0 * beta) / 2.0,
                   "complex_surface": lambda alpha, beta: alpha},
    KIND_CONTACT: {"xi_phi_h_tangent": 0.0, "xi_tangent_phi_h_normal": 3.0},
}


@dataclass
class BiharmonicResidual:
    normal: np.ndarray
    tangential: np.ndarray
    terms: dict = field(default_factory=dict)

    @property
    def normal_norm(self) -> float:
        return float(np.linalg.norm(self.normal))

    @property
    def tangential_norm(self) -> float:
        return float(np.linalg.norm(self.tangential))

    def at(self, index) -> "BiharmonicResidual":
        """The residual of the sample at ``index`` of the sample axes."""
        return BiharmonicResidual(self.normal[index], self.tangential[index],
                                  {k: float(v[index]) for k, v in self.terms.items()})


def characterization_target(kind: str, m: int, coeffs) -> float:
    """The constant that |B|^2 of a CMC hypersurface is held to: 3(alpha + beta)
    in a generalized complex space form, K = m f1 - f2 + 3 f3 in a
    generalized Sasakian one."""
    if kind == KIND_COMPLEX:
        alpha, beta = coeffs
        return 3.0 * (alpha + beta)
    f1, f2, f3 = coeffs
    return m * f1 - f2 + 3.0 * f3


def curvature_trace(pg: PointGeometry):
    """sum_i R(X_i, H) X_i over the tangent frame, split into parts."""
    total = np.einsum("...ix,...y,...iz,...xyza->...a", pg.tangent_frame, pg.mean_curvature,
                      pg.tangent_frame, pg.ambient.curvature["combined"])
    return _project_normal(pg, total), project_tangent(pg, total)


def _bitension_base(pg: PointGeometry, nd: NormalFieldDerivatives):
    """The normal and tangential bitension terms without the curvature trace:
    -Delta-perp H + tr B(., A_H .) and (m/2) grad|H|^2 + 2 tr A_{nabla-perp H}."""
    return (-nd.laplacian + nd.trace_shape_mean,
            0.5 * pg.m * nd.grad_h2 + 2.0 * nd.trace_shape_gradient)


def residual_general(space: AmbientModel, pg: PointGeometry, nd: NormalFieldDerivatives) -> BiharmonicResidual:
    """Residual of the split bitension equations with the curvature trace
    evaluated directly from the ambient algebraic curvature."""
    ctr_normal, ctr_tangent = curvature_trace(pg)
    base_n, base_t = _bitension_base(pg, nd)
    normal = base_n + ctr_normal
    tangential = base_t + 2.0 * ctr_tangent
    terms = {"laplacian": nd.laplacian, "trace_shape_mean": nd.trace_shape_mean,
             "curvature_normal": ctr_normal, "grad_h2": nd.grad_h2,
             "trace_shape_gradient": nd.trace_shape_gradient, "curvature_tangential": ctr_tangent}
    return BiharmonicResidual(normal, tangential, {k: norm(v) for k, v in terms.items()})


def _active(flags: ClassificationFlags, branch: str) -> bool:
    """Whether the flags activate ``branch`` at some sample."""
    return bool(np.any(getattr(flags, BRANCH_FLAGS[branch])))


def _coefficients(pg):
    """The curvature coefficients, each with an axis to scale vectors by."""
    return tuple(c[..., None] for c in pg.ambient.coeffs)


def residual_gcsf(space, pg, nd, ops: DecompositionOperators,
                  flags: ClassificationFlags) -> dict[str, BiharmonicResidual]:
    """Residuals for submanifolds of a generalized complex space form.

    Returns the closed-form trace version (``closed_form``) plus every
    special-case branch whose hypotheses the flags support at some sample
    (see :data:`BRANCH_FLAGS`).
    """
    if space.kind != KIND_COMPLEX:
        raise GeometryError("residual_gcsf needs a generalized complex ambient")
    m = pg.m
    if m >= 4:
        raise GeometryError("complex-case residuals cover submanifolds of dimension < 4")
    alpha, beta = _coefficients(pg)
    H = pg.mean_curvature
    hn = pg.mean_normal_components
    lH = mat_vec(ops.nt, hn)               # tangent components of J H
    klH = vec_mat(mat_vec(ops.tn, lH), pg.normal_frame)
    jlH = vec_mat(mat_vec(ops.tt, lH), pg.tangent_frame)
    base_n, base_t = _bitension_base(pg, nd)

    out = {
        CLOSED_FORM: BiharmonicResidual(
            base_n - m * alpha * H + 3.0 * beta * klH, base_t + 6.0 * beta * jlH)
    }
    if _active(flags, "hypersurface"):
        out["hypersurface"] = BiharmonicResidual(
            base_n - characterization_target(KIND_COMPLEX, m, (alpha, beta)) * H, base_t)
    if _active(flags, "complex_surface") and m == 2:
        out["complex_surface"] = BiharmonicResidual(base_n - 2.0 * alpha * H, base_t)
    if _active(flags, "lagrangian_surface"):
        out["lagrangian_surface"] = BiharmonicResidual(
            base_n - (2.0 * alpha + 3.0 * beta) * H, base_t)
    if _active(flags, "curve"):
        mmH = vec_mat(mat_vec(ops.nn, mat_vec(ops.nn, hn)), pg.normal_frame)
        out["curve"] = BiharmonicResidual(base_n - alpha * H - 3.0 * beta * (H + mmH), base_t)
    return out


def _gssf_rhs_closed_form(pg, ops):
    """Closed-form right-hand sides of the contact-case equations, kept on
    ``ops``: :func:`residual_gssf` and :func:`reduction_residual` of one
    split compute them once."""
    if "_closed_form" in vars(ops):
        return ops._closed_form
    f1, f2, f3 = _coefficients(pg)
    m = pg.m
    H = pg.mean_curvature
    hn = pg.mean_normal_components
    tH = mat_vec(ops.nt, hn)
    NtH = vec_mat(mat_vec(ops.tn, tH), pg.normal_frame)
    PtH = vec_mat(mat_vec(ops.tt, tH), pg.tangent_frame)
    xi_top = vec_mat(ops.xi_tan, pg.tangent_frame)
    xi_perp = vec_mat(ops.xi_nor, pg.normal_frame)
    eta_h = dot(ops.xi_nor, hn)[..., None]
    xt2 = dot(ops.xi_tan, ops.xi_tan)[..., None]
    rhs_n = m * f1 * H - f2 * xt2 * H - m * f2 * eta_h * xi_perp - 3.0 * f3 * NtH
    rhs_t = -2.0 * f2 * (m - 1) * eta_h * xi_top - 6.0 * f3 * PtH
    aux = {"NtH": NtH, "PtH": PtH, "xi_top": xi_top, "xi_perp": xi_perp,
           "eta_h": eta_h, "xt2": xt2}
    ops._closed_form = rhs_n, rhs_t, aux
    return ops._closed_form


def residual_gssf(space, pg, nd, ops: DecompositionOperators,
                  flags: ClassificationFlags) -> dict[str, BiharmonicResidual]:
    """Residuals for submanifolds of a generalized Sasakian space form."""
    if space.kind != KIND_CONTACT:
        raise GeometryError("residual_gssf needs a generalized Sasakian ambient")
    f1, f2, f3 = _coefficients(pg)
    m = pg.m
    H = pg.mean_curvature
    base_n, base_t = _bitension_base(pg, nd)
    rhs_n, rhs_t, aux = _gssf_rhs_closed_form(pg, ops)
    NtH, PtH = aux["NtH"], aux["PtH"]
    xi_top, xi_perp, eta_h, xt2 = aux["xi_top"], aux["xi_perp"], aux["eta_h"], aux["xt2"]

    out = {
        CLOSED_FORM: BiharmonicResidual(base_n - rhs_n, base_t - rhs_t)
    }
    if _active(flags, "invariant"):
        out["invariant"] = BiharmonicResidual(
            base_n - (m * f1 * H - f2 * xt2 * H - m * f2 * eta_h * xi_perp),
            base_t - rhs_t)
    if _active(flags, "anti_invariant"):
        out["anti_invariant"] = BiharmonicResidual(
            base_n - rhs_n, base_t + 2.0 * f2 * (m - 1) * eta_h * xi_top)
    if _active(flags, "xi_normal"):
        _, xi_full = pg.ambient.structure
        out["xi_normal"] = BiharmonicResidual(
            base_n - (m * f1 * H - m * f2 * eta_h * xi_full - 3.0 * f3 * NtH),
            base_t)
    if _active(flags, "xi_tangent"):
        out["xi_tangent"] = BiharmonicResidual(
            base_n - (m * f1 * H - f2 * H - 3.0 * f3 * NtH),
            base_t + 6.0 * f3 * PtH)
    if _active(flags, "hypersurface"):
        out["hypersurface"] = BiharmonicResidual(
            base_n - ((m * f1 + 3.0 * f3) * H - f2 * xt2 * H
                      - (m * f2 + 3.0 * f3) * eta_h * xi_perp),
            base_t + (2.0 * (m - 1) * f2 + 6.0 * f3) * eta_h * xi_top)
    return out


def branch_of(kind: str, residuals: dict) -> str:
    """The residual a sample reports as its branch: the first special-case
    branch in :data:`BRANCH_PRIORITY` that its flags activated, else the
    closed form, else the general split."""
    return next((name for name in BRANCH_PRIORITY[kind] if name in residuals),
                CLOSED_FORM if CLOSED_FORM in residuals else GENERAL)


def reduction_residual(space, pg, ops):
    """How far the contact normal equation is from its constant-target form.

    Distance between the closed-form right-hand side and K H, with K the
    characterization target m f1 - f2 + 3 f3.
    It vanishes whenever xi and phi(H) are tangent, and also when the
    coefficients in front of the structure terms vanish, which is the
    condition under which the constant-mean-curvature characterization and
    the mean-curvature bounds apply.
    """
    rhs_n, _, _ = _gssf_rhs_closed_form(pg, ops)
    target = characterization_target(KIND_CONTACT, pg.m, _coefficients(pg)) * pg.mean_curvature
    return norm(rhs_n - target)


# -- aggregated verdicts --------------------------------------------------------


@dataclass
class PointData:
    """One grid sample's result.  A failed sample carries its ``error`` and
    nothing else; on a clean one, a quantity that the grid run was not asked
    for stays None (``residuals`` stays empty)."""

    u: tuple
    error: str | None = None
    h_norm: float | None = None
    b_norm2: float | None = None
    coeffs: tuple | None = None
    flags: ClassificationFlags | None = None
    scal_intrinsic: float | None = None
    scal_via_gauss: float | None = None
    pseudo_deviation: float | None = None
    nabla_h_norm: float | None = None
    reduction_residual: float | None = None
    residuals: dict[str, BiharmonicResidual] = field(default_factory=dict)
    relations: dict | None = None
    branch: str | None = None          # see :func:`branch_of`
    signed_normal: float | None = None  # general normal residual along H/|H|


def _cmc(points) -> tuple[bool, float]:
    hs = [p.h_norm for p in points]
    spread = max(hs) - min(hs)
    return spread < CMC_RTOL * (1.0 + max(hs)), max(hs)


def flag_consensus(points) -> dict:
    """Each classification flag over the grid: True when every sample that
    decides it says True, False when one says False, None when none decides."""
    out = {}
    flags = [p.flags.as_dict() for p in points]
    for name in flags[0]:
        known = [f[name] for f in flags if f[name] is not None]
        out[name] = all(known) if known else None
    return out


def contact_reduction_ok(points) -> bool:
    vals = [p.reduction_residual for p in points if p.reduction_residual is not None]
    if not vals:
        return False
    scale = 1.0 + max(p.h_norm for p in points)
    return max(vals) <= REDUCTION_TOL * scale


def cmc_characterization(space: AmbientModel, points, m: int) -> dict:
    """Constant-mean-curvature characterization |B|^2 = target for hypersurfaces.

    Complex ambient: target 3(alpha + beta), with the equivalent scalar
    curvature form cross-reported.  Contact ambient: target
    m f1 - f2 + 3 f3, applicable when xi is tangent or when the structure
    terms of the normal equation vanish identically on the grid.  Returns
    the report entry: ``status`` is Satisfied, Violated or NotApplicable.
    """
    points = list(points)
    cmc, hmax = _cmc(points)
    flags = flag_consensus(points)
    hyp = {
        "cmc": cmc,
        "nonzero_mean_curvature": hmax > MINIMAL_TOL,
        "hypersurface": flags["is_hypersurface"] is True,
    }
    # a complex ambient has no xi; a reducing equation stands in for a tangent one
    holds = dict(hyp, xi_tangent=True)
    if space.kind == KIND_CONTACT:
        hyp["xi_tangent"] = flags["xi_tangent"] is True
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
        target = characterization_target(space.kind, m, p.coeffs)
        if space.kind == KIND_COMPLEX:
            scal_gaps.append(abs(p.scal_intrinsic - (target + 9.0 * p.h_norm**2)))
        targets.append(target)
        gaps.append(abs(p.b_norm2 - target))
    gap = max(gaps)
    out.update(status="Satisfied" if gap < CHARACTERIZATION_TOL else "Violated",
               target=targets[0], gap=gap)
    if space.kind == KIND_COMPLEX:
        out["scalar_check"] = {"max_gap": max(scal_gaps), "form": "3(alpha+beta)+9|H|^2"}
    return out


def _bound_kind(space, points) -> str | None:
    flags = flag_consensus(points)
    if space.kind == KIND_COMPLEX:
        if flags["is_lagrangian"] is True:
            return "lagrangian"
        if flags["is_complex"] is True:
            return "complex_surface"
        return None
    xi_t = flags["xi_tangent"] is True
    reduces = contact_reduction_ok(points)
    if (xi_t or reduces) and (flags["phi_h_tangent"] is not False
                              or flags["is_hypersurface"] is True):
        return "xi_phi_h_tangent"
    if xi_t and flags["phi_h_normal"] is not False:
        return "xi_tangent_phi_h_normal"
    return None


def bound_check(space: AmbientModel, points, m: int) -> dict:
    """Mean-curvature bound for proper biharmonic CMC submanifolds.

    Complex case: |H|^2 <= inf (2 alpha + 3 beta)/2 for Lagrangian surfaces,
    |H|^2 <= inf alpha for complex surfaces.  Contact case: |H|^2 <= K/m
    with xi and phi(H) tangent, or (K-3)/m with phi(H) normal, where K is
    the grid minimum of m f1 - f2 + 3 f3 over the declared coefficients.  At equality the pseudo-umbilical and parallel-H
    characterization is reported.  Infima are minima over grid samples.
    The kind (one of :data:`BOUND_KINDS` for the ambient) is matched from
    the flags.  Returns the report entry: ``status`` is
    WithinBound, Violated or NotApplicable.
    """
    points = list(points)
    cmc, hmax = _cmc(points)
    # infima are taken over grid samples, never claimed globally
    hyp = {"cmc": cmc, "nonzero_mean_curvature": hmax > MINIMAL_TOL,
           "infimum": "min_over_grid_samples"}
    kind = _bound_kind(space, points)
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
        k_value = min(characterization_target(KIND_CONTACT, m, p.coeffs) for p in points)
        shift = BOUND_KINDS[KIND_CONTACT][kind]
        bound = None if k_value <= shift else (k_value - shift) / m
        out["k_value"] = k_value
    h2 = hmax**2
    out.update(bound=bound, h2=h2)
    if bound is None or bound <= 0.0:
        hyp["positive_bound"] = False
        out["failed_hypothesis"] = "positive_bound"
        return out

    within = h2 <= bound + BOUND_TOL
    equality = abs(h2 - bound) < max(BOUND_TOL, 1e-9 * (1.0 + bound))
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
    flags = flag_consensus(points)

    def finding(rule, relevant, applies, detail):
        return {"rule": rule, "relevant": relevant, "applies": applies, "detail": detail}

    if space.kind == KIND_COMPLEX:
        ab = [p.coeffs[0] + p.coeffs[1] for p in points]
        lag = [2.0 * p.coeffs[0] + 3.0 * p.coeffs[1] for p in points]
        comp = [p.coeffs[0] for p in points]
        return [
            finding("cmc_hypersurface_nonpositive_scalar",
                    cmc and flags["is_hypersurface"] is True, max(ab) <= 0.0,
                    {"sup_alpha_plus_beta": max(ab)}),
            finding("cmc_lagrangian_surface", cmc and flags["is_lagrangian"] is True,
                    max(lag) <= 0.0, {"sup_2alpha_plus_3beta": max(lag)}),
            finding("cmc_complex_surface", cmc and flags["is_complex"] is True,
                    max(comp) <= 0.0, {"sup_alpha": max(comp)}),
        ]

    xi_t = flags["xi_tangent"] is True
    kvals = [characterization_target(KIND_CONTACT, m, p.coeffs) for p in points]
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
                cmc and xi_t and flags["is_hypersurface"] is True,
                max(kvals) <= 0.0, detail),
        # a grid on which no sample decides phi(H) (a minimal one) reads as
        # phi(H) tangent here: a vacuous truth that the report pins still hold
        finding("cmc_xi_phi_h_tangent", cmc and xi_t and flags["phi_h_tangent"] is not False,
                max(kvals) <= 0.0, {"sup_k": max(kvals)}),
        finding("cmc_xi_tangent_phi_h_normal", cmc and xi_t and flags["phi_h_normal"] is True,
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
