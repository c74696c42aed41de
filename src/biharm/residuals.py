"""Biharmonicity residuals, curvature characterizations, bounds, audits.

A submanifold is biharmonic exactly when the normal and tangential parts of
the bitension field vanish.  With the sign convention Delta = tr(nabla^2)
the split reads

    normal:      -Delta-perp H + tr B(., A_H .) + (tr R(., H) .)^perp  = 0
    tangential:  (m/2) grad|H|^2 + 2 tr A_{nabla-perp H}(.)
                                 + 2 (tr R(., H) .)^tan               = 0

and substituting the algebraic curvature of a generalized complex or
Sasakian space form turns the trace term into structure-operator
expressions.  Every function here reports residuals, as frame components,
for the general split, for the kind-specific closed form, and for whichever
special-case branch the classification flags activate; agreement of all
three is a test property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

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
from .structure import DecompositionOperators
from .submanifold import PSEUDO_UMBILICAL_TOL, NormalFieldDerivatives, PointGeometry

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
    """A residual's two parts at every sample, as g-orthonormal frame components."""

    normal: np.ndarray                   # S + (codim,) on pg.normal_frame
    tangential: np.ndarray               # S + (m,) on pg.tangent_frame
    terms: dict = field(default_factory=dict)  # the general split's term lengths
    active: np.ndarray | bool = True     # the samples at which it counts


def length(pg: PointGeometry, comps, normal: bool = True):
    """The length of the vectors with normal-frame (else tangent-frame) components
    ``comps``, the one rule for every length a report gives: today the Euclidean
    length of their ambient coordinates, which depends on the chart."""
    return norm(vec_mat(comps, pg.normal_frame if normal else pg.tangent_frame))


def characterization_target(kind: str, m: int, coeffs):
    """The constant that |B|^2 of a CMC hypersurface is held to: 3(alpha + beta)
    in a generalized complex space form, K = m f1 - f2 + 3 f3 in a
    generalized Sasakian one; a column of them for coefficient columns."""
    if kind == KIND_COMPLEX:
        alpha, beta = coeffs
        return 3.0 * (alpha + beta)
    f1, f2, f3 = coeffs
    return m * f1 - f2 + 3.0 * f3


def curvature_trace(pg: PointGeometry):
    """sum_i R(X_i, H) X_i over the tangent frame: its normal-frame and
    tangent-frame components."""
    total = np.einsum("...ix,...y,...iz,...xyza->...a", pg.tangent_frame, pg.mean_curvature,
                      pg.tangent_frame, pg.ambient.curvature["combined"])
    low = vec_mat(total, pg.ambient.g)
    return mat_vec(pg.normal_frame, low), mat_vec(pg.tangent_frame, low)


def _bitension_base(pg: PointGeometry, nd: NormalFieldDerivatives):
    """The normal and tangential bitension terms without the curvature trace:
    -Delta-perp H + tr B(., A_H .) and (m/2) grad|H|^2 + 2 tr A_{nabla-perp H}."""
    return (-nd.laplacian + nd.trace_shape_mean,
            0.5 * pg.m * nd.grad_h2 + 2.0 * nd.trace_shape_gradient)


def residual_general(pg: PointGeometry, nd: NormalFieldDerivatives) -> BiharmonicResidual:
    """Residual of the split bitension equations with the curvature trace
    evaluated directly from the ambient algebraic curvature."""
    ctr_normal, ctr_tangent = curvature_trace(pg)
    base_n, base_t = _bitension_base(pg, nd)
    normal = base_n + ctr_normal
    tangential = base_t + 2.0 * ctr_tangent
    terms = {"laplacian": length(pg, nd.laplacian),
             "trace_shape_mean": length(pg, nd.trace_shape_mean),
             "curvature_normal": length(pg, ctr_normal),
             "grad_h2": length(pg, nd.grad_h2, normal=False),
             "trace_shape_gradient": length(pg, nd.trace_shape_gradient, normal=False),
             "curvature_tangential": length(pg, ctr_tangent, normal=False)}
    return BiharmonicResidual(normal, tangential, terms)


def _rhs_terms(kind: str, pg: PointGeometry, ops: DecompositionOperators) -> SimpleNamespace:
    """What the right-hand sides of ``kind``'s rows read, as frame components:
    m, H, the coefficients (with an axis to scale vectors by), NtH and PtH
    (the normal and tangent parts of J or phi of the tangent part of J H or
    phi H); mmH (the normal part of J twice on the normal part of H), or the
    parts of xi and the f1 and f2 terms of the closed form (f12_n normal,
    f12_t tangential).  ``pg`` keeps the contact ones for its ``ops``: a
    block's branch and reduction residuals both read them."""
    if pg._state.get("rhs", (None,))[0] is ops:
        return pg._state["rhs"][1]
    hn = pg.mean_normal_components
    th = mat_vec(ops.nt, hn)               # tangent components of J H or phi H
    t = SimpleNamespace(m=pg.m, H=hn, NtH=mat_vec(ops.tn, th), PtH=mat_vec(ops.tt, th))
    coeffs = tuple(c[..., None] for c in pg.ambient.coeffs)
    if kind == KIND_COMPLEX:
        t.alpha, t.beta = coeffs
        t.mmH = mat_vec(ops.nn, mat_vec(ops.nn, hn))
        return t
    t.f1, t.f2, t.f3 = coeffs
    t.xi_top, t.xi_perp = ops.xi_tan, ops.xi_nor
    t.eta_h = dot(ops.xi_nor, hn)[..., None]           # eta(H)
    t.xt2 = dot(ops.xi_tan, ops.xi_tan)[..., None]     # |xi_top|^2
    t.f12_n = t.m * t.f1 * t.H - t.f2 * t.xt2 * t.H - t.m * t.f2 * t.eta_h * t.xi_perp
    t.f12_t = -2.0 * t.f2 * (t.m - 1) * t.eta_h * t.xi_top
    pg._state["rhs"] = (ops, t)
    return t


# The particular cases of the paper, one table per ambient kind.  A row is
# name: (the flag that activates it, None for every sample; the dimension m
# it needs, None for any; its right-hand side (normal, tangential) from the
# quantities of :func:`_rhs_terms`).  Its residual, the bitension base minus
# that right-hand side, is computed when the flag holds at some sample of
# the block and counts where it holds.  The rows are in report priority (see
# :func:`branch_of`), the closed form last.  ``invariant`` is computed and
# enters ``max_branch_vs_general`` but is never the reported branch: phi
# keeps the tangent space at an invariant sample, so xi (phi's kernel,
# orthogonal to its image) is tangent or normal, and ``xi_normal`` or
# ``xi_tangent`` ranks first.
BRANCHES = {
    KIND_COMPLEX: {
        "curve": ("is_curve", None, lambda t: (t.alpha * t.H + 3.0 * t.beta * (t.H + t.mmH), 0.0)),
        "hypersurface": ("is_hypersurface", None, lambda t: (
            characterization_target(KIND_COMPLEX, t.m, (t.alpha, t.beta)) * t.H, 0.0)),
        "complex_surface": ("is_complex", 2, lambda t: (2.0 * t.alpha * t.H, 0.0)),
        "lagrangian_surface": ("is_lagrangian", None, lambda t: (
            (2.0 * t.alpha + 3.0 * t.beta) * t.H, 0.0)),
        CLOSED_FORM: (None, None, lambda t: (
            t.m * t.alpha * t.H - 3.0 * t.beta * t.NtH, -6.0 * t.beta * t.PtH)),
    },
    KIND_CONTACT: {
        "hypersurface": ("is_hypersurface", None, lambda t: (
            (t.m * t.f1 + 3.0 * t.f3) * t.H - t.f2 * t.xt2 * t.H
            - (t.m * t.f2 + 3.0 * t.f3) * t.eta_h * t.xi_perp,
            -(2.0 * (t.m - 1) * t.f2 + 6.0 * t.f3) * t.eta_h * t.xi_top)),
        "xi_normal": ("xi_normal", None, lambda t: (
            t.m * t.f1 * t.H - t.m * t.f2 * t.eta_h * t.xi_perp - 3.0 * t.f3 * t.NtH, 0.0)),
        "xi_tangent": ("xi_tangent", None, lambda t: (
            t.m * t.f1 * t.H - t.f2 * t.H - 3.0 * t.f3 * t.NtH, -6.0 * t.f3 * t.PtH)),
        "invariant": ("is_invariant", None, lambda t: (t.f12_n, t.f12_t - 6.0 * t.f3 * t.PtH)),
        "anti_invariant": ("is_anti_invariant", None, lambda t: (
            t.f12_n - 3.0 * t.f3 * t.NtH, t.f12_t)),
        CLOSED_FORM: (None, None, lambda t: (
            t.f12_n - 3.0 * t.f3 * t.NtH, t.f12_t - 6.0 * t.f3 * t.PtH)),
    },
}


def _table_residuals(kind, pg, nd, ops, flags) -> dict[str, BiharmonicResidual]:
    """Each row of ``kind``'s table that applies to ``pg``: the bitension base
    minus the row's right-hand side, normal and tangential."""
    t = _rhs_terms(kind, pg, ops)
    base_n, base_t = _bitension_base(pg, nd)
    out = {}
    for name, (flag, m, rhs) in BRANCHES[kind].items():
        active = True if flag is None else np.asarray(flags[flag], dtype=bool)
        if np.any(active) and m in (None, pg.m):
            rhs_n, rhs_t = rhs(t)
            out[name] = BiharmonicResidual(base_n - rhs_n, base_t - rhs_t, active=active)
    return out


def residual_gcsf(space, pg, nd, ops: DecompositionOperators,
                  flags: dict) -> dict[str, BiharmonicResidual]:
    """Residuals in a generalized complex space form: its rows of :data:`BRANCHES`."""
    if space.kind != KIND_COMPLEX:
        raise GeometryError("residual_gcsf needs a generalized complex ambient")
    return _table_residuals(KIND_COMPLEX, pg, nd, ops, flags)


def residual_gssf(space, pg, nd, ops: DecompositionOperators,
                  flags: dict) -> dict[str, BiharmonicResidual]:
    """Residuals in a generalized Sasakian space form: its rows of :data:`BRANCHES`."""
    if space.kind != KIND_CONTACT:
        raise GeometryError("residual_gssf needs a generalized Sasakian ambient")
    return _table_residuals(KIND_CONTACT, pg, nd, ops, flags)


def branch_of(kind: str, residuals: dict) -> np.ndarray:
    """The residual each sample reports as its branch: the first row of the
    kind's table in :data:`BRANCHES` that counts there, else the general split."""
    branch = np.full(residuals[GENERAL].normal.shape[:-1], GENERAL, dtype=object)
    for name in reversed(BRANCHES[kind]):
        if name in residuals:
            branch = np.where(residuals[name].active, name, branch)
    return branch


def reduction_residual(pg, ops):
    """How far the contact normal equation is from its constant-target form:
    the distance between the normal right-hand side of the closed-form row
    and K H, with K the characterization target m f1 - f2 + 3 f3.  It
    vanishes whenever xi and phi(H) are tangent, and also when the
    coefficients in front of the structure terms vanish, which is the
    condition under which the constant-mean-curvature characterization and
    the mean-curvature bounds apply."""
    t = _rhs_terms(KIND_CONTACT, pg, ops)
    rhs_n, _ = BRANCHES[KIND_CONTACT][CLOSED_FORM][2](t)
    return length(pg, rhs_n - characterization_target(KIND_CONTACT, t.m, (t.f1, t.f2, t.f3)) * t.H)


# -- aggregated verdicts --------------------------------------------------------


@dataclass
class GridSamples:
    """A grid's clean samples as columns: every field has the sample axis in
    front, the samples in grid order.  A quantity that the grid run was not
    asked for stays None.  The flags, the pseudo-umbilical deviation and the
    signed normal residual are object columns, None at a sample that decides
    nothing."""

    u: np.ndarray                           # (k, m): m is the intrinsic dimension
    h_norm: np.ndarray
    b_norm2: np.ndarray
    coeffs: tuple | None = None             # one column per curvature coefficient (always set)
    flags: dict | None = None               # keyed by structure.FLAGS
    nabla_h_norm: np.ndarray | None = None
    scal_intrinsic: np.ndarray | None = None
    scal_via_gauss: np.ndarray | None = None
    pseudo_deviation: np.ndarray | None = None
    reduction_residual: np.ndarray | None = None
    normal_residual: np.ndarray | None = None      # norms of the general split
    tangential_residual: np.ndarray | None = None
    terms: dict | None = None                      # norms of its terms
    closed_form_gap: np.ndarray | None = None      # largest residual gap to the general split
    branch_gap: np.ndarray | None = None           # the same over the active branches
    branch: np.ndarray | None = None               # see :func:`branch_of`
    signed_normal: np.ndarray | None = None        # general normal residual along H/|H|
    relations: dict | None = None


def map_columns(fn, *records):
    """``fn`` of the corresponding columns of ``records`` (grid samples, or the
    dicts and tuples of columns in them), nested as they are; None stays None."""
    first = records[0]
    if first is None:
        return None
    if isinstance(first, GridSamples):
        return GridSamples(**{f.name: map_columns(fn, *(getattr(r, f.name) for r in records))
                              for f in fields(first)})
    if isinstance(first, dict):
        return {k: map_columns(fn, *(r[k] for r in records)) for k in first}
    if isinstance(first, tuple):
        return tuple(map_columns(fn, *parts) for parts in zip(*records))
    return fn(*records)


def decided(column) -> np.ndarray:
    """The entries of a column that are not None (all of a float column)."""
    return column[np.not_equal(column, None)]


def _cmc(samples) -> tuple[bool, float]:
    hmax = float(samples.h_norm.max())
    return hmax - float(samples.h_norm.min()) < CMC_RTOL * (1.0 + hmax), hmax


def flag_consensus(samples) -> dict:
    """Each classification flag over the grid: True when every sample that
    decides it says True, False when one says False, None when none decides."""
    out = {}
    for name, column in samples.flags.items():
        known = decided(column)
        out[name] = bool(known.all()) if known.size else None
    return out


def contact_reduction_ok(samples) -> bool:
    if samples.reduction_residual is None:
        return False
    scale = 1.0 + float(samples.h_norm.max())
    return float(samples.reduction_residual.max()) <= REDUCTION_TOL * scale


def pseudo_umbilical(samples) -> tuple[float | None, bool]:
    """The largest pseudo-umbilical deviation over the samples that decide it,
    and whether it is below :data:`PSEUDO_UMBILICAL_TOL`; (None, False) when
    no sample decides it."""
    devs = decided(samples.pseudo_deviation)
    if not devs.size:
        return None, False
    worst = float(devs.max())
    return worst, worst < PSEUDO_UMBILICAL_TOL


def squares(column):
    """The squares of a column as Python's float ``**`` gives them: numpy's
    ``**2`` (a product) differs from it in the last bit on some values."""
    return np.float_power(column, 2)


def cmc_characterization(space: AmbientModel, samples) -> dict:
    """Constant-mean-curvature characterization |B|^2 = target for hypersurfaces.

    Complex ambient: target 3(alpha + beta), with the equivalent scalar
    curvature form cross-reported.  Contact ambient: target
    m f1 - f2 + 3 f3, applicable when xi is tangent or when the structure
    terms of the normal equation vanish identically on the grid.  Returns
    the report entry: ``status`` is Satisfied, Violated or NotApplicable.
    """
    cmc, hmax = _cmc(samples)
    flags = flag_consensus(samples)
    hyp = {
        "cmc": cmc,
        "nonzero_mean_curvature": hmax > MINIMAL_TOL,
        "hypersurface": flags["is_hypersurface"] is True,
    }
    # a complex ambient has no xi; a reducing equation stands in for a tangent one
    holds = dict(hyp, xi_tangent=True)
    if space.kind == KIND_CONTACT:
        hyp["xi_tangent"] = flags["xi_tangent"] is True
        hyp["equation_reduces"] = contact_reduction_ok(samples)
        holds["xi_tangent"] = hyp["xi_tangent"] or hyp["equation_reduces"]
    out = {"status": "NotApplicable", "target": None, "gap": None, "hypotheses": hyp,
           "failed_hypothesis": None, "scalar_check": None}
    for name in ("cmc", "nonzero_mean_curvature", "hypersurface", "xi_tangent"):
        if not holds[name]:
            out["failed_hypothesis"] = name
            return out

    target = characterization_target(space.kind, samples.u.shape[-1], samples.coeffs)
    gap = float(np.abs(samples.b_norm2 - target).max())
    out.update(status="Satisfied" if gap < CHARACTERIZATION_TOL else "Violated",
               target=float(target[0]), gap=gap)
    if space.kind == KIND_COMPLEX:
        scal_gap = np.abs(samples.scal_intrinsic - (target + 9.0 * squares(samples.h_norm)))
        out["scalar_check"] = {"max_gap": float(scal_gap.max()), "form": "3(alpha+beta)+9|H|^2"}
    return out


def _bound_kind(space, samples) -> str | None:
    flags = flag_consensus(samples)
    if space.kind == KIND_COMPLEX:
        if flags["is_lagrangian"] is True:
            return "lagrangian"
        if flags["is_complex"] is True:
            return "complex_surface"
        return None
    xi_t = flags["xi_tangent"] is True
    reduces = contact_reduction_ok(samples)
    if (xi_t or reduces) and (flags["phi_h_tangent"] is not False
                              or flags["is_hypersurface"] is True):
        return "xi_phi_h_tangent"
    if xi_t and flags["phi_h_normal"] is not False:
        return "xi_tangent_phi_h_normal"
    return None


def bound_check(space: AmbientModel, samples) -> dict:
    """Mean-curvature bound for proper biharmonic CMC submanifolds.

    Complex case: |H|^2 <= inf (2 alpha + 3 beta)/2 for Lagrangian surfaces,
    |H|^2 <= inf alpha for complex surfaces.  Contact case: |H|^2 <= K/m
    with xi and phi(H) tangent, or (K-3)/m with phi(H) normal, where K is
    the grid minimum of m f1 - f2 + 3 f3 over the declared coefficients.  At
    equality the pseudo-umbilical (the rule of :func:`pseudo_umbilical`) and
    parallel-H characterization is reported.  Infima are minima over grid samples.
    The kind (one of :data:`BOUND_KINDS` for the ambient) is matched from
    the flags.  Returns the report entry: ``status`` is
    WithinBound, Violated or NotApplicable.
    """
    cmc, hmax = _cmc(samples)
    # infima are taken over grid samples, never claimed globally
    hyp = {"cmc": cmc, "nonzero_mean_curvature": hmax > MINIMAL_TOL,
           "infimum": "min_over_grid_samples"}
    kind = _bound_kind(space, samples)
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
        bound = float(BOUND_KINDS[KIND_COMPLEX][kind](*samples.coeffs).min())
    else:
        m = samples.u.shape[-1]
        k_value = float(characterization_target(KIND_CONTACT, m, samples.coeffs).min())
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
        out["equality_case"] = {
            "pseudo_umbilical": pseudo_umbilical(samples)[1],
            "parallel_mean_curvature": float(samples.nabla_h_norm.max()) < 1e-6,
        }
    out.update(status="WithinBound" if within else "Violated", within_bound=within,
               equality=equality)
    return out


def nonexistence_audit(space: AmbientModel, samples) -> list[dict]:
    """Which non-existence statements cover the scenario's flag pattern.

    A finding is ``relevant`` when the scenario matches the statement's
    hypotheses and ``applies`` when the coefficient inequality holds, in
    which case any proper-biharmonic verdict on the same grid contradicts
    the theory and is flagged by the runner as a hard failure.  Returns the
    findings as report entries.
    """
    cmc = _cmc(samples)[0]
    flags = flag_consensus(samples)

    def finding(rule, relevant, applies, detail):
        return {"rule": rule, "relevant": relevant, "applies": applies, "detail": detail}

    if space.kind == KIND_COMPLEX:
        alpha, beta = samples.coeffs
        ab = float((alpha + beta).max())
        lag = float((2.0 * alpha + 3.0 * beta).max())
        comp = float(alpha.max())
        return [
            finding("cmc_hypersurface_nonpositive_scalar",
                    cmc and flags["is_hypersurface"] is True, ab <= 0.0,
                    {"sup_alpha_plus_beta": ab}),
            finding("cmc_lagrangian_surface", cmc and flags["is_lagrangian"] is True,
                    lag <= 0.0, {"sup_2alpha_plus_3beta": lag}),
            finding("cmc_complex_surface", cmc and flags["is_complex"] is True,
                    comp <= 0.0, {"sup_alpha": comp}),
        ]

    xi_t, m = flags["xi_tangent"] is True, samples.u.shape[-1]
    kmax = float(characterization_target(KIND_CONTACT, m, samples.coeffs).max())
    detail = {"sup_target": kmax}
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
                kmax <= 0.0, detail),
        # a grid on which no sample decides phi(H) (a minimal one) reads as
        # phi(H) tangent here: a vacuous truth that the report pins still hold
        finding("cmc_xi_phi_h_tangent", cmc and xi_t and flags["phi_h_tangent"] is not False,
                kmax <= 0.0, {"sup_k": kmax}),
        finding("cmc_xi_tangent_phi_h_normal", cmc and xi_t and flags["phi_h_normal"] is True,
                kmax <= 3.0, {"sup_k": kmax, "threshold": 3.0}),
    ]


def proper_biharmonic_verdict(samples) -> str:
    """MinimalHenceBiharmonic | ProperBiharmonic | NotBiharmonic from the grid.

    Biharmonic means both residual norms stay below :data:`PROPER_TOL` at
    every sample; proper additionally needs a mean curvature bounded away
    from 0.
    """
    hmax = float(samples.h_norm.max())
    worst = max(float(samples.normal_residual.max()), float(samples.tangential_residual.max()))
    if not worst <= PROPER_TOL:
        return "NotBiharmonic"
    return "MinimalHenceBiharmonic" if hmax <= MINIMAL_TOL else "ProperBiharmonic"
